#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <warm-exec|cold-start|fleet-open>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the project's libraries and the
benchmark from source (CMake, into $CARGO_TARGET_DIR or .bench_build),
runs the benchmark's self-test, then one workload. Every store and
temporary file of the run lives in a fresh directory under the build
directory, removed at exit, so repeated runs start from identical state.
The last line of standard output is the result as one JSON object.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("warm-exec", "cold-start", "fleet-open")
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(path):
        path = os.path.join(ROOT, path)
    return os.path.join(path, "perfbench")


def build(out):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", out],
                ["cmake", "--build", out, "-j", jobs]):
        # Build output goes to stderr: stdout carries only the benchmark.
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind as on any error: the running child is killed and
    # waited for, and the run's directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or not 0 < args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in (0, 120]")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: project sources (src/) not found beside perfbench/",
              file=sys.stderr)
        return 2

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not build(out):
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode != 0:
        return 2

    tmp = tempfile.mkdtemp(prefix="run-", dir=out)
    try:
        env = dict(os.environ, TMPDIR=tmp)
        cmd = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--tmpdir", tmp]
        if args.trace:
            cmd += ["--trace-out", os.path.join(
                out, "trace-%s-%d.jsonl" % (args.workload, args.seed))]
        sys.stdout.flush()
        try:
            result = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            return 3
        return result.returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
