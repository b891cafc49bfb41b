//===- perfbench/main.cpp - The repository benchmark ----------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload <warm-exec|cold-start|fleet-open> --seed <n>
///           --seconds <s> --trace <0|1> --tmpdir <dir> [--trace-out <file>]
///
/// Runs one workload against the project's public API and prints every
/// metric by name and unit, then one JSON line: the end-to-end metrics
/// with --trace 0, the per-layer metrics (workload under spans plus the
/// layer replays) with --trace 1. Every guest result is checked against the
/// interpreter; a mismatch or a broken exact-count invariant makes the
/// command exit 1. README.md in this directory defines every metric and
/// the end-to-end metric each layer metric should move.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "interp/Interpreter.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sys/resource.h>

using namespace ildp;
using namespace perfbench;

namespace {

/// Must match "end_to_end" in BENCHMARK.json.
const std::vector<std::string> EndToEnd = {
    "setup_s", "guest_mips", "p50_ms", "tail_ms", "ok_ratio", "peak_rss_mb"};

/// Must match "per_layer" in BENCHMARK.json.
const std::vector<std::string> PerLayer = {
    "interp.ns_per_inst",
    "mem.load_ns",
    "mem.store_ns",
    "mem.pages",
    "core.record_us",
    "core.lower_us",
    "core.usage_us",
    "core.strands_us",
    "core.codegen_us",
    "core.translate_us",
    "core.install_us",
    "core.uops_per_vinst",
    "core.iisa_per_vinst",
    "core.translations",
    "core.evictions",
    "core.retranslate_ratio",
    "iisa.ns_per_inst",
    "vm.interp_share",
    "vm.dispatch_per_kinst",
    "vm.ctor_ms",
    "vm.run_ms",
    "vm.dispatch_ns_per_inst",
    "native.emit_us",
    "native.compile_ms",
    "native.load_ms",
    "native.ns_per_inst",
    "native.compiles",
    "native.dropped",
    "persist.open_ms",
    "persist.lookup_ms",
    "persist.save_ms",
    "persist.store_bytes",
    "serve.submit_us",
    "serve.queue_ms.p50",
    "serve.queue_ms.p99",
    "serve.exec_ms.p50",
    "serve.exec_ms.p99",
    "serve.acquire_ms",
    "serve.busy_ratio",
    "serve.rejected.queue-full",
    "serve.rejected.tenant-quota",
    "serve.rejected.deadline",
    "serve.rejected.shutdown",
    "fleet.gen_late_ms",
};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<warm-exec|cold-start|fleet-open> --seed <n> --seconds <s> "
               "--trace <0|1> --tmpdir <dir> [--trace-out <file>]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    std::string Val = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opt.Workload = Val;
    } else if (Arg == "--seed") {
      Opt.Seed = std::strtoull(Val.c_str(), &End, 10);
      if (*End)
        usage("bad --seed");
    } else if (Arg == "--seconds") {
      Opt.Seconds = std::strtod(Val.c_str(), &End);
      if (*End || !(Opt.Seconds > 0) || Opt.Seconds > 120)
        usage("bad --seconds");
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        usage("bad --trace");
      Opt.Trace = Val == "1";
    } else if (Arg == "--tmpdir") {
      Opt.TmpDir = Val;
    } else if (Arg == "--trace-out") {
      Opt.TraceOut = Val;
    } else {
      usage(("unknown option " + Arg).c_str());
    }
  }
  if (Opt.TmpDir.empty())
    usage("--tmpdir is required");
  return Opt;
}

void printNumber(double V) {
  if (std::isfinite(V))
    std::printf("%.17g", V);
  else
    std::printf("null");
}

} // namespace

// ---- Shared helpers (Bench.h) ----

std::vector<Program>
perfbench::buildPrograms(const std::vector<std::string> &Names,
                         const std::vector<unsigned> &Scales) {
  std::vector<Program> Out;
  for (size_t I = 0; I != Names.size(); ++I) {
    Program P;
    P.Name = Names[I];
    P.Scale = Scales[I];
    P.Image = serve::imageFromWorkload(P.Name, P.Scale);
    GuestMemory Mem;
    if (serve::buildGuestMemory(P.Image, Mem) != nullptr) {
      std::fprintf(stderr, "perfbench: cannot build %s\n", P.Name.c_str());
      std::exit(1);
    }
    Interpreter Interp(Mem);
    Interp.state().Pc = P.Image.EntryPc;
    if (Interp.run(4'000'000'000ull).Status != StepStatus::Halted) {
      std::fprintf(stderr, "perfbench: reference run of %s did not halt\n",
                   P.Name.c_str());
      std::exit(1);
    }
    P.RefArch = Interp.state();
    P.RefInsts = Interp.retiredCount();
    Out.push_back(std::move(P));
  }
  return Out;
}

RunOutcome perfbench::interpRun(const Program &P, Tracer &T) {
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  RunOutcome O;
  Clock::time_point Start = Clock::now();
  StepInfo Last;
  Interpreter Interp(Mem);
  {
    Scope S(T, "interp.run");
    Interp.state().Pc = P.Image.EntryPc;
    Last = Interp.run(4'000'000'000ull);
  }
  O.WallMs = msSince(Start);
  O.GuestInsts = Interp.retiredCount();
  O.Halted = Last.Status == StepStatus::Halted;
  O.Matches = O.Halted && Interp.state() == P.RefArch;
  O.CountMatches = O.GuestInsts == P.RefInsts;
  return O;
}

RunOutcome perfbench::vmRun(const Program &P, const vm::VmConfig &Config,
                            Tracer &T) {
  GuestMemory Mem;
  serve::buildGuestMemory(P.Image, Mem);
  RunOutcome O;
  ArchState Final;
  Clock::time_point Start = Clock::now();
  {
    Scope Whole(T, "vm.lifetime");
    std::unique_ptr<vm::VirtualMachine> Vm;
    {
      Scope S(T, "vm.ctor");
      Vm = std::make_unique<vm::VirtualMachine>(Mem, P.Image.EntryPc, Config);
    }
    vm::RunResult Result;
    {
      Scope S(T, "vm.run");
      Result = Vm->run();
    }
    O.Halted = Result.Reason == vm::StopReason::Halted;
    O.GuestInsts = Vm->guestInsts();
    Final = Vm->interpreter().state();
    O.Stats = Vm->stats();
    // The exit save (which waits out in-flight host compiles) is part of
    // what a run costs.
    Scope S(T, "vm.dtor");
    Vm.reset();
  }
  O.WallMs = msSince(Start);
  O.Matches = O.Halted && Final == P.RefArch;
  O.CountMatches = O.GuestInsts == P.RefInsts;
  return O;
}

vm::VmConfig perfbench::nativeConfig() {
  vm::VmConfig C;
  C.NativeTier = true;
  C.NativeWorkers = NativeCompileWorkers;
  return C;
}

void perfbench::checkRun(Report &R, const Program &P, const char *What,
                         const RunOutcome &O, bool CountExact) {
  bool Failed = !O.Matches;
  R.attempt(Failed);
  if (Failed)
    R.incorrect("%s %s: halted=%d, final state differs from the interpreter",
                What, P.Name.c_str(), int(O.Halted));
  else if (CountExact && !O.CountMatches)
    R.incorrect("%s %s: %llu guest insts, interpreter retired %llu", What,
                P.Name.c_str(), (unsigned long long)O.GuestInsts,
                (unsigned long long)P.RefInsts);
}

void perfbench::convergeNative(const Program &P, const std::string &Store,
                               Report &R, Tracer &T) {
  vm::VmConfig C = nativeConfig();
  C.PersistPath = Store;
  for (int Round = 0; Round != 6; ++Round) {
    RunOutcome O = vmRun(P, C, T);
    checkRun(R, P, "native set-up run", O);
    if (O.Stats.get("native.compiles") == 0)
      return;
  }
  R.incorrect("native store for %s never converged", P.Name.c_str());
}

void perfbench::reportHostSpeed(Report &R, const char *Of,
                                const HostSpeed &Speed) {
  R.info("host speed during %s: yardstick median %.4f ms over %zu samples, "
         "nominal %.4f ms, factor %.4f",
         Of, Speed.medianMs(), Speed.samples(), Speed.nominalMs(),
         Speed.factor());
}

void perfbench::reportSetup(Report &R, const std::vector<double> &Seconds,
                            const HostSpeed &Speed) {
  reportHostSpeed(R, "set-up", Speed);
  R.info("setup_s as measured (this host, unscaled): %.4f", median(Seconds));
  R.metric("setup_s", median(Seconds) * Speed.factor(), "s",
           "median of " + std::to_string(Seconds.size()) + " set-ups");
}

void perfbench::reportOkRatio(Report &R, const char *Over) {
  double Fail = R.attempted() ? double(R.failed()) / double(R.attempted()) : 0;
  R.info("fail_ratio = %.6f (%llu of %llu %s)", Fail,
         (unsigned long long)R.failed(), (unsigned long long)R.attempted(),
         Over);
  R.metric("ok_ratio", 1.0 - Fail, "ratio", "1 - fail_ratio");
}

double perfbench::peakRssMb() {
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return double(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux.
}

// ---- Report ----

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit, const std::string &Note) {
  Metrics.push_back({Name, Value, Unit, true, Note});
  std::printf("metric %-28s %14.6g %-6s %s\n", Name.c_str(), Value,
              Unit.c_str(), Note.c_str());
}

void Report::unavailable(const std::string &Name, const std::string &Unit,
                         const std::string &Why) {
  Metrics.push_back({Name, 0, Unit, false, Why});
  std::printf("metric %-28s %14s %-6s %s\n", Name.c_str(), "unavailable",
              Unit.c_str(), Why.c_str());
}

void Report::info(const char *Fmt, ...) {
  va_list Args;
  va_start(Args, Fmt);
  std::vprintf(Fmt, Args);
  va_end(Args);
  std::printf("\n");
}

void Report::incorrect(const char *Fmt, ...) {
  Correct = false;
  std::fprintf(stderr, "perfbench: INCORRECT: ");
  va_list Args;
  va_start(Args, Fmt);
  std::vfprintf(stderr, Fmt, Args);
  va_end(Args);
  std::fprintf(stderr, "\n");
}

const Report::Metric *Report::find(const std::string &Name) const {
  // Later records win: the traced run re-measures some names.
  for (size_t I = Metrics.size(); I-- > 0;)
    if (Metrics[I].Name == Name)
      return &Metrics[I];
  return nullptr;
}

void Report::printJson(const std::vector<std::string> &Keep) const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false", (unsigned long long)Attempted,
              (unsigned long long)FailedCount);
  for (size_t I = 0; I != Keep.size(); ++I) {
    const Metric *M = find(Keep[I]);
    std::printf("%s\"%s\": {\"value\": ", I ? ", " : "", Keep[I].c_str());
    if (M && M->Available) {
      printNumber(M->Value);
      std::printf(", \"unit\": \"%s\"}", M->Unit.c_str());
    } else {
      std::printf("null, \"unit\": \"%s\", \"unavailable\": \"%s\"}",
                  M ? M->Unit.c_str() : "",
                  M ? M->Note.c_str() : "not measured");
    }
  }
  std::printf("}}\n");
}

int main(int Argc, char **Argv) {
  Options Opt = parseArgs(Argc, Argv);
  Report R;
  Tracer T(Opt.Trace);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Opt.Workload.c_str(), (unsigned long long)Opt.Seed, Opt.Seconds,
              int(Opt.Trace));

  if (Opt.Workload == "warm-exec")
    runWarmExec(Opt, R, T);
  else if (Opt.Workload == "cold-start")
    runColdStart(Opt, R, T);
  else if (Opt.Workload == "fleet-open")
    runFleetOpen(Opt, R, T);
  else
    usage("unknown workload");

  R.metric("peak_rss_mb", peakRssMb(), "MB", "peak resident memory");

  if (Opt.Trace) {
    runLayerReplays(Opt, R, T, Opt.Workload == "fleet-open");
    std::printf("trace: %zu spans; self time by span:\n", T.size());
    for (const auto &[Name, Time] : T.selfTimes())
      std::printf("  span %-28s n=%-7llu total %10.3f ms  self %10.3f ms\n",
                  Name.c_str(), (unsigned long long)Time.Count, Time.TotalMs,
                  Time.SelfMs);
    if (!Opt.TraceOut.empty() && !T.write(Opt.TraceOut))
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   Opt.TraceOut.c_str());
  }

  R.printJson(Opt.Trace ? PerLayer : EndToEnd);
  return R.correct() ? 0 : 1;
}
