//===- perfbench/Bench.h - Shared benchmark state -------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads and the layer replays share: the guest
/// programs with their interpreter reference results, the result report,
/// and the command-line options.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERFBENCH_BENCH_H
#define ILDP_PERFBENCH_BENCH_H

#include "BenchMath.h"
#include "Calibrate.h"
#include "Trace.h"

#include "interp/ArchState.h"
#include "serve/ExecRequest.h"
#include "support/Statistics.h"
#include "vm/VirtualMachine.h"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Per-run scratch directory for stores and temporary files.
  std::string TmpDir;
  /// Where the traced run writes its spans (JSON lines).
  std::string TraceOut;
};

/// One guest program at a fixed scale, with the interpreter's result.
struct Program {
  std::string Name;
  unsigned Scale = 1;
  ildp::serve::GuestImage Image;
  ildp::ArchState RefArch;
  uint64_t RefInsts = 0;
};

/// Builds \p Names at the given scales and runs each once through the
/// interpreter to fix its reference result.
std::vector<Program> buildPrograms(const std::vector<std::string> &Names,
                                   const std::vector<unsigned> &Scales);

/// Outcome of one guest run, checked against its program's reference.
struct RunOutcome {
  double WallMs = 0;
  uint64_t GuestInsts = 0;
  bool Halted = false;
  bool Matches = false;      ///< Final architected state equals the
                             ///< interpreter reference.
  bool CountMatches = false; ///< Guest instruction count equals it too.
  ildp::StatisticSet Stats;
};

/// Runs \p P on a fresh interpreter; the timed region is Interpreter::run.
RunOutcome interpRun(const Program &P, Tracer &T);

/// Runs \p P on a fresh VM. The timed region covers construction (store
/// import), run() and destruction (the exit save, which waits for
/// in-flight host compiles).
RunOutcome vmRun(const Program &P, const ildp::vm::VmConfig &Config,
                 Tracer &T);

/// Collects metrics, failures and diagnostics, and prints the result.
class Report {
public:
  struct Metric {
    std::string Name;
    double Value = 0;
    std::string Unit;
    bool Available = true;
    std::string Note;
  };

  /// Prints a human-readable line and keeps the metric for the JSON.
  void metric(const std::string &Name, double Value, const std::string &Unit,
              const std::string &Note = "");
  void unavailable(const std::string &Name, const std::string &Unit,
                   const std::string &Why);
  /// Human-readable line only (per-program rows, issue-named figures).
  void info(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));

  /// Counts one attempted run or request; \p Failed when it trapped,
  /// crashed, was refused, went unfulfilled or mismatched.
  void attempt(bool Failed) {
    ++Attempted;
    Failed ? ++FailedCount : 0;
  }
  /// A result differed from the interpreter reference, or an exact-count
  /// invariant broke: the run is incorrect and the command exits nonzero.
  void incorrect(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  bool correct() const { return Correct; }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return FailedCount; }

  /// Prints the final JSON line with the metrics named in \p Keep.
  void printJson(const std::vector<std::string> &Keep) const;
  const Metric *find(const std::string &Name) const;

private:
  std::vector<Metric> Metrics;
  uint64_t Attempted = 0;
  uint64_t FailedCount = 0;
  bool Correct = true;
};

/// A percentile's name without trailing zeros ("99", "99.5").
inline std::string pct(double P) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%g", P);
  return Buf;
}

/// Host-compile workers of every native-tier VM the benchmark runs: one per
/// hardware thread beside the VM's on a 4-way host, so the compiles of a
/// cold start overlap instead of queueing behind one another.
constexpr unsigned NativeCompileWorkers = 3;

/// The native tier with NativeCompileWorkers, otherwise default settings.
ildp::vm::VmConfig nativeConfig();

/// The reference-result gate: a final architected state that differs from
/// the interpreter's fails the run and the command. The guest instruction
/// count must also equal the interpreter's exactly when \p CountExact; runs
/// under a code-cache budget check it for repeatability instead (see
/// runColdStart).
void checkRun(Report &R, const Program &P, const char *What,
              const RunOutcome &O, bool CountExact = true);

/// Converges \p Store for \p P: save-runs until one performs zero host
/// compilations. Six rounds without convergence is a product bug.
void convergeNative(const Program &P, const std::string &Store, Report &R,
                    Tracer &T);

/// Prints the yardstick figures of \p Speed, sampled during \p Of.
void reportHostSpeed(Report &R, const char *Of, const HostSpeed &Speed);

/// Reports setup_s, the median of the set-up repetitions, scaled to the
/// nominal host by \p Speed, sampled during set-up.
void reportSetup(Report &R, const std::vector<double> &Seconds,
                 const HostSpeed &Speed);

/// Yardstick samples taken before and after each set-up repetition.
constexpr unsigned SetupYardstickSamples = 4;

/// Prints fail_ratio over the attempts counted so far and reports its
/// complement ok_ratio (a benchmark metric may never read 0).
void reportOkRatio(Report &R, const char *Over);

/// Peak resident set size of this process, in MiB.
double peakRssMb();

/// Set-up repetitions: set-up is repeated and its median reported, so that
/// work moved into set-up shows as a stable number. warm-exec's set-up
/// takes seconds; the others' a fraction of one, so they repeat it more.
constexpr unsigned SetupReps = 3;
constexpr unsigned ShortSetupReps = 9;

/// cold-start phase A's per-tenant code-cache budget, in body bytes: a
/// fixed absolute number chosen so that gcc, perlbmk, vortex and parser
/// overflow it while gzip, mcf and twolf fit. Not derived from the current
/// translator's footprint, so a change that shrinks or grows fragments
/// shows as fewer or more evictions.
constexpr uint64_t ColdBudgetBytes = 200;

/// The workloads (Workloads.cpp) and the layer replays (Layers.cpp).
void runWarmExec(const Options &Opt, Report &R, Tracer &T);
void runColdStart(const Options &Opt, Report &R, Tracer &T);
void runFleetOpen(const Options &Opt, Report &R, Tracer &T);
void runLayerReplays(const Options &Opt, Report &R, Tracer &T,
                     bool FleetMeasured);

} // namespace perfbench

#endif // ILDP_PERFBENCH_BENCH_H
