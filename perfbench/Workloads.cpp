//===- perfbench/Workloads.cpp - warm-exec and cold-start -----------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two closed-loop workloads. warm-exec times steady-state execution
/// in each tier with every translation and host compile done in set-up;
/// cold-start times the first run of every program with no store, where
/// recording, translation, eviction, host compiles and the store's write
/// side do the work.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "native/NativeCompiler.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <map>

using namespace ildp;
using namespace perfbench;

namespace {

/// warm-exec scales, fixed per program so that every interpreter run lasts
/// roughly 100 ms or more on a 2020s x86 core. Written here once; changing
/// them changes the workload.
const std::map<std::string, unsigned> WarmScales = {
    {"bzip2", 4},   {"crafty", 2}, {"eon", 8},      {"gap", 12},
    {"gcc", 10},    {"gzip", 32},  {"mcf", 10},     {"parser", 12},
    {"perlbmk", 10}, {"twolf", 12}, {"vortex", 12}, {"vpr", 16}};

const char *const TierNames[] = {"interp", "iisa", "native"};

std::string storePath(const Options &Opt, const std::string &Stem) {
  return Opt.TmpDir + "/" + Stem + ".tstore";
}

void reportTiming(Report &R, const std::vector<double> &Ms,
                  const std::string &Of, double TailPct) {
  Summary S = summarize(Ms, TailPct);
  R.metric("p50_ms", S.Median, "ms",
           "median " + Of + ", n=" + std::to_string(S.Count));
  R.metric("tail_ms", S.Tail, "ms",
           "p" + pct(S.TailPct) + " of " + Of + ", " +
               std::to_string(S.TailBeyond) + " samples beyond, n=" +
               std::to_string(S.Count));
}

} // namespace

void perfbench::runWarmExec(const Options &Opt, Report &R, Tracer &T) {
  const bool Toolchain = native::hostCompiler().found();
  std::vector<unsigned> Scales;
  for (const std::string &N : workloads::workloadNames())
    Scales.push_back(WarmScales.at(N));

  // Set-up: reference results, the I-ISA store seeded by one cold run per
  // program, and the native store converged to zero compiles.
  HostSpeed SetupSpeed;
  std::vector<Program> Progs;
  std::vector<double> SetupS;
  std::string IisaStore, NativeStore;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    SetupSpeed.sample(SetupYardstickSamples);
    Clock::time_point Start = Clock::now();
    Progs = buildPrograms(workloads::workloadNames(), Scales);
    IisaStore = storePath(Opt, "warm-iisa-" + std::to_string(Rep));
    NativeStore = storePath(Opt, "warm-native-" + std::to_string(Rep));
    vm::VmConfig Seed;
    Seed.PersistPath = IisaStore;
    for (const Program &P : Progs)
      checkRun(R, P, "iisa set-up run", vmRun(P, Seed, T));
    if (Toolchain)
      for (const Program &P : Progs)
        convergeNative(P, NativeStore, R, T);
    SetupS.push_back(msSince(Start) / 1e3);
    SetupSpeed.sample(SetupYardstickSamples);
    if (Rep + 1 != SetupReps) {
      std::remove(IisaStore.c_str());
      std::remove(NativeStore.c_str());
    }
  }
  reportSetup(R, SetupS, SetupSpeed);

  vm::VmConfig Iisa;
  Iisa.PersistPath = IisaStore;
  Iisa.PersistSave = false;
  vm::VmConfig Nat = nativeConfig();
  Nat.PersistPath = NativeStore;
  Nat.PersistSave = false;

  // Measurement: whole passes over the programs in a seeded order, each
  // program in all three tiers after one yardstick sample, until the time
  // is up. Each pass's times are scaled by that pass's samples.
  HostSpeed Speed;
  SplitMix Rand(Opt.Seed);
  const size_t N = Progs.size();
  // Per program and tier, the scaled wall time of every pass.
  std::vector<std::array<std::vector<double>, 3>> WallMs(N);
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opt.Seconds));
  unsigned Passes = 0;
  bool TimeUp = false;
  while (!TimeUp) {
    const size_t PassStart = Speed.samples();
    std::array<std::vector<double>, 3> PassMs;
    PassMs.fill(std::vector<double>(N));
    for (size_t I : shuffledOrder(N, Rand)) {
      const Program &P = Progs[I];
      Speed.sample();
      RunOutcome Out[3];
      Out[0] = interpRun(P, T);
      Out[1] = vmRun(P, Iisa, T);
      if (Toolchain)
        Out[2] = vmRun(P, Nat, T);
      for (unsigned Tier = 0; Tier != (Toolchain ? 3u : 2u); ++Tier) {
        checkRun(R, P, TierNames[Tier], Out[Tier]);
        PassMs[Tier][I] = Out[Tier].WallMs;
      }
      // Exact-count invariants of a warm run.
      for (unsigned Tier = 1; Tier != (Toolchain ? 3u : 2u); ++Tier)
        if (Out[Tier].Stats.get("dbt.cost.total") != 0)
          R.incorrect("warm %s run of %s translated (dbt.cost.total=%llu)",
                      TierNames[Tier], P.Name.c_str(),
                      (unsigned long long)Out[Tier].Stats.get(
                          "dbt.cost.total"));
      if (Toolchain && (Out[2].Stats.get("native.compiles") != 0 ||
                        Out[2].Stats.get("native.runs") == 0))
        R.incorrect("warm native run of %s: compiles=%llu runs=%llu",
                    P.Name.c_str(),
                    (unsigned long long)Out[2].Stats.get("native.compiles"),
                    (unsigned long long)Out[2].Stats.get("native.runs"));
      if (Clock::now() >= Deadline && Passes > 0)
        TimeUp = true;
    }
    const double PassFactor = Speed.factorSince(PassStart);
    for (size_t I = 0; I != N; ++I)
      for (unsigned Tier = 0; Tier != (Toolchain ? 3u : 2u); ++Tier)
        WallMs[I][Tier].push_back(PassMs[Tier][I] * PassFactor);
    ++Passes;
    if (Clock::now() >= Deadline)
      TimeUp = true;
  }
  std::remove(IisaStore.c_str());
  std::remove(NativeStore.c_str());

  // Every figure below is scaled to the nominal host. The MIPS figures keep
  // the faster half of each program x tier cell's passes: other tenants of
  // a shared host only ever slow a run down.
  reportHostSpeed(R, "the passes", Speed);
  R.info("warm-exec: %u passes; per-program guest MIPS (nominal host, "
         "median of the faster half of the passes):",
         Passes);
  R.info("  %-8s %5s %12s %10s %10s %10s", "program", "scale", "insts",
         "interp", "iisa", "native");
  std::array<std::vector<double>, 3> TierMips;
  std::vector<double> AllMips, AllMs;
  for (size_t I = 0; I != N; ++I) {
    double M[3] = {0, 0, 0};
    for (unsigned Tier = 0; Tier != (Toolchain ? 3u : 2u); ++Tier) {
      const std::vector<double> &Ms = WallMs[I][Tier];
      AllMs.insert(AllMs.end(), Ms.begin(), Ms.end());
      M[Tier] =
          double(Progs[I].RefInsts) / (median(fasterHalf(Ms)) * 1e3);
      TierMips[Tier].push_back(M[Tier]);
      AllMips.push_back(M[Tier]);
    }
    R.info("  %-8s %5u %12llu %10.2f %10.2f %10.2f", Progs[I].Name.c_str(),
           Progs[I].Scale, (unsigned long long)Progs[I].RefInsts, M[0], M[1],
           M[2]);
  }
  std::string Count = "geomean of 12 programs, faster half of " +
                      std::to_string(Passes) + " passes each";
  R.metric("interp_mips", geomean(TierMips[0]), "MIPS", Count);
  R.metric("iisa_mips", geomean(TierMips[1]), "MIPS", Count);
  if (Toolchain)
    R.metric("native_mips", geomean(TierMips[2]), "MIPS", Count);
  else
    R.unavailable("native_mips", "MIPS",
                  "no host C compiler (native.no_toolchain)");
  R.metric("guest_mips", geomean(AllMips), "MIPS",
           "geomean over " + std::to_string(AllMips.size()) +
               " program x tier cells, faster half of the passes");
  // p90: a slow host still makes three passes of 36 runs in 20 s, which
  // leaves ten runs beyond it.
  reportTiming(R, AllMs, "wall time of a run", 90);
  reportOkRatio(R, "runs");
}

void perfbench::runColdStart(const Options &Opt, Report &R, Tracer &T) {
  const bool Toolchain = native::hostCompiler().found();
  const std::vector<unsigned> Scales(workloads::workloadNames().size(), 1);

  std::vector<Program> Progs;
  std::vector<double> SetupS;
  HostSpeed SetupSpeed;
  for (unsigned Rep = 0; Rep != ShortSetupReps; ++Rep) {
    SetupSpeed.sample(SetupYardstickSamples);
    Clock::time_point Start = Clock::now();
    Progs = buildPrograms(workloads::workloadNames(), Scales);
    SetupS.push_back(msSince(Start) / 1e3);
    SetupSpeed.sample(SetupYardstickSamples);
  }
  reportSetup(R, SetupS, SetupSpeed);

  vm::VmConfig PhaseA;
  PhaseA.CodeCacheBytes = ColdBudgetBytes;

  HostSpeed Speed;
  SplitMix Rand(Opt.Seed);
  const size_t N = Progs.size();
  // Per program, the wall time of every pass: [0] phase A, [1] phase B.
  // PassFactor scales a pass's times to the nominal host.
  std::vector<std::array<std::vector<double>, 2>> WallMs(N);
  std::vector<double> SumA, SumB, PassFactor;
  std::vector<uint64_t> Evictions(N, 0), Insts(N, 0);
  uint64_t Translations = 0, Evicted = 0, Retranslated = 0;
  uint64_t Compiles = 0, Dropped = 0;
  Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opt.Seconds));
  unsigned Passes = 0;
  do {
    std::vector<size_t> Order = shuffledOrder(N, Rand);
    const size_t PassStart = Speed.samples();
    double A = 0, B = 0;
    for (size_t I : Order) {
      const Program &P = Progs[I];
      Speed.sample();
      RunOutcome O = vmRun(P, PhaseA, T);
      checkRun(R, P, "cold iisa", O, /*CountExact=*/false);
      A += O.WallMs;
      WallMs[I][0].push_back(O.WallMs);
      // Exact counts that must repeat from pass to pass.
      uint64_t Ev = O.Stats.get("cache.evictions");
      if (Passes != 0 && (Evictions[I] != Ev || Insts[I] != O.GuestInsts))
        R.incorrect("cold iisa %s: evictions %llu, insts %llu; earlier pass "
                    "%llu, %llu",
                    P.Name.c_str(), (unsigned long long)Ev,
                    (unsigned long long)O.GuestInsts,
                    (unsigned long long)Evictions[I],
                    (unsigned long long)Insts[I]);
      Evictions[I] = Ev;
      Insts[I] = O.GuestInsts;
      Translations += O.Stats.get("dbt.fragments");
      Evicted += Ev;
      Retranslated += O.Stats.get("cache.retranslations");
    }
    if (Toolchain) {
      for (size_t I : Order) {
        const Program &P = Progs[I];
        vm::VmConfig PhaseB = nativeConfig();
        PhaseB.PersistPath = storePath(Opt, "cold-native-" + P.Name);
        std::remove(PhaseB.PersistPath.c_str());
        RunOutcome O = vmRun(P, PhaseB, T);
        std::remove(PhaseB.PersistPath.c_str());
        checkRun(R, P, "cold native", O);
        B += O.WallMs;
        WallMs[I][1].push_back(O.WallMs);
        Compiles += O.Stats.get("native.compiles");
        Dropped += O.Stats.get("native.pending_drops");
      }
    }
    SumA.push_back(A / 1e3);
    SumB.push_back(B / 1e3);
    PassFactor.push_back(Speed.factorSince(PassStart));
    ++Passes;
  } while (Clock::now() < Deadline);

  // As in warm-exec, every figure is scaled to the nominal host and the
  // MIPS and phase figures keep the faster half of the passes.
  auto Scaled = [&](std::vector<double> PerPass) {
    for (size_t K = 0; K != PerPass.size(); ++K)
      PerPass[K] *= PassFactor[K];
    return PerPass;
  };
  reportHostSpeed(R, "the passes", Speed);
  R.info("cold-start: %u passes, budget %llu bytes; per-program guest MIPS "
         "(nominal host, median of the faster half of the passes):",
         Passes, (unsigned long long)ColdBudgetBytes);
  R.info("  %-8s %12s %12s %10s %10s %10s", "program", "insts",
         "phase A insts", "evictions", "iisa-A", "native-B");
  std::vector<double> AllMips, AllA;
  for (size_t I = 0; I != N; ++I) {
    const std::vector<double> A = Scaled(WallMs[I][0]);
    AllA.insert(AllA.end(), A.begin(), A.end());
    double M[2] = {double(Insts[I]) / (median(fasterHalf(A)) * 1e3), 0};
    AllMips.push_back(M[0]);
    if (Toolchain) {
      M[1] = double(Progs[I].RefInsts) /
             (median(fasterHalf(Scaled(WallMs[I][1]))) * 1e3);
      AllMips.push_back(M[1]);
    }
    R.info("  %-8s %12llu %12llu %10llu %10.2f %10.2f%s",
           Progs[I].Name.c_str(), (unsigned long long)Progs[I].RefInsts,
           (unsigned long long)Insts[I], (unsigned long long)Evictions[I],
           M[0], M[1],
           Insts[I] != Progs[I].RefInsts
               ? "  ** guest-inst count differs from the interpreter **"
               : "");
  }
  std::string Count =
      "median of the faster half of " + std::to_string(Passes) + " passes";
  R.metric("cold_iisa_s", median(fasterHalf(Scaled(SumA))), "s", Count);
  if (Toolchain)
    R.metric("cold_native_s", median(fasterHalf(Scaled(SumB))), "s", Count);
  else
    R.unavailable("cold_native_s", "s",
                  "no host C compiler (native.no_toolchain)");
  R.metric("guest_mips", geomean(AllMips), "MIPS",
           "geomean over " + std::to_string(AllMips.size()) +
               " program x phase cells, faster half of the passes");
  // Phase A runs only: phase B's wall time is mostly host-compiler
  // processes, whose speed on a shared host swings too far for a bounded
  // latency figure; phase B counts through guest_mips and cold_native_s.
  // p75: a slow host still makes five passes of 12 phase A runs in 20 s,
  // which leaves fifteen runs beyond it.
  reportTiming(R, AllA, "wall time of a phase A cold run", 75);
  reportOkRatio(R, "runs");

  // Layer counts from this workload's own runs (per pass).
  double PerPass = double(Passes);
  R.metric("core.translations", double(Translations) / PerPass, "count",
           "phase A fragments translated per pass");
  R.metric("core.evictions", double(Evicted) / PerPass, "count",
           "phase A evictions per pass (repeatable)");
  R.metric("core.retranslate_ratio",
           Translations ? double(Retranslated) / double(Translations) : 0,
           "ratio", "re-translations of evicted entries / translations");
  if (Toolchain) {
    R.metric("native.compiles", double(Compiles) / PerPass, "count",
             "phase B host compiles per pass");
    R.metric("native.dropped", double(Dropped) / PerPass, "count",
             "phase B compiles whose fragment was gone per pass");
  }
}
