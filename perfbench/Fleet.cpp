//===- perfbench/Fleet.cpp - fleet-open: open-loop load on the fleet ------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open loop: one thread sends seeded Poisson arrivals to an
/// ExecutionScheduler on schedule, whatever the fleet's state, and
/// collects the responses between sends. Each request is timed from the
/// moment it was due, so a late send or a growing queue shows as latency.
/// The load climbs a fixed ladder of absolute rates.
///
//===----------------------------------------------------------------------===//

#include "Fleet.h"

#include "serve/ExecutionScheduler.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <future>
#include <limits>
#include <thread>

using namespace ildp;
using namespace ildp::serve;
using namespace perfbench;

namespace {

/// The latency limit on a rung's p99 sojourn for fleet_max_rps.
constexpr double FleetLatencyLimitMs = 250;

/// Workers: at most one per hardware thread beyond the sending thread,
/// and at most 3, so the ladder's absolute rates mean the same load
/// everywhere.
unsigned fleetWorkers() {
  unsigned Hw = std::thread::hardware_concurrency();
  return std::clamp(Hw > 1 ? Hw - 1 : 1u, 1u, 3u);
}

const std::vector<FleetRung> &fleetLadder() {
  // Absolute offered rates (requests/s), set once from the capacity of the
  // code this benchmark was written against (3 workers, scale-1 programs)
  // and never recalibrated per run. The reference rung (about 70% of that
  // capacity) gets 60% of the measured time, the others share the rest.
  static const std::vector<FleetRung> Ladder = {
      {50, 0.08}, {65, 0.08}, {FleetReferenceRate, 0.6},
      {100, 0.08}, {120, 0.08}, {140, 0.08}};
  return Ladder;
}

/// The reference rung's median sojourn is taken per window of consecutive
/// arrivals, and the faster half of the windows is kept: other tenants of
/// a shared host slow the fleet in bursts of seconds, and a window they
/// hit only ever reads slower.
constexpr size_t FleetP50Windows = 8;

/// Yardstick rounds per sample on the sending thread (about 0.25 ms).
constexpr unsigned FleetYardstickRounds = YardstickRounds / 10;

double windowedP50(const std::vector<double> &InArrivalOrder) {
  const size_t N = InArrivalOrder.size();
  if (N < 10 * FleetP50Windows)
    return median(InArrivalOrder);
  std::vector<double> WindowMedians;
  for (size_t W = 0; W != FleetP50Windows; ++W)
    WindowMedians.push_back(
        median({InArrivalOrder.begin() + W * N / FleetP50Windows,
                InArrivalOrder.begin() + (W + 1) * N / FleetP50Windows}));
  return median(fasterHalf(WindowMedians));
}

struct Pending {
  size_t Index;
  std::future<ExecResponse> Future;
};

} // namespace

std::string perfbench::seedSharedStore(const std::vector<Program> &Progs,
                                       const std::string &Path, Report &R,
                                       Tracer &T) {
  std::remove(Path.c_str());
  vm::VmConfig Seed;
  Seed.PersistPath = Path;
  for (const Program &P : Progs) {
    RunOutcome O = vmRun(P, Seed, T);
    if (!O.Matches || !O.CountMatches)
      R.incorrect("store seeding run of %s differs from the interpreter",
                  P.Name.c_str());
  }
  return Path;
}

FleetConfig perfbench::fleetConfig(const std::string &StorePath) {
  FleetConfig C;
  C.Workers = fleetWorkers();
  C.StorePath = StorePath;
  return C;
}

FleetRun perfbench::runLadder(ExecutionScheduler &Sched,
                              const std::vector<Program> &Progs,
                              const std::vector<uint64_t> &Fingerprints,
                              const std::vector<FleetRung> &Rungs,
                              double Seconds, uint64_t Seed, Tracer &T,
                              HostSpeed *Speed) {
  FleetRun Run;
  SplitMix Rand(Seed);
  const double Workers = double(Sched.workerCount());
  for (size_t RungIdx = 0; RungIdx != Rungs.size(); ++RungIdx) {
    const FleetRung &Rung = Rungs[RungIdx];
    const double Dwell = Seconds * Rung.Share;
    std::vector<double> Offsets = poissonSchedule(Rung.Rate, Dwell, Rand);
    const size_t N = Offsets.size();
    const size_t Base = Run.Requests.size();
    Run.Requests.resize(Base + N);
    // Programs and lanes are drawn in shuffled blocks (each block of 12
    // requests runs every program once; each block of 10 is 2 interactive,
    // 6 normal, 2 batch), so the mix is the same for every seed and only
    // its order varies.
    static const Priority LaneBlock[10] = {
        Priority::Interactive, Priority::Interactive, Priority::Normal,
        Priority::Normal,      Priority::Normal,      Priority::Normal,
        Priority::Normal,      Priority::Normal,      Priority::Batch,
        Priority::Batch};
    std::vector<size_t> ProgOrder, LaneOrder;
    for (size_t I = 0; I != N; ++I) {
      if (I % Progs.size() == 0)
        ProgOrder = shuffledOrder(Progs.size(), Rand);
      if (I % 10 == 0)
        LaneOrder = shuffledOrder(10, Rand);
      RequestRecord &Q = Run.Requests[Base + I];
      Q.Rung = unsigned(RungIdx);
      Q.Program = ProgOrder[I % Progs.size()];
      Q.Lane = LaneBlock[LaneOrder[I % 10]];
    }

    const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    for (size_t I = 0; I != N; ++I)
      Run.Requests[Base + I].Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Offsets[I]));

    // One thread both sends and collects: it sends every request that is
    // due, polls every outstanding future (stamping each completion when
    // first seen ready), then sleeps until the next request is due or the
    // next poll, whichever comes first. A yardstick sample takes the place
    // of a sleep when the next send is far enough off.
    std::vector<Pending> Out;
    size_t Sent = 0, Done = 0;
    const Clock::time_point Mid =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Dwell / 2));
    const Clock::time_point End =
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Dwell));
    const Clock::time_point GiveUp = End + std::chrono::seconds(60);
    bool MidTaken = false, EndTaken = false;
    size_t AtMid = 0, AtEnd = 0;
    Clock::time_point NextSample = Start;
    while (Done != N) {
      for (; Sent != N && Run.Requests[Base + Sent].Due <= Clock::now();
           ++Sent) {
        RequestRecord &Q = Run.Requests[Base + Sent];
        Clock::time_point Now = Clock::now();
        Q.LateMs =
            std::chrono::duration<double, std::milli>(Now - Q.Due).count();
        ExecRequest Req;
        Req.ImageFingerprint = Fingerprints[Q.Program];
        Req.Lane = Q.Lane;
        Out.push_back({Sent, Sched.submit(std::move(Req))});
        Clock::time_point After = Clock::now();
        Q.SubmitUs =
            std::chrono::duration<double, std::micro>(After - Now).count();
        T.record("fleet.submit", Now, After, Base + Sent + 1);
      }
      for (size_t K = 0; K != Out.size();) {
        if (Out[K].Future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++K;
          continue;
        }
        RequestRecord &Q = Run.Requests[Base + Out[K].Index];
        Q.Done = Clock::now();
        Q.Resp = Out[K].Future.get();
        Q.Fulfilled = true;
        T.record("fleet.request", Q.Due, Q.Done, Base + Out[K].Index + 1);
        Out[K] = std::move(Out.back());
        Out.pop_back();
        ++Done;
      }
      Clock::time_point Now = Clock::now();
      if (!MidTaken && Now >= Mid) {
        MidTaken = true;
        AtMid = Out.size();
      }
      if (!EndTaken && Now >= End) {
        EndTaken = true;
        AtEnd = Out.size();
      }
      if (Now >= GiveUp && Sent == N)
        break; // Whatever is still outstanding counts as unfulfilled.
      if (Speed && Now >= NextSample &&
          (Sent == N || Run.Requests[Base + Sent].Due - Now >
                            std::chrono::milliseconds(1))) {
        Speed->sample();
        NextSample = Now + std::chrono::milliseconds(5);
        continue;
      }
      Clock::time_point Wake = Now + std::chrono::microseconds(200);
      if (Sent != N)
        Wake = std::min(Wake, Run.Requests[Base + Sent].Due);
      std::this_thread::sleep_until(Wake);
    }

    RungResult RR;
    RR.Rate = Rung.Rate;
    RR.Sent = N;
    std::vector<double> Sojourn;
    double BusyMs = 0;
    for (size_t I = 0; I != N; ++I) {
      const RequestRecord &Q = Run.Requests[Base + I];
      bool Ok = Q.Fulfilled && Q.Resp.ok();
      RR.Ok += Ok;
      RR.Refused += Q.Fulfilled && !Ok;
      RR.Unfulfilled += !Q.Fulfilled;
      Sojourn.push_back(Ok ? Q.sojournMs()
                           : std::numeric_limits<double>::infinity());
      if (Q.Fulfilled)
        BusyMs += Q.Resp.WallMicros / 1e3;
    }
    std::sort(Sojourn.begin(), Sojourn.end());
    RR.P50Ms = percentile(Sojourn, 50);
    RR.P99Ms = percentile(Sojourn, 99);
    // Growing backlog: over the rung's second half, more than a tenth of
    // that half's arrivals (and more than two per worker) piled up.
    double Grew = double(AtEnd) - double(AtMid);
    RR.Backlog = Grew > std::max(2 * Workers, 0.05 * double(N));
    RR.BusyRatio = Dwell > 0 ? BusyMs / (Workers * Dwell * 1e3) : 0;
    Run.Rungs.push_back(RR);
  }
  return Run;
}

void perfbench::checkAndReportFleet(const FleetRun &Run,
                                    const std::vector<Program> &Progs,
                                    size_t Ref, size_t CountThrough,
                                    ExecutionScheduler &Sched, Report &R) {
  std::array<uint64_t, NumExecStatuses> ByStatus{};
  uint64_t Unfulfilled = 0;
  std::vector<double> Submit, Late, Queue, Exec;
  for (const RequestRecord &Q : Run.Requests) {
    bool Failed = !Q.Fulfilled || !Q.Resp.ok();
    if (Q.Fulfilled) {
      ++ByStatus[size_t(Q.Resp.Status)];
    } else {
      ++Unfulfilled;
    }
    if (Q.Fulfilled && Q.Resp.ok()) {
      const Program &P = Progs[Q.Program];
      if (!(Q.Resp.Arch == P.RefArch) || Q.Resp.GuestInsts != P.RefInsts) {
        Failed = true;
        R.incorrect("fleet response for %s differs from the interpreter",
                    P.Name.c_str());
      }
      if (Q.Resp.Stats.get("dbt.cost.total") != 0)
        R.incorrect("warm fleet request for %s translated", P.Name.c_str());
    }
    if (Q.Rung <= CountThrough)
      R.attempt(Failed);
    Submit.push_back(Q.SubmitUs);
    Late.push_back(Q.LateMs);
    if (Q.Rung == Ref && Q.Fulfilled && Q.Resp.ok()) {
      double ExecMs = Q.Resp.WallMicros / 1e3;
      Exec.push_back(ExecMs);
      Queue.push_back(Q.sojournMs() - ExecMs);
    }
  }
  uint64_t Sum = Unfulfilled;
  for (uint64_t N : ByStatus)
    Sum += N;
  if (Unfulfilled != 0)
    R.incorrect("%llu fleet futures never fulfilled",
                (unsigned long long)Unfulfilled);
  if (Sum != Run.Requests.size())
    R.incorrect("fleet statuses sum to %llu, sent %zu",
                (unsigned long long)Sum, Run.Requests.size());

  std::sort(Late.begin(), Late.end());
  double LateP99 = percentile(Late, 99);
  double MaxLate = Late.empty() ? 0 : Late.back();
  // Flagged, not failed: lateness is already inside every sojourn.
  bool Behind = LateP99 > 5.0 || MaxLate > 50.0;
  R.info("fleet sends: lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms%s",
         percentile(Late, 50), LateP99, MaxLate,
         Behind ? "  ** FLAG: sending fell behind schedule **" : "");

  std::sort(Queue.begin(), Queue.end());
  std::sort(Exec.begin(), Exec.end());
  std::string AtRef = "at the reference rate, n=" + std::to_string(Exec.size());
  R.metric("serve.submit_us", median(Submit), "us",
           "median time in submit(), n=" + std::to_string(Submit.size()));
  R.metric("serve.queue_ms.p50", percentile(Queue, 50), "ms", AtRef);
  R.metric("serve.queue_ms.p99", percentile(Queue, 99), "ms", AtRef);
  R.metric("serve.exec_ms.p50", percentile(Exec, 50), "ms", AtRef);
  R.metric("serve.exec_ms.p99", percentile(Exec, 99), "ms", AtRef);
  R.metric("serve.busy_ratio", Run.Rungs[Ref].BusyRatio, "ratio", AtRef);
  R.metric("fleet.gen_late_ms", LateP99, "ms",
           "p99 send lateness, n=" + std::to_string(Late.size()));
  ildp::StatisticSet FS = Sched.fleet().stats();
  for (const char *Reason : {"queue-full", "tenant-quota", "deadline",
                             "shutdown"})
    R.metric(std::string("serve.rejected.") + Reason,
             double(FS.get(std::string("serve.rejected.") + Reason)),
             "count", "whole ladder");
}

void perfbench::runFleetOpen(const Options &Opt, Report &R, Tracer &T) {
  const std::vector<unsigned> Scales(workloads::workloadNames().size(), 1);
  std::vector<Program> Progs;
  std::vector<double> SetupS;
  std::unique_ptr<ExecutionScheduler> Sched;
  std::vector<uint64_t> Fps;
  std::string Store;
  HostSpeed SetupSpeed;
  for (unsigned Rep = 0; Rep != ShortSetupReps; ++Rep) {
    Sched.reset(); // The previous repetition's fleet; not part of set-up.
    SetupSpeed.sample(SetupYardstickSamples);
    Clock::time_point Start = Clock::now();
    Progs = buildPrograms(workloads::workloadNames(), Scales);
    Store = seedSharedStore(Progs, Opt.TmpDir + "/fleet-shared.tstore", R, T);
    Sched = std::make_unique<ExecutionScheduler>(fleetConfig(Store));
    if (!Sched->fleet().storeLoaded())
      R.incorrect("fleet store did not load");
    Fps.clear();
    for (const Program &P : Progs)
      Fps.push_back(Sched->fleet().registerImage(P.Image));
    SetupS.push_back(msSince(Start) / 1e3);
    SetupSpeed.sample(SetupYardstickSamples);
  }
  reportSetup(R, SetupS, SetupSpeed);

  // The yardstick is sampled by the sending thread all through the ladder,
  // in samples short enough to fit the gaps between sends and polls, so
  // that it sees the host as the workers do.
  HostSpeed Speed(FleetYardstickRounds);
  const std::vector<FleetRung> &Ladder = fleetLadder();
  size_t Ref = 0;
  while (Ladder[Ref].Rate != FleetReferenceRate)
    ++Ref;
  FleetRun Run = runLadder(*Sched, Progs, Fps, Ladder, Opt.Seconds, Opt.Seed,
                           T, &Speed);
  Sched->shutdown(/*FinishQueued=*/true);
  const double F = Speed.factor();
  reportHostSpeed(R, "the ladder", Speed);

  R.info("fleet-open: %u workers, latency limit %.0f ms on p99", 
         Sched->workerCount(), FleetLatencyLimitMs);
  R.info("  %8s %6s %6s %7s %10s %10s %8s %6s", "rate/s", "sent", "ok",
         "refused", "p50 ms", "p99 ms", "backlog", "busy");
  std::vector<Rung> Knee;
  for (const RungResult &RR : Run.Rungs) {
    R.info("  %8.1f %6zu %6zu %7zu %10.3f %10.3f %8s %6.3f", RR.Rate, RR.Sent,
           RR.Ok, RR.Refused + RR.Unfulfilled, RR.P50Ms, RR.P99Ms,
           RR.Backlog ? "growing" : "no", RR.BusyRatio);
    Knee.push_back({RR.Rate, RR.P99Ms, RR.Backlog});
  }

  std::vector<double> Sojourn;
  std::vector<std::vector<double>> ReqMips(Progs.size());
  for (const RequestRecord &Q : Run.Requests) {
    if (Q.Rung != Ref)
      continue;
    bool Ok = Q.Fulfilled && Q.Resp.ok();
    Sojourn.push_back(Ok ? Q.sojournMs()
                         : std::numeric_limits<double>::infinity());
    if (Ok && Q.Resp.WallMicros > 0)
      ReqMips[Q.Program].push_back(double(Q.Resp.GuestInsts) /
                                   Q.Resp.WallMicros);
  }
  std::vector<double> Mips;
  for (const std::vector<double> &M : ReqMips)
    if (!M.empty())
      Mips.push_back(median(M));

  // p98: the reference rung gets about 960 requests in 20 s, about 19 of
  // them beyond it.
  Summary S = summarize(Sojourn, 98);
  const double P50 = windowedP50(Sojourn) * F;
  // Latencies and rates below are at the nominal host speed; the per-rung
  // table above and the serve.* figures are as measured.
  R.info("fleet-open (this host, unscaled): median sojourn over the whole "
         "reference rung %.3f ms, n=%zu; served guest MIPS %.4f",
         S.Median, S.Count, geomean(Mips));
  const std::string P50Note =
      "median of the faster half of " + std::to_string(FleetP50Windows) +
      " consecutive windows' median sojourn at " +
      std::to_string(int(FleetReferenceRate)) + " req/s, n=" +
      std::to_string(S.Count);
  std::sort(Sojourn.begin(), Sojourn.end());
  size_t Beyond99 = samplesBeyond(Sojourn.size(), 99);
  R.metric("fleet_p50_ms", P50, "ms", P50Note);
  R.metric("fleet_p99_ms", percentile(Sojourn, 99) * F, "ms",
           std::to_string(Beyond99) + " samples beyond, n=" +
               std::to_string(Sojourn.size()));
  R.metric("fleet_max_rps", kneeRate(Knee, FleetLatencyLimitMs), "1/s",
           "highest ladder rate with p99 <= limit and no growing backlog");
  R.metric("guest_mips", geomean(Mips) / F, "MIPS",
           "geomean over " + std::to_string(Mips.size()) +
               " programs of the median served guest MIPS per request "
               "at the reference rate");
  R.metric("p50_ms", P50, "ms", P50Note);
  R.metric("tail_ms", S.Tail * F, "ms",
           "p" + pct(S.TailPct) + " sojourn at the reference "
           "rate, " + std::to_string(S.TailBeyond) + " samples beyond, n=" +
               std::to_string(S.Count));
  checkAndReportFleet(Run, Progs, Ref, Ref, *Sched, R);
  reportOkRatio(R, "requests at rungs up to the reference rate");
  Sched.reset();
  std::remove(Store.c_str());
}
