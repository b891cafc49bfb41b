//===- perfbench/Fleet.h - Open-loop fleet driver -------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERFBENCH_FLEET_H
#define ILDP_PERFBENCH_FLEET_H

#include "Bench.h"

#include "serve/ExecutionScheduler.h"

namespace perfbench {

/// The ladder's reference rate (requests/s): about 70% of the capacity of
/// the code this benchmark was written against, 100-145 requests/s on a
/// shared 4-vCPU x86 host whose speed swings with its neighbours' load
/// (set at the slow end, so a slow spell does not push the reference rung
/// past saturation).
constexpr double FleetReferenceRate = 80;

struct FleetRung {
  double Rate = 0;  ///< Offered requests per second.
  double Share = 0; ///< Share of the measured seconds spent on this rung.
};

/// Seeds one store with every program's default-config cold run.
std::string seedSharedStore(const std::vector<Program> &Progs,
                            const std::string &Path, Report &R, Tracer &T);
/// The fleet under test: default I-ISA BaseVm, warm from \p StorePath.
ildp::serve::FleetConfig fleetConfig(const std::string &StorePath);

struct RequestRecord {
  unsigned Rung = 0;
  size_t Program = 0;
  ildp::serve::Priority Lane = ildp::serve::Priority::Normal;
  Clock::time_point Due{};
  Clock::time_point Done{};
  double LateMs = 0;   ///< How late it was sent.
  double SubmitUs = 0; ///< Time inside ExecutionScheduler::submit.
  bool Fulfilled = false;
  ildp::serve::ExecResponse Resp;
  double sojournMs() const {
    return std::chrono::duration<double, std::milli>(Done - Due).count();
  }
};

struct RungResult {
  double Rate = 0;
  size_t Sent = 0, Ok = 0, Refused = 0, Unfulfilled = 0;
  double P50Ms = 0, P99Ms = 0; ///< Refused/unfulfilled count as infinite.
  bool Backlog = false;
  double BusyRatio = 0;
};

struct FleetRun {
  std::vector<RequestRecord> Requests;
  std::vector<RungResult> Rungs;
};

/// Drives \p Sched through \p Rungs, spending Share * \p Seconds on each.
/// With \p Speed, the sending thread samples the yardstick in the gaps
/// between sends, at most every 5 ms.
FleetRun runLadder(ildp::serve::ExecutionScheduler &Sched,
                   const std::vector<Program> &Progs,
                   const std::vector<uint64_t> &Fingerprints,
                   const std::vector<FleetRung> &Rungs, double Seconds,
                   uint64_t Seed, Tracer &T, HostSpeed *Speed = nullptr);

/// Checks every response of \p Run against the references, counts the
/// attempts of rungs up to \p CountThrough in \p R, and reports the serve
/// layer metrics of rung \p Ref.
void checkAndReportFleet(const FleetRun &Run,
                         const std::vector<Program> &Progs, size_t Ref,
                         size_t CountThrough,
                         ildp::serve::ExecutionScheduler &Sched, Report &R);

} // namespace perfbench

#endif // ILDP_PERFBENCH_FLEET_H
