//===- perfbench/BenchMath.h - Benchmark statistics and schedules ---------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's own maths, kept free of project dependencies so the
/// self-test can check it in isolation: percentiles reported together with
/// the number of samples beyond them, geometric means, the open-loop
/// Poisson arrival schedule, and the knee of a latency-vs-rate ladder.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERFBENCH_BENCHMATH_H
#define ILDP_PERFBENCH_BENCHMATH_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p P (0..100) of \p Sorted (ascending).
inline double percentile(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return std::numeric_limits<double>::quiet_NaN();
  size_t Rank = size_t(std::ceil(P / 100.0 * double(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

/// Samples strictly after the nearest-rank position of percentile \p P.
inline size_t samplesBeyond(size_t N, double P) {
  size_t Rank = size_t(std::ceil(P / 100.0 * double(N)));
  Rank = std::clamp<size_t>(Rank, 1, N ? N : 1);
  return N > Rank ? N - Rank : 0;
}

/// A timing distribution as the benchmark reports it: the median, a tail
/// percentile, the samples beyond that percentile, and the sample count.
struct Summary {
  size_t Count = 0;
  double Median = std::numeric_limits<double>::quiet_NaN();
  double TailPct = 0;
  double Tail = std::numeric_limits<double>::quiet_NaN();
  size_t TailBeyond = 0; ///< Samples beyond the tail percentile.
};

/// Summarizes \p Values with the tail at percentile \p TailPct. Each
/// workload fixes its tail percentile as the highest that keeps at least
/// ten samples beyond it at the benchmark's run length even on a slow
/// host; choosing it per run from the sample count instead would make the
/// tail jump between percentiles as the count varies from run to run.
inline Summary summarize(std::vector<double> Values, double TailPct) {
  Summary S;
  S.Count = Values.size();
  S.TailPct = TailPct;
  if (Values.empty())
    return S;
  std::sort(Values.begin(), Values.end());
  S.Median = percentile(Values, 50);
  S.Tail = percentile(Values, TailPct);
  S.TailBeyond = samplesBeyond(Values.size(), TailPct);
  return S;
}

inline double median(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  return percentile(Values, 50);
}

/// The faster half of repeated timings of one piece of work: the smallest
/// ceil(n/2) values, sorted. Interference from the rest of the host only
/// ever makes a run slower, so keeping the faster half of each program's
/// runs drops the runs it hit without moving a steady figure.
inline std::vector<double> fasterHalf(std::vector<double> Values) {
  std::sort(Values.begin(), Values.end());
  Values.resize((Values.size() + 1) / 2);
  return Values;
}

/// Geometric mean of positive values; NaN if any value is not positive.
inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0;
  for (double V : Values) {
    if (!(V > 0))
      return std::numeric_limits<double>::quiet_NaN();
    LogSum += std::log(V);
  }
  return std::exp(LogSum / double(Values.size()));
}

/// splitmix64: the benchmark's only random source, so a seed fixes every
/// generated input on every platform.
class SplitMix {
public:
  explicit SplitMix(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

/// Fisher-Yates shuffle of 0..N-1 driven by \p Rand.
inline std::vector<size_t> shuffledOrder(size_t N, SplitMix &Rand) {
  std::vector<size_t> Order(N);
  for (size_t I = 0; I != N; ++I)
    Order[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(Order[I - 1], Order[Rand.below(I)]);
  return Order;
}

/// Send offsets (seconds from the start) of a Poisson process of rate
/// \p RatePerSec over \p Seconds: exponential inter-arrival gaps.
inline std::vector<double> poissonSchedule(double RatePerSec, double Seconds,
                                           SplitMix &Rand) {
  std::vector<double> Times;
  if (!(RatePerSec > 0))
    return Times;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - Rand.unit()) / RatePerSec;
    if (T >= Seconds)
      return Times;
    Times.push_back(T);
  }
}

/// One rung of an open-loop rate ladder.
struct Rung {
  double Rate = 0;      ///< Offered requests per second.
  double TailMs = 0;    ///< p99 sojourn; refused requests count as +inf.
  bool Backlog = false; ///< The queue was still growing at the rung's end.
};

/// The highest rate at which the tail stays within \p LimitMs with no
/// growing backlog, scanning rungs in ascending rate order and stopping at
/// the first rung that fails. Between the last passing rung and the first
/// failing one the knee is interpolated on log(latency), so one slow run
/// moves the result by a fraction of a rung instead of a whole rung. A
/// failing rung with unbounded latency (refusals, backlog) contributes no
/// interpolation. Returns 0 when even the first rung fails.
inline double kneeRate(const std::vector<Rung> &Rungs, double LimitMs) {
  double Best = 0;
  for (size_t I = 0; I != Rungs.size(); ++I) {
    const Rung &R = Rungs[I];
    bool Pass = !R.Backlog && R.TailMs <= LimitMs;
    if (Pass) {
      Best = R.Rate;
      continue;
    }
    if (I == 0 || R.Backlog || !std::isfinite(R.TailMs))
      return Best;
    const Rung &Prev = Rungs[I - 1];
    double Lo = std::log(std::max(Prev.TailMs, 1e-9));
    double Hi = std::log(R.TailMs);
    double Frac = Hi > Lo ? (std::log(LimitMs) - Lo) / (Hi - Lo) : 0;
    Frac = std::clamp(Frac, 0.0, 1.0);
    return Prev.Rate + Frac * (R.Rate - Prev.Rate);
  }
  return Best;
}

} // namespace perfbench

#endif // ILDP_PERFBENCH_BENCHMATH_H
