//===- perfbench/selftest.cpp - Checks of the benchmark's own maths -------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Self-contained checks (no project libraries) of BenchMath.h and
/// Calibrate.h: percentile with its tail sample count, the geomean, the
/// faster half of repeated timings, the host-speed yardstick, knee
/// detection for fleet_max_rps, and a Poisson schedule that repeats for
/// one seed. Exits nonzero on the first failed check; run.py runs it
/// before every measurement.
///
//===----------------------------------------------------------------------===//

#include "BenchMath.h"
#include "Calibrate.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "selftest FAILED: %s\n", What);
    ++Failures;
  }
}

bool near(double A, double B) {
  return std::fabs(A - B) <= 1e-9 * (1 + std::fabs(B));
}

void testPercentile() {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  check(percentile(V, 50) == 50, "p50 of 1..100 is 50");
  check(percentile(V, 99) == 99, "p99 of 1..100 is 99");
  check(percentile(V, 100) == 100, "p100 is the maximum");
  check(percentile(V, 0) == 1, "p0 is the minimum");
  check(samplesBeyond(100, 99) == 1, "one sample beyond p99 of 100");
  check(samplesBeyond(1000, 99) == 10, "ten samples beyond p99 of 1000");
  check(std::isnan(percentile({}, 50)), "empty percentile is NaN");

  // The tail is at the given percentile, with its samples beyond.
  std::vector<double> Shuffled;
  for (int I = 1000; I >= 1; --I)
    Shuffled.push_back(I);
  Summary S = summarize(Shuffled, 99);
  check(S.Count == 1000, "summary counts samples");
  check(S.Median == 500, "summary median of 1..1000");
  check(S.TailPct == 99 && S.Tail == 990 && S.TailBeyond == 10,
        "1000 samples: p99 with 10 beyond");
  std::vector<double> Small(100);
  for (int I = 0; I != 100; ++I)
    Small[I] = I + 1;
  S = summarize(Small, 90);
  check(S.TailPct == 90 && S.Tail == 90 && S.TailBeyond == 10,
        "100 samples: p90 with 10 beyond");
  S = summarize(Small, 98);
  check(S.Tail == 98 && S.TailBeyond == 2,
        "the tail stays at its percentile when fewer than 10 lie beyond");
  S = summarize({}, 90);
  check(S.Count == 0 && std::isnan(S.Median) && std::isnan(S.Tail),
        "nothing to summarize");
  std::vector<double> WithInf(100, 1.0);
  WithInf[99] = std::numeric_limits<double>::infinity();
  check(percentile([&] {
          auto C = WithInf;
          std::sort(C.begin(), C.end());
          return C;
        }(), 100) == std::numeric_limits<double>::infinity(),
        "refused requests (inf) sort last");
}

void testGeomean() {
  check(near(geomean({1, 100}), 10), "geomean(1,100) = 10");
  check(near(geomean({2, 8}), 4), "geomean(2,8) = 4");
  check(near(geomean({5}), 5), "geomean of one value");
  check(std::isnan(geomean({1, 0})), "geomean with a zero is NaN");
  check(std::isnan(geomean({})), "geomean of nothing is NaN");
}

void testFasterHalf() {
  std::vector<double> Half = fasterHalf({9, 1, 7, 3, 5});
  check(Half == std::vector<double>({1, 3, 5}), "faster half of 5 keeps 3");
  check(fasterHalf({4, 2, 8, 6}) == std::vector<double>({2, 4}),
        "faster half of 4 keeps 2");
  check(fasterHalf({7}) == std::vector<double>({7}), "one value is kept");
  check(fasterHalf({}).empty(), "nothing stays nothing");
}

void testYardstick() {
  check(yardstick(1000) == yardstick(1000), "the yardstick is deterministic");
  check(yardstick(1000) != yardstick(1001), "every round counts");
  HostSpeed Speed(YardstickRounds / 10);
  check(near(Speed.nominalMs(), NominalYardstickMs / 10),
        "nominal time scales with the rounds");
  Speed.sample(3);
  check(Speed.samples() == 3 && Speed.factor() > 0 &&
            std::isfinite(Speed.factor()),
        "sampled factor is positive");
  check(Speed.factorSince(2) > 0, "factor over the last sample");
}

void testKnee() {
  const double Inf = std::numeric_limits<double>::infinity();
  std::vector<Rung> AllPass = {{50, 10, false}, {100, 20, false}};
  check(kneeRate(AllPass, 250) == 100, "every rung passes: the top rate");
  std::vector<Rung> FirstFails = {{50, 300, false}, {100, 400, false}};
  check(kneeRate(FirstFails, 250) == 0, "first rung fails: 0");
  // Interpolated on log latency: 100 ms at 100/s, 1000 ms at 200/s, limit
  // 316.2 ms (the log midpoint) gives 150/s.
  std::vector<Rung> Mid = {{100, 100, false}, {200, 1000, false}};
  check(near(kneeRate(Mid, std::sqrt(100.0 * 1000.0)), 150),
        "knee interpolates on log latency");
  std::vector<Rung> Backlog = {{100, 100, false}, {200, 200, true}};
  check(kneeRate(Backlog, 250) == 100,
        "a growing backlog fails a rung within the limit, no interpolation");
  std::vector<Rung> Refused = {{100, 100, false}, {200, Inf, false}};
  check(kneeRate(Refused, 250) == 100,
        "refusals (infinite tail) fail without interpolation");
  std::vector<Rung> Dip = {{50, 10, false}, {100, 900, false},
                           {150, 20, false}};
  check(kneeRate(Dip, 250) < 100, "the scan stops at the first failing rung");
}

void testPoisson() {
  SplitMix A(42), B(42), C(43);
  std::vector<double> SA = poissonSchedule(100, 10, A);
  std::vector<double> SB = poissonSchedule(100, 10, B);
  std::vector<double> SC = poissonSchedule(100, 10, C);
  check(SA == SB, "same seed, same schedule");
  check(SA != SC, "another seed, another schedule");
  check(SA.size() > 900 && SA.size() < 1100,
        "about rate x seconds arrivals");
  bool Sorted = true, InRange = true;
  for (size_t I = 0; I != SA.size(); ++I) {
    Sorted &= I == 0 || SA[I] >= SA[I - 1];
    InRange &= SA[I] >= 0 && SA[I] < 10;
  }
  check(Sorted && InRange, "arrivals ascend within the window");
  // Exponential gaps: the coefficient of variation is about 1.
  double Mean = 0, Sq = 0;
  for (size_t I = 1; I != SA.size(); ++I)
    Mean += SA[I] - SA[I - 1];
  Mean /= double(SA.size() - 1);
  for (size_t I = 1; I != SA.size(); ++I)
    Sq += std::pow(SA[I] - SA[I - 1] - Mean, 2);
  double Cv = std::sqrt(Sq / double(SA.size() - 2)) / Mean;
  check(Cv > 0.85 && Cv < 1.15, "inter-arrival gaps are exponential");
  SplitMix D(7), E(7);
  check(shuffledOrder(12, D) == shuffledOrder(12, E),
        "same seed, same program order");
  check(poissonSchedule(0, 10, D).empty(), "rate 0 sends nothing");
}

} // namespace

int main() {
  testPercentile();
  testGeomean();
  testFasterHalf();
  testYardstick();
  testKnee();
  testPoisson();
  if (Failures) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", Failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
