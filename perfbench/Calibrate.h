//===- perfbench/Calibrate.h - A fixed yardstick of host speed ------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed piece of host work, the yardstick, timed between measured runs
/// to tell how fast the host is running the benchmark at that moment. A
/// shared host's speed swings by tens of percent over minutes (other
/// tenants share its cores, caches and clock), which moves every timing
/// alike. Each workload scales its timings by nominal / measured yardstick
/// time, so they read as on a host of one fixed speed.
///
/// The yardstick is a small switch-dispatch bytecode interpreter over a
/// 32 KiB table: dispatch branches, dependent loads and stores, the same
/// kind of work as the guest runs it sits between. It uses none of the
/// project's code, so no change to the project moves it; only the host
/// does. It is timed on the wall clock, like the runs it scales.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERFBENCH_CALIBRATE_H
#define ILDP_PERFBENCH_CALIBRATE_H

#include "BenchMath.h"
#include "Trace.h"

#include <cstdint>
#include <vector>

namespace perfbench {

/// Runs the yardstick for \p Rounds rounds and returns its checksum, which
/// depends on every step so the compiler can drop none of them.
inline uint64_t yardstick(unsigned Rounds) {
  enum Op : uint8_t { Add, Xor, Load, Store, Shift, Branch, Mul, Halt };
  static const uint8_t Code[] = {Load,  Add,   Store, Xor, Branch, Load,
                                 Shift, Mul,   Store, Add, Load,   Xor,
                                 Branch, Store, Add,   Halt};
  constexpr uint32_t TableWords = 8192; // 32 KiB
  static uint32_t Table[TableWords];
  uint64_t A = 0x9E3779B97F4A7C15ull, B = 1, Sum = 0;
  for (uint32_t I = 0; I != TableWords; ++I)
    Table[I] = I * 2654435761u;
  for (unsigned Round = 0; Round != Rounds; ++Round) {
    for (unsigned Pc = 0;;) {
      switch (Code[Pc++]) {
      case Add:
        A += B + Round;
        break;
      case Xor:
        B ^= A >> 7;
        break;
      case Load:
        B += Table[(A >> 11) % TableWords];
        break;
      case Store:
        Table[(B >> 5) % TableWords] = uint32_t(A ^ B);
        break;
      case Shift:
        A = (A << 13) | (A >> 51);
        break;
      case Branch:
        if (B & 1)
          Pc += 1; // Skip the next instruction.
        break;
      case Mul:
        A *= 0xBF58476D1CE4E5B9ull;
        break;
      case Halt:
        Pc = sizeof(Code);
        break;
      }
      if (Pc >= sizeof(Code))
        break;
    }
    Sum += A ^ B;
  }
  return Sum;
}

/// Rounds per yardstick sample: about 2.5 ms on the host the benchmark
/// was written on.
constexpr unsigned YardstickRounds = 60000;

/// Yardstick time (ms) that scaled timings are quoted at: a round figure
/// within the 2.2-3.5 ms it took on that host (a 4-vCPU Xeon VM) as the
/// host's load varied.
constexpr double NominalYardstickMs = 2.5;

/// Samples the yardstick through one run and gives the factor that scales
/// the run's timings to the nominal host speed.
class HostSpeed {
public:
  /// A sample is \p Rounds rounds; its nominal time scales with them.
  explicit HostSpeed(unsigned Rounds = YardstickRounds)
      : Rounds(Rounds),
        NominalMs(NominalYardstickMs * Rounds / YardstickRounds) {}

  void sample(unsigned Times = 1) {
    for (unsigned I = 0; I != Times; ++I) {
      Clock::time_point Start = Clock::now();
      Sink = Sink + yardstick(Rounds);
      Ms.push_back(msSince(Start));
    }
  }

  /// Nominal / median sampled yardstick time. A duration times factor()
  /// is that duration on the nominal host; a rate divided by it, likewise.
  double factor() const { return factorSince(0); }
  /// The same over the samples from the \p First'th on.
  double factorSince(size_t First) const {
    return NominalMs /
           median(std::vector<double>(Ms.begin() + First, Ms.end()));
  }
  double medianMs() const { return median(Ms); }
  double nominalMs() const { return NominalMs; }
  size_t samples() const { return Ms.size(); }

private:
  unsigned Rounds;
  double NominalMs;
  std::vector<double> Ms;
  volatile uint64_t Sink = 0; ///< Keeps the yardstick's result alive.
};

} // namespace perfbench

#endif // ILDP_PERFBENCH_CALIBRATE_H
