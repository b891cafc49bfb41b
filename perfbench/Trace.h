//===- perfbench/Trace.h - In-memory span recorder ------------------------===//
//
// Part of the ILDP-DBT project (CGO 2003 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each layer: name,
/// start, end, parent span and request id. Spans stay in memory and are
/// written out once, at exit. When tracing is off a scope costs one
/// branch, so the untraced run measures the system, not the recorder.
///
//===----------------------------------------------------------------------===//

#ifndef ILDP_PERFBENCH_TRACE_H
#define ILDP_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

class Tracer {
public:
  struct Span {
    const char *Name = "";
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int64_t Parent = -1; ///< Index of the enclosing span, -1 at top level.
    uint64_t Request = 0;
  };

  explicit Tracer(bool Enabled) : Enabled(Enabled), Origin(Clock::now()) {}

  bool enabled() const { return Enabled; }

  /// Opens a span nested in the calling thread's innermost open span.
  int64_t begin(const char *Name, uint64_t Request = 0) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Span S;
    S.Name = Name;
    S.Parent = Open().empty() ? -1 : Open().back();
    S.Request = Request;
    S.StartNs = nowNs();
    Spans.push_back(S);
    Open().push_back(int64_t(Spans.size() - 1));
    return int64_t(Spans.size() - 1);
  }

  void end(int64_t Id) {
    int64_t Now = nowNs();
    std::lock_guard<std::mutex> Lock(Mutex);
    Spans[size_t(Id)].EndNs = Now;
    if (!Open().empty() && Open().back() == Id)
      Open().pop_back();
  }

  /// Records a finished span whose endpoints were measured elsewhere (a
  /// request's lifetime, seen from two threads).
  void record(const char *Name, Clock::time_point Start, Clock::time_point End,
              uint64_t Request) {
    if (!Enabled)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Span S;
    S.Name = Name;
    S.StartNs = toNs(Start);
    S.EndNs = toNs(End);
    S.Request = Request;
    Spans.push_back(S);
  }

  /// Per span name: total duration and self time (duration minus the part
  /// covered by direct children), both in milliseconds, and the count.
  struct SelfTime {
    double TotalMs = 0;
    double SelfMs = 0;
    uint64_t Count = 0;
  };
  std::map<std::string, SelfTime> selfTimes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::vector<int64_t> ChildNs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildNs[size_t(S.Parent)] += S.EndNs - S.StartNs;
    std::map<std::string, SelfTime> Out;
    for (size_t I = 0; I != Spans.size(); ++I) {
      SelfTime &T = Out[Spans[I].Name];
      double Dur = double(Spans[I].EndNs - Spans[I].StartNs) / 1e6;
      T.TotalMs += Dur;
      T.SelfMs += Dur - double(ChildNs[I]) / 1e6;
      ++T.Count;
    }
    return Out;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Spans.size();
  }

  /// Writes every span as one JSON object per line.
  bool write(const std::string &Path) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    std::FILE *Out = std::fopen(Path.c_str(), "w");
    if (!Out)
      return false;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(Out,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %lld, \"request\": %llu}\n",
                   I, S.Name, (long long)S.StartNs, (long long)S.EndNs,
                   (long long)S.Parent, (unsigned long long)S.Request);
    }
    return std::fclose(Out) == 0;
  }

private:
  int64_t toNs(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
        .count();
  }
  int64_t nowNs() const { return toNs(Clock::now()); }
  /// The calling thread's stack of open spans.
  static std::vector<int64_t> &Open() {
    thread_local std::vector<int64_t> Stack;
    return Stack;
  }

  const bool Enabled;
  const Clock::time_point Origin;
  mutable std::mutex Mutex; ///< Guards Spans.
  std::vector<Span> Spans;
};

/// RAII span; inert when the tracer is off.
class Scope {
public:
  Scope(Tracer &T, const char *Name, uint64_t Request = 0)
      : T(T), Id(T.enabled() ? T.begin(Name, Request) : -1) {}
  ~Scope() {
    if (Id >= 0)
      T.end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
  int64_t Id;
};

} // namespace perfbench

#endif // ILDP_PERFBENCH_TRACE_H
