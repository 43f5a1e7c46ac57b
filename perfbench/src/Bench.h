//===- perfbench/src/Bench.h - Shared pieces of the repo benchmark --------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark driver's own helpers: timing, order statistics, the
/// serving ladder's rung rule, seeded input generation, a metric sink,
/// and an in-memory span tracer that writes Chrome trace-event JSON.
/// Nothing here calls generated code; the workloads (Serve.cpp,
/// FheCircuit.cpp) and the per-layer census (Census.cpp) drive the
/// library through its public headers only.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "mw/Bignum.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}
//===----------------------------------------------------------------------===//
// Order statistics.
//===----------------------------------------------------------------------===//

/// Nearest-rank percentile \p Q in [0, 1] of \p Xs (copied, then sorted).
/// NaN for an empty sample.
double percentile(std::vector<double> Xs, double Q);
double median(const std::vector<double> &Xs);
double geomean(const std::vector<double> &Xs);

/// The percentile every workload reports its op time (op_ms) at: the
/// fastest op. Other tenants of a shared host slow whole stretches of a
/// run, often all of it, by 10-40% (on the 4-core VM this benchmark was
/// tuned on, run medians of one circuit ranged 15-24 ms, the 10th
/// percentile 17-24 ms, and the serving median 0.5-3 ms), so the
/// run-to-run spread of a median or a low decile exceeded the bounds a
/// regression gate can use; the minimum over a run spread far less.
/// Medians and tails are still recorded in each result's detail.
constexpr double OpTimeQuantile = 0.0;

/// Samples strictly beyond percentile \p Q in a sample of \p N: the count
/// a tail figure rests on.
size_t samplesBeyond(size_t N, double Q);

/// The highest of the standard reporting percentiles (p50, p90, p95, p99,
/// p99.9) that has at least ten samples beyond it in a sample of \p N;
/// 0 when not even the median does.
double highestTailPercentile(size_t N);

//===----------------------------------------------------------------------===//
// The open-loop ladder's rung rule.
//===----------------------------------------------------------------------===//

/// One rung of the arrival-rate ladder as the generator and collector saw
/// it.
struct RungResult {
  double RateRps = 0;     ///< offered arrival rate
  size_t Sent = 0;        ///< requests submitted
  size_t Failed = 0;      ///< refused, expired or failed replies
  double P99Us = 0;       ///< due time -> Reply.Done, failures as +inf
  size_t BacklogAtEnd = 0; ///< submitted - completed at the last due time
};

/// True when a rung meets the limit: p99 within \p LimitUs, no failure,
/// and no growing queue — the backlog left when the schedule ends is at
/// most the arrivals of one latency limit (Little's law at the limit)
/// plus a small slack for coalescing.
bool rungPasses(const RungResult &R, double LimitUs);

/// max_rate: walk the ladder in ascending rate order and return the rate
/// of the last passing rung before the first failing one (0 if the first
/// rung fails). Rungs above the first failure never count: an overloaded
/// system that recovers by chance is still overloaded.
double pickMaxRate(const std::vector<RungResult> &Rungs, double LimitUs);

//===----------------------------------------------------------------------===//
// Seeded inputs.
//===----------------------------------------------------------------------===//

/// Derives the stream for one named input from the run seed, so adding an
/// input never shifts another's values.
std::uint64_t streamSeed(std::uint64_t Seed, const std::string &Stream);

/// \p N uniform elements below \p Q packed MSB-first, elemWords(Q) words
/// each (the Dispatcher data convention).
std::vector<std::uint64_t> randomElems(moma::Rng &R, const moma::mw::Bignum &Q,
                                       size_t N);

/// The serving workload's request kinds.
enum class ServeClass : std::uint8_t { PolyMul256, NegaPolyMul60, VMul384 };
constexpr unsigned NumServeClasses = 3;
const char *serveClassName(ServeClass C);

/// One scheduled request: its class and which pooled input it carries.
struct ServeReq {
  ServeClass Class;
  std::uint32_t Input;
};

/// The seeded request mix: 70% PolyMul256, 20% NegaPolyMul60, 10%
/// VMul384, each drawing one of \p PoolSize pooled inputs.
std::vector<ServeReq> makeServeSchedule(std::uint64_t Seed, size_t Count,
                                        size_t PoolSize);

/// The FHE workload's plaintexts: three messages of \p NPoints
/// coefficients below \p T.
std::vector<std::vector<std::uint64_t>>
makeFheMessages(std::uint64_t Seed, size_t NPoints, std::uint64_t T);

//===----------------------------------------------------------------------===//
// Metrics.
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Everything one workload run reports.
struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;  ///< what the selected mode reports
  std::vector<Metric> Detail;   ///< informative extras (result file only)
  std::vector<std::string> Errors;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void detail(const std::string &Name, double Value, const std::string &Unit) {
    Detail.push_back({Name, Value, Unit});
  }
  /// Records a correctness failure; the run reports correct=false.
  void mismatch(const std::string &What) {
    Correct = false;
    if (Errors.size() < 16)
      Errors.push_back(What);
  }
};

//===----------------------------------------------------------------------===//
// Tracing.
//===----------------------------------------------------------------------===//

/// In-memory span and counter log. Spans carry name, start, end, parent
/// and a request id; they are appended under a mutex (the benchmark's own
/// threads only) and written at exit as Chrome trace-event JSON. When off,
/// a Scope costs one branch.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), T0(Clock::now()) {}

  /// Opens a span on the calling thread (parent: the innermost open span
  /// of that thread) and returns its id; -1 when tracing is off.
  int begin(const char *Name, std::uint64_t Req = 0);
  void end(int Id);
  /// Records a counter sample.
  void counter(const char *Name, double Value);

  class Scope {
  public:
    Scope(Tracer &T, const char *Name, std::uint64_t Req = 0)
        : T(T), Id(T.On ? T.begin(Name, Req) : -1) {}
    ~Scope() {
      if (Id >= 0)
        T.end(Id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  size_t numSpans() const;
  /// Writes {"traceEvents": [...]}; false on I/O failure.
  bool writeChromeJson(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double StartUs = 0, EndUs = -1;
    int Parent = -1;
    std::uint64_t Req = 0;
    unsigned Tid = 0;
  };
  struct Counter {
    const char *Name;
    double AtUs, Value;
  };
  double nowUs() const;

  bool On;
  Clock::time_point T0;
  mutable std::mutex Mu;
  std::vector<Span> Spans;
  std::vector<Counter> Counters;
};

//===----------------------------------------------------------------------===//
// Workloads and the per-layer census.
//===----------------------------------------------------------------------===//

struct Config {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string JitDir;   ///< private JIT cache root for this process
  /// Cold set-ups measured for setup_s; 0 takes the workload's own count
  /// (the traced run's loops set one, they report no setup_s).
  unsigned SetupReps = 0;
};

/// One workload's timed phase: the end-to-end metrics into \p Out. With
/// \p T enabled the same loop records spans (the traced run compares the
/// two to report tracing overhead).
void runServe(const Config &C, Tracer &T, RunResult &Out);
void runFhe(const Config &C, Tracer &T, RunResult &Out);

/// The traced run's per-layer replays at every workload's exact shapes,
/// so every per-layer metric is measured whichever workload is selected.
void censusZkp(const Config &C, Tracer &T, RunResult &Out);
void censusServe(const Config &C, Tracer &T, RunResult &Out);
void censusFhe(const Config &C, Tracer &T, RunResult &Out);

/// A fresh, empty JIT cache directory under the process's private root:
/// every cold set-up compiles from scratch.
std::string freshJitDir(const Config &C, const std::string &Tag);

/// The set-ups a run measures: \p Default unless the caller overrode it.
inline unsigned setupReps(const Config &C, unsigned Default) {
  return C.SetupReps ? C.SetupReps : Default;
}

/// getrusage high-water RSS of the process so far, in MB.
double peakRssMb();

/// Shared end-to-end fields of a workload run. \p PeakRssMb < 0 reads the
/// high-water mark now.
void addCommonMetrics(RunResult &Out, double SetupS, double PeakRssMb = -1);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
