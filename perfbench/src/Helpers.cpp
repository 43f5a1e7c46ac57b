//===- perfbench/src/Helpers.cpp - Statistics, inputs, metrics, tracing ---===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "runtime/Dispatcher.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sys/resource.h>
#include <sys/stat.h>

using namespace perfbench;
using moma::mw::Bignum;

double perfbench::percentile(std::vector<double> Xs, double Q) {
  if (Xs.empty())
    return std::numeric_limits<double>::quiet_NaN();
  std::sort(Xs.begin(), Xs.end());
  // Nearest rank: the smallest sample with at least Q of the sample at or
  // below it.
  size_t Rank = static_cast<size_t>(std::ceil(Q * Xs.size()));
  return Xs[std::min(Xs.size() - 1, Rank == 0 ? 0 : Rank - 1)];
}

double perfbench::median(const std::vector<double> &Xs) {
  return percentile(Xs, 0.5);
}

double perfbench::geomean(const std::vector<double> &Xs) {
  if (Xs.empty())
    return std::numeric_limits<double>::quiet_NaN();
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return std::exp(LogSum / Xs.size());
}

size_t perfbench::samplesBeyond(size_t N, double Q) {
  if (N == 0)
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * N));
  return N - std::max<size_t>(Rank, 1);
}

double perfbench::highestTailPercentile(size_t N) {
  double Best = 0;
  for (double Q : {0.5, 0.9, 0.95, 0.99, 0.999})
    if (samplesBeyond(N, Q) >= 10)
      Best = Q;
  return Best;
}

bool perfbench::rungPasses(const RungResult &R, double LimitUs) {
  if (R.Sent == 0 || R.Failed != 0 || !(R.P99Us <= LimitUs))
    return false;
  double Allowed = R.RateRps * LimitUs * 1e-6 + 16;
  return static_cast<double>(R.BacklogAtEnd) <= Allowed;
}

double perfbench::pickMaxRate(const std::vector<RungResult> &Rungs,
                              double LimitUs) {
  std::vector<RungResult> Sorted = Rungs;
  std::sort(Sorted.begin(), Sorted.end(),
            [](const RungResult &A, const RungResult &B) {
              return A.RateRps < B.RateRps;
            });
  double Best = 0;
  for (const RungResult &R : Sorted) {
    if (!rungPasses(R, LimitUs))
      break;
    Best = R.RateRps;
  }
  return Best;
}

std::uint64_t perfbench::streamSeed(std::uint64_t Seed,
                                    const std::string &Stream) {
  // FNV-1a over the stream name, mixed with the run seed.
  std::uint64_t H = 1469598103934665603ull;
  for (unsigned char Ch : Stream) {
    H ^= Ch;
    H *= 1099511628211ull;
  }
  return H ^ (Seed * 0x9E3779B97F4A7C15ull);
}

std::vector<std::uint64_t> perfbench::randomElems(moma::Rng &R,
                                                  const Bignum &Q, size_t N) {
  unsigned K = moma::runtime::Dispatcher::elemWords(Q);
  std::vector<std::uint64_t> Out(N * K);
  for (size_t I = 0; I < N; ++I) {
    // Most significant word first, like packBatch.
    Bignum E = Bignum::random(R, Q);
    for (unsigned W = 0; W < K; ++W)
      Out[I * K + W] = E.limb(K - 1 - W);
  }
  return Out;
}

const char *perfbench::serveClassName(ServeClass C) {
  switch (C) {
  case ServeClass::PolyMul256:
    return "polymul256";
  case ServeClass::NegaPolyMul60:
    return "negapolymul60";
  case ServeClass::VMul384:
    return "vmul384";
  }
  return "?";
}

std::vector<ServeReq> perfbench::makeServeSchedule(std::uint64_t Seed,
                                                   size_t Count,
                                                   size_t PoolSize) {
  moma::Rng R(streamSeed(Seed, "serve.schedule"));
  std::vector<ServeReq> S(Count);
  for (ServeReq &Q : S) {
    std::uint64_t Pick = R.below(10);
    Q.Class = Pick < 7   ? ServeClass::PolyMul256
              : Pick < 9 ? ServeClass::NegaPolyMul60
                         : ServeClass::VMul384;
    Q.Input = static_cast<std::uint32_t>(R.below(PoolSize));
  }
  return S;
}

std::vector<std::vector<std::uint64_t>>
perfbench::makeFheMessages(std::uint64_t Seed, size_t NPoints,
                           std::uint64_t T) {
  moma::Rng R(streamSeed(Seed, "fhe.messages"));
  std::vector<std::vector<std::uint64_t>> Msgs(3,
                                               std::vector<std::uint64_t>(
                                                   NPoints));
  for (auto &M : Msgs)
    for (auto &V : M)
      V = R.below(T);
  return Msgs;
}

//===----------------------------------------------------------------------===//
// Tracer.
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int> OpenSpans;
std::atomic<unsigned> NextTid{1};
thread_local unsigned ThisTid = 0;

unsigned threadId() {
  if (ThisTid == 0)
    ThisTid = NextTid.fetch_add(1);
  return ThisTid;
}
} // namespace

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - T0).count();
}

int Tracer::begin(const char *Name, std::uint64_t Req) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Req = Req;
  S.Tid = threadId();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  int Id;
  {
    std::lock_guard<std::mutex> L(Mu);
    S.StartUs = nowUs();
    Id = static_cast<int>(Spans.size());
    Spans.push_back(S);
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  double Now = nowUs();
  {
    std::lock_guard<std::mutex> L(Mu);
    Spans[Id].EndUs = Now;
  }
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
}

void Tracer::counter(const char *Name, double Value) {
  if (!On)
    return;
  std::lock_guard<std::mutex> L(Mu);
  Counters.push_back({Name, nowUs(), Value});
}

size_t Tracer::numSpans() const {
  std::lock_guard<std::mutex> L(Mu);
  return Spans.size();
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  std::lock_guard<std::mutex> L(Mu);
  Out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  char Buf[512];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    double Dur = S.EndUs < 0 ? 0 : S.EndUs - S.StartUs;
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%llu}}",
                  First ? "" : ",", S.Name, S.Tid, S.StartUs, Dur, I,
                  S.Parent, static_cast<unsigned long long>(S.Req));
    Out << Buf;
    First = false;
  }
  for (const Counter &C : Counters) {
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"tid\":0,"
                  "\"ts\":%.3f,\"args\":{\"value\":%.6g}}",
                  First ? "" : ",", C.Name, C.AtUs, C.Value);
    Out << Buf;
    First = false;
  }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Shared run plumbing.
//===----------------------------------------------------------------------===//

std::string perfbench::freshJitDir(const Config &C, const std::string &Tag) {
  static std::atomic<unsigned> Counter{0};
  std::string Dir = C.JitDir + "/" + Tag + "-" +
                    std::to_string(Counter.fetch_add(1));
  ::mkdir(C.JitDir.c_str(), 0755);
  ::mkdir(Dir.c_str(), 0755);
  return Dir;
}

double perfbench::peakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return RU.ru_maxrss / 1024.0;
}

void perfbench::addCommonMetrics(RunResult &Out, double SetupS,
                                 double PeakRssMb) {
  Out.add("setup_s", SetupS, "s");
  Out.add("peak_rss_mb", PeakRssMb < 0 ? peakRssMb() : PeakRssMb, "MB");
  double Ok = Out.Attempted == 0
                  ? 0
                  : double(Out.Attempted - Out.Failed) / Out.Attempted;
  Out.add("ok_frac", Ok, "fraction");
}
