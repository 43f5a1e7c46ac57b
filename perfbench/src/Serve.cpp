//===- perfbench/src/Serve.cpp - serve-open: open-loop Server ladder ------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-loop run against service::Server with its default options (two
/// workers). One generator thread submits a seeded request mix on a fixed
/// schedule; one collector thread waits for the replies — four threads on a
/// four-core host. The generator walks a ladder of arrival rates; every
/// request is timed from the moment it was due, so a generator or server
/// stall is charged to every request it delays, and the generator's own
/// lateness is reported per rung. Every reply is compared with the oracle's
/// output for its pooled input. After the ladder, a saturating closed loop
/// measures the server's capacity. Both phases have a hard wall-clock
/// budget: a wedged worker fails the run instead of hanging it.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "service/Server.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

using namespace perfbench;
using moma::runtime::KernelRegistry;
using moma::service::Reply;
using moma::service::Server;

namespace {

/// The ladder: rates in req/s and each rung's share of the run. The
/// reference rung sits well below the knee and runs longest, so its p99
/// rests on thousands of samples. The knee sits between 12k and 17k req/s
/// on a 4-core host and moves with the host's load, so no rung is placed
/// near it: the server keeps up with 8k by a wide margin and 24k is far
/// past it. The overload rung is short: it only has to show the capacity,
/// and its backlog (about half its requests) holds an output buffer per
/// request until it drains.
struct Rung {
  double Rate;
  double Share;
};
constexpr double ReferenceRate = 4000, KeepUpRate = 8000;
constexpr Rung Ladder[] = {
    {ReferenceRate, 0.4}, {KeepUpRate, 0.3}, {24000, 0.05}};
/// The p99 limit of the max-rate rule (a result detail): a host stall must
/// last about the limit plus 1% of a rung to fail a healthy rung.
constexpr double LatencyLimitUs = 10000;

/// The saturating phase that measures capacity (ops_per_s): a closed loop
/// holding SaturationDepth requests in flight, so both workers always find
/// a full queue of mixed keys to coalesce, for SaturationShare of the run.
/// Its rate swings between about 14k and 23k replies/s in stretches of up
/// to a second, and with the host's load between runs, so the phase is
/// long and capacity is its mean rate; neither the best nor the median
/// quarter-second window spread less between runs.
constexpr size_t SaturationDepth = 128;
constexpr double SaturationShare = 0.4;

struct ServeProgram {
  std::unique_ptr<KernelRegistry> Reg;
  std::unique_ptr<Server> Srv;
};

std::future<Reply> submitOne(Server &Srv, const ServePool &P, size_t Input,
                             std::uint64_t *Out) {
  const ServeClassShape &S = P.Shape;
  if (S.Poly)
    return Srv.polyMul(S.Q, P.A[Input].data(), P.B[Input].data(), Out,
                       S.Elems, S.Ring);
  return Srv.vmul(S.Q, P.A[Input].data(), P.B[Input].data(), Out, S.Elems);
}

/// Cold set-up: registry over an empty JIT cache, Server start, and a
/// warm-up burst of every class (plans compiled, each worker's tables
/// built). Returns false with \p Err set on a failed or wrong reply.
bool setUp(const Config &C, const std::vector<ServePool> &Pools,
           ServeProgram &P, std::string &Err) {
  moma::jit::HostJitOptions JO;
  JO.CacheDir = freshJitDir(C, "serve");
  P.Reg = std::make_unique<KernelRegistry>(JO);
  P.Srv = std::make_unique<Server>(*P.Reg);
  std::vector<std::vector<std::uint64_t>> Outs;
  std::vector<std::future<Reply>> Fs;
  std::vector<std::pair<size_t, size_t>> Who;
  for (int Round = 0; Round < 4; ++Round)
    for (size_t CI = 0; CI < Pools.size(); ++CI)
      for (size_t I = 0; I < 4; ++I) {
        const ServePool &Pool = Pools[CI];
        Outs.emplace_back(Pool.Shape.Elems * Pool.Shape.Words);
        Fs.push_back(submitOne(*P.Srv, Pool, I, Outs.back().data()));
        Who.emplace_back(CI, I);
      }
  for (size_t K = 0; K < Fs.size(); ++K) {
    Reply R = Fs[K].get();
    if (!R.Ok || Outs[K] != Pools[Who[K].first].Want[Who[K].second]) {
      Err = R.Ok ? "warm-up reply differs from the oracle" : R.Error;
      return false;
    }
  }
  return true;
}

/// Recycles output buffers per class so steady state allocates nothing on
/// the generator's path.
class BufferPool {
public:
  explicit BufferPool(const std::vector<ServePool> &Pools) {
    for (const ServePool &P : Pools)
      Sizes.push_back(P.Shape.Elems * P.Shape.Words);
    Free.resize(Pools.size());
  }
  std::vector<std::uint64_t> *get(size_t CI) {
    std::lock_guard<std::mutex> L(Mu);
    if (Free[CI].empty()) {
      Owned.push_back(std::make_unique<std::vector<std::uint64_t>>(
          Sizes[CI]));
      return Owned.back().get();
    }
    auto *B = Free[CI].back();
    Free[CI].pop_back();
    return B;
  }
  void put(size_t CI, std::vector<std::uint64_t> *B) {
    std::lock_guard<std::mutex> L(Mu);
    Free[CI].push_back(B);
  }

private:
  std::mutex Mu;
  std::vector<size_t> Sizes;
  std::vector<std::vector<std::vector<std::uint64_t> *>> Free;
  std::vector<std::unique_ptr<std::vector<std::uint64_t>>> Owned;
};

/// One submitted request on its way to the collector.
struct InFlight {
  std::future<Reply> F;
  Clock::time_point Due;
  size_t Class, Input, Rung;
  std::vector<std::uint64_t> *Buf;
};

/// Per-rung observations.
struct RungLog {
  std::vector<double> LatUs;                 ///< all classes
  std::vector<std::vector<double>> ClassLatUs; ///< per class
  std::vector<double> LatenessUs;
  std::vector<double> SubmitUs;
  size_t Sent = 0, Failed = 0, QueueDepthMax = 0, Backlog = 0;
  Clock::time_point FirstDue, LastDone; ///< span of the rung's service

  /// Replies served per second from the rung's first due time to its last
  /// reply: the offered rate below the knee, the capacity above it.
  double throughputRps() const {
    double S = std::chrono::duration<double>(LastDone - FirstDue).count();
    return S > 0 ? double(Sent - Failed) / S : 0;
  }
};

/// Closes the collector's queue and joins it on every exit path, so an
/// exception on the generator side never destroys a joinable thread.
class CollectorJoin {
public:
  CollectorJoin(std::thread &T, std::mutex &Mu, std::condition_variable &Cv,
                bool &Closed)
      : T(T), Mu(Mu), Cv(Cv), Closed(Closed) {}
  ~CollectorJoin() { close(); }
  CollectorJoin(const CollectorJoin &) = delete;
  CollectorJoin &operator=(const CollectorJoin &) = delete;

  void close() {
    if (!T.joinable())
      return;
    {
      std::lock_guard<std::mutex> L(Mu);
      Closed = true;
    }
    Cv.notify_one();
    T.join();
  }

private:
  std::thread &T;
  std::mutex &Mu;
  std::condition_variable &Cv;
  bool &Closed;
};

[[noreturn]] void wedged(const char *Where) {
  std::fprintf(stderr,
               "serve-open: hard wall-clock budget exceeded while %s; a "
               "worker is wedged — failing the run\n",
               Where);
  std::fflush(stderr);
  std::_Exit(3);
}

} // namespace

/// The open-loop ladder over \p Srv; fills \p Logs (one per rung). Shared
/// with the census, which runs the reference rung alone.
static void runLadder(Server &Srv, const std::vector<ServePool> &Pools,
                      const std::vector<Rung> &Rungs, double Seconds,
                      std::uint64_t Seed, Tracer &Tr, RunResult &Out,
                      std::vector<RungLog> &Logs, double &RssAtReference) {
  size_t Total = 0;
  for (const Rung &R : Rungs)
    Total += static_cast<size_t>(R.Rate * R.Share * Seconds) + 1;
  std::vector<ServeReq> Schedule =
      makeServeSchedule(Seed, Total, ServePoolSize);
  const Clock::time_point Budget =
      Clock::now() +
      std::chrono::milliseconds(static_cast<long>(3000 * Seconds) + 30000);

  BufferPool Bufs(Pools);
  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<InFlight> Queue;
  bool Closed = false;
  std::atomic<size_t> Completed{0};
  Logs.assign(Rungs.size(), RungLog());
  for (RungLog &L : Logs)
    L.ClassLatUs.resize(Pools.size());
  std::mutex LogMu;
  std::vector<std::string> Mismatches;

  std::thread Collector([&] {
    for (;;) {
      InFlight J;
      {
        std::unique_lock<std::mutex> L(QMu);
        if (!QCv.wait_until(L, Budget,
                            [&] { return Closed || !Queue.empty(); }))
          wedged("waiting for submissions");
        if (Queue.empty())
          return;
        J = std::move(Queue.front());
        Queue.pop_front();
      }
      if (J.F.wait_until(Budget) != std::future_status::ready)
        wedged("waiting for a reply");
      Reply R = J.F.get();
      double Lat = std::numeric_limits<double>::infinity();
      bool Bad = !R.Ok;
      if (R.Ok) {
        Lat = std::chrono::duration<double, std::micro>(R.Done - J.Due)
                  .count();
        if (*J.Buf != Pools[J.Class].Want[J.Input]) {
          std::lock_guard<std::mutex> L(LogMu);
          Mismatches.push_back(std::string("serve reply differs from the "
                                           "oracle (") +
                               serveClassName(Pools[J.Class].Shape.Class) +
                               ")");
        }
      }
      Bufs.put(J.Class, J.Buf);
      {
        std::lock_guard<std::mutex> L(LogMu);
        RungLog &Log = Logs[J.Rung];
        Log.LatUs.push_back(Lat);
        Log.ClassLatUs[J.Class].push_back(Lat);
        Log.Failed += Bad;
        if (R.Ok)
          Log.LastDone = std::max(Log.LastDone, R.Done);
      }
      Completed.fetch_add(1);
    }
  });
  CollectorJoin Joiner(Collector, QMu, QCv, Closed);

  size_t Next = 0, Sent = 0;
  for (size_t RI = 0; RI < Rungs.size(); ++RI) {
    const Rung &Rg = Rungs[RI];
    size_t N = static_cast<size_t>(Rg.Rate * Rg.Share * Seconds) + 1;
    RungLog &Log = Logs[RI];
    auto T0 = Clock::now() + std::chrono::milliseconds(1);
    Log.FirstDue = Log.LastDone = T0;
    for (size_t I = 0; I < N; ++I) {
      auto Due = T0 + std::chrono::nanoseconds(
                          static_cast<long long>(I * 1e9 / Rg.Rate));
      if (Clock::now() < Due)
        std::this_thread::sleep_until(Due);
      const ServeReq &Q = Schedule[Next++];
      size_t CI = static_cast<size_t>(Q.Class);
      InFlight J;
      J.Due = Due;
      J.Class = CI;
      J.Input = Q.Input;
      J.Rung = RI;
      J.Buf = Bufs.get(CI);
      auto S0 = Clock::now();
      {
        Tracer::Scope Sp(Tr, "service.submit", Sent + 1);
        J.F = submitOne(Srv, Pools[CI], Q.Input, J.Buf->data());
      }
      auto S1 = Clock::now();
      Log.LatenessUs.push_back(
          std::chrono::duration<double, std::micro>(S0 - Due).count());
      Log.SubmitUs.push_back(
          std::chrono::duration<double, std::micro>(S1 - S0).count());
      ++Sent;
      ++Log.Sent;
      {
        std::lock_guard<std::mutex> L(QMu);
        Queue.push_back(std::move(J));
      }
      QCv.notify_one();
      if ((I & 31) == 0) {
        size_t Depth = Srv.health().QueueDepth;
        Log.QueueDepthMax = std::max(Log.QueueDepthMax, Depth);
        Tr.counter("service.queue_depth", double(Depth));
      }
    }
    Log.Backlog = Sent - Completed.load();
    // Drain before the next rung so rungs do not bleed into each other.
    while (Completed.load() < Sent) {
      if (Clock::now() > Budget)
        wedged("draining a rung");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    // Memory is read at the reference load: the overload rung above it
    // grows the queue by however far past the knee it lands.
    if (Rg.Rate == ReferenceRate)
      RssAtReference = peakRssMb();
  }
  Joiner.close();
  for (const std::string &M : Mismatches)
    Out.mismatch(M);
  for (const RungLog &L : Logs) {
    Out.Attempted += L.Sent;
    Out.Failed += L.Failed;
  }
}

/// The saturating phase over \p Srv: one thread keeps SaturationDepth
/// requests of the seeded mix in flight, resubmitting in a slot as soon as
/// its reply is ready (in any order: waiting on the oldest would idle the
/// queue behind a long batch), and checks every reply against the oracle.
/// Returns the replies served per second over the phase.
static double runSaturation(Server &Srv, const std::vector<ServePool> &Pools,
                            double Seconds, std::uint64_t Seed, Tracer &Tr,
                            RunResult &Out) {
  Tracer::Scope Sp(Tr, "service.saturation");
  std::vector<ServeReq> Schedule = makeServeSchedule(
      streamSeed(Seed, "serve.saturation"), 4096, ServePoolSize);
  size_t MaxWords = 0;
  for (const ServePool &P : Pools)
    MaxWords = std::max(MaxWords, P.Shape.Elems * P.Shape.Words);
  struct Slot {
    std::future<Reply> F;
    const ServeReq *Req;
    std::vector<std::uint64_t> Buf;
  };
  std::vector<Slot> Slots(SaturationDepth);
  size_t Next = 0;
  auto Submit = [&](Slot &S) {
    S.Req = &Schedule[Next++ % Schedule.size()];
    S.F = submitOne(Srv, Pools[size_t(S.Req->Class)], S.Req->Input,
                    S.Buf.data());
  };
  const double PhaseS = Seconds * SaturationShare;
  const Clock::time_point Budget =
      Clock::now() +
      std::chrono::milliseconds(static_cast<long>(3000 * PhaseS) + 30000);
  bool Mismatch = false;
  // Waits for a slot's reply and checks it; true when it was served.
  auto Collect = [&](Slot &S) {
    if (S.F.wait_until(Budget) != std::future_status::ready)
      wedged("waiting for a saturating reply");
    Reply R = S.F.get();
    ++Out.Attempted;
    if (!R.Ok) {
      ++Out.Failed;
      return false;
    }
    const std::vector<std::uint64_t> &Want =
        Pools[size_t(S.Req->Class)].Want[S.Req->Input];
    Mismatch |= !std::equal(Want.begin(), Want.end(), S.Buf.begin());
    return true;
  };
  size_t Served = 0;
  auto T0 = Clock::now();
  for (Slot &S : Slots) {
    S.Buf.resize(MaxWords);
    Submit(S);
  }
  double Elapsed = 0;
  while ((Elapsed = secondsSince(T0)) < PhaseS) {
    bool Any = false;
    for (Slot &S : Slots)
      if (S.F.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        Served += Collect(S);
        Submit(S);
        Any = true;
      }
    if (!Any) {
      if (Clock::now() > Budget)
        wedged("waiting for a saturating reply");
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  for (Slot &S : Slots)
    Collect(S);
  if (Mismatch)
    Out.mismatch("saturating serve reply differs from the oracle");
  return Served / Elapsed;
}

void perfbench::runServe(const Config &C, Tracer &Tr, RunResult &Out) {
  std::vector<ServePool> Pools = makeServePools(C.Seed);

  std::unique_ptr<ServeProgram> P;
  std::vector<double> Setups;
  for (unsigned Rep = 0, N = setupReps(C, 15); Rep < N; ++Rep) {
    // Tear the previous set-up down in member order before the next.
    P.reset();
    P = std::make_unique<ServeProgram>();
    std::string Err;
    auto T0 = Clock::now();
    bool Ok = setUp(C, Pools, *P, Err);
    Setups.push_back(secondsSince(T0));
    if (!Ok) {
      Out.mismatch("serve set-up failed: " + Err);
      return;
    }
  }

  std::vector<RungLog> Logs;
  double Rss = 0;
  runLadder(*P->Srv, Pools,
            std::vector<Rung>(std::begin(Ladder), std::end(Ladder)),
            C.Seconds, C.Seed, Tr, Out, Logs, Rss);

  double Capacity =
      runSaturation(*P->Srv, Pools, C.Seconds, C.Seed, Tr, Out);

  std::vector<RungResult> Rungs;
  double RefMs = 0;
  for (size_t RI = 0; RI < Logs.size(); ++RI) {
    const RungLog &L = Logs[RI];
    RungResult RR;
    RR.RateRps = Ladder[RI].Rate;
    RR.Sent = L.Sent;
    RR.Failed = L.Failed;
    RR.P99Us = percentile(L.LatUs, 0.99);
    RR.BacklogAtEnd = L.Backlog;
    Rungs.push_back(RR);
    std::string Pfx = "rung" + std::to_string(int(RR.RateRps)) + ".";
    Out.detail(Pfx + "sent", double(L.Sent), "count");
    Out.detail(Pfx + "failed", double(L.Failed), "count");
    Out.detail(Pfx + "latency_us_p50", percentile(L.LatUs, 0.5), "us");
    Out.detail(Pfx + "latency_us_p99", RR.P99Us, "us");
    Out.detail(Pfx + "lateness_us_p50", percentile(L.LatenessUs, 0.5), "us");
    Out.detail(Pfx + "lateness_us_max", percentile(L.LatenessUs, 1.0), "us");
    Out.detail(Pfx + "backlog_at_end", double(L.Backlog), "count");
    Out.detail(Pfx + "queue_depth_max", double(L.QueueDepthMax), "count");
    Out.detail(Pfx + "passes", rungPasses(RR, LatencyLimitUs) ? 1 : 0,
               "bool");
    Out.detail(Pfx + "throughput_rps", L.throughputRps(), "1/s");
    if (RR.RateRps == ReferenceRate) {
      // op_ms is each class's fastest reply, like the closed loops' fastest
      // op: host stalls moved the median from 0.5 to 3 ms between runs.
      std::vector<double> Fastest, Median;
      for (const auto &CL : L.ClassLatUs) {
        Fastest.push_back(percentile(CL, OpTimeQuantile) / 1e3);
        Median.push_back(percentile(CL, 0.5) / 1e3);
      }
      RefMs = geomean(Fastest);
      Out.detail("op_ms_p50", geomean(Median), "ms");
      Out.detail("latency_us_p50", percentile(L.LatUs, 0.5), "us");
      Out.detail("latency_us_p99", RR.P99Us, "us");
    }
  }
  Out.detail("latency_limit_us", LatencyLimitUs, "us");
  Out.detail("max_rate_rps", pickMaxRate(Rungs, LatencyLimitUs), "1/s");
  Out.detail("overload_throughput_rps", Logs.back().throughputRps(), "1/s");
  addCommonMetrics(Out, median(Setups), Rss);
  Out.add("op_ms", RefMs, "ms");
  Out.add("ops_per_s", Capacity, "1/s");
}

void perfbench::censusServe(const Config &C, Tracer &Tr, RunResult &Out) {
  std::vector<ServePool> Pools = makeServePools(C.Seed);
  ServeProgram P;
  std::string Err;
  {
    Tracer::Scope S(Tr, "service.setup");
    if (!setUp(C, Pools, P, Err)) {
      Out.mismatch("census: serve set-up failed: " + Err);
      return;
    }
  }
  Server::Stats S0 = P.Srv->stats();
  std::vector<RungLog> Logs;
  double Rss = 0;
  runLadder(*P.Srv, Pools, {{ReferenceRate, 0.3}}, C.Seconds, C.Seed, Tr,
            Out, Logs, Rss);
  Server::Stats S1 = P.Srv->stats();
  const RungLog &L = Logs[0];
  double PerDispatch = double(S1.Requests - S0.Requests) /
                       double(std::max<std::uint64_t>(
                           1, S1.Dispatches - S0.Dispatches));
  size_t Batch = std::max<size_t>(1, static_cast<size_t>(PerDispatch + 0.5));

  // Replay each class as one Dispatcher call at the observed batch size,
  // and that call's backend work; the reply latency minus the dispatcher
  // replay is time spent waiting (queue + coalescing window).
  moma::runtime::Dispatcher D(*P.Reg);
  std::vector<double> WaitUs;
  for (size_t CI = 0; CI < Pools.size(); ++CI) {
    const ServePool &Pool = Pools[CI];
    const ServeClassShape &S = Pool.Shape;
    std::vector<std::uint64_t> A, B;
    for (size_t I = 0; I < Batch; ++I) {
      A.insert(A.end(), Pool.A[I % ServePoolSize].begin(),
               Pool.A[I % ServePoolSize].end());
      B.insert(B.end(), Pool.B[I % ServePoolSize].begin(),
               Pool.B[I % ServePoolSize].end());
    }
    std::vector<std::uint64_t> Res(A.size());
    double CallS, BackendS;
    {
      Tracer::Scope Sp(Tr, "dispatcher.serve_replay");
      if (S.Poly) {
        CallS = medianSeconds(25, [&] {
          D.polyMul(S.Q, A.data(), B.data(), Res.data(), S.Elems, Batch,
                    S.Ring);
        });
        BackendS =
            backendPolyMulS(*P.Reg, S.Q, S.Elems, Batch, S.Ring, 25);
      } else {
        CallS = medianSeconds(25, [&] {
          D.vmul(S.Q, A.data(), B.data(), Res.data(), S.Elems * Batch);
        });
        BackendS = backendBatchS(*P.Reg, moma::runtime::KernelOp::MulMod,
                                 S.Q, S.Elems * Batch, 25);
      }
    }
    std::string Name = std::string("dispatcher.") + serveClassName(S.Class);
    Out.add(Name + "_us", CallS * 1e6, "us");
    Out.add(Name + "_self_us", (CallS - BackendS) * 1e6, "us");
    for (double Lat : L.ClassLatUs[CI])
      WaitUs.push_back(Lat - CallS * 1e6);
  }

  Out.add("service.submit_us", percentile(L.SubmitUs, 0.5), "us");
  Out.add("service.latency_us_p50", percentile(L.LatUs, 0.5), "us");
  Out.add("service.latency_us_p99", percentile(L.LatUs, 0.99), "us");
  Out.add("service.wait_us_p50", percentile(WaitUs, 0.5), "us");
  Out.add("service.reqs_per_dispatch", PerDispatch, "count");
  Out.add("service.queue_depth_max", double(L.QueueDepthMax), "count");
  Out.add("service.rejected", double(S1.Rejected), "count");
  Out.add("service.deadline_expired", double(S1.DeadlineExpired), "count");
  noteFallbackDispatches(P.Srv->health().FallbackDispatches);
  noteDispatcherCounters(D);
  P.Srv.reset();
  noteRegistry(*P.Reg);
}
