//===- perfbench/src/Census.cpp - Per-layer replays at the ZKP widths -----===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's census of the plan-building and kernel layers at the
/// ZKP widths (the 256/384/768-bit plans, n = 2^14 transforms, 2^16-element
/// BLAS), plus the backend replay helpers every census uses. Its outputs
/// are checked against Bignum arithmetic and direct DFT evaluation. Layers
/// are timed from the outside, by spans around direct calls:
///
///   rewrite::lowerWithPlan -> codegen::emitC   (per kernel and width)
///   KernelRegistry::get (cold build, then hit) -> HostJit::load (disk)
///   Dispatcher entry point -> runTransform / ExecutionBackend::runBatch
///
/// A layer's self time is its call minus the replayed layer below it.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "codegen/CEmitter.h"
#include "field/RootOfUnity.h"
#include "kernels/ScalarKernels.h"
#include "rewrite/PlanOptions.h"
#include "rewrite/Stats.h"
#include "runtime/NttPipeline.h"

#include <cmath>
#include <cstring>

using namespace perfbench;
using moma::mw::Bignum;
using moma::rewrite::ExecBackend;
using moma::rewrite::NttRing;
using moma::runtime::Dispatcher;
using moma::runtime::KernelOp;
using moma::runtime::KernelRegistry;
using moma::runtime::PlanKey;
using moma::runtime::unpackWordsMsbFirst;

namespace {

/// Counters summed over every Dispatcher and registry the census used.
struct CensusCounters {
  std::uint64_t FallbackDispatches = 0, BoundEvictions = 0,
                TableEvictions = 0;
  std::uint64_t Builds = 0, Retries = 0, FailedBuilds = 0, Compiles = 0;
} Counters;

} // namespace

void perfbench::noteDispatcherCounters(const Dispatcher &D) {
  Counters.FallbackDispatches += D.degradeCounters().FallbackDispatches;
  Counters.BoundEvictions += D.cacheCounters().BoundEvictions;
  Counters.TableEvictions += D.cacheCounters().TableEvictions;
}

void perfbench::noteFallbackDispatches(std::uint64_t N) {
  Counters.FallbackDispatches += N;
}

void perfbench::noteRegistry(KernelRegistry &Reg) {
  KernelRegistry::Stats S = Reg.stats();
  Counters.Builds += S.Builds;
  Counters.Retries += S.Retries;
  Counters.FailedBuilds += S.FailedBuilds;
  Counters.Compiles += Reg.jit().stats().Compiles;
}

void perfbench::addCensusCounters(RunResult &Out) {
  Out.add("dispatcher.fallback_dispatches",
          double(Counters.FallbackDispatches), "count");
  Out.add("dispatcher.bound_evictions", double(Counters.BoundEvictions),
          "count");
  Out.add("dispatcher.table_evictions", double(Counters.TableEvictions),
          "count");
  Out.add("registry.builds", double(Counters.Builds), "count");
  Out.add("registry.retries", double(Counters.Retries), "count");
  Out.add("registry.failed_builds", double(Counters.FailedBuilds), "count");
  Out.add("jit.compiles", double(Counters.Compiles), "count");
  if (Counters.FallbackDispatches != 0)
    Out.mismatch("dispatches fell back to the interpreter");
}

bool perfbench::bindBackendPlan(KernelRegistry &Reg, KernelOp Op,
                                const Bignum &Q, BackendPlan &Out,
                                NttRing Ring, ExecBackend Backend) {
  moma::rewrite::PlanOptions O;
  O.Ring = Ring;
  O.Backend = Backend;
  Out.Plan = Reg.get(PlanKey::forModulus(Op, Q, O));
  if (!Out.Plan)
    return false;
  Out.Aux = moma::runtime::makePlanAux(*Out.Plan, Q);
  Out.AuxPtrs = Out.Aux.ptrs();
  Out.EB = &Reg.backendFor(Out.Plan->Key);
  return true;
}

double perfbench::backendBatchS(KernelRegistry &Reg, KernelOp Op,
                                const Bignum &Q, size_t N, unsigned Reps,
                                ExecBackend Backend) {
  BackendPlan BP;
  if (!bindBackendPlan(Reg, Op, Q, BP, NttRing::Cyclic, Backend))
    return NAN;
  unsigned K = Dispatcher::elemWords(Q);
  moma::Rng R(streamSeed(N, "census.batch"));
  std::vector<std::uint64_t> A = randomElems(R, Q, N),
                             B = randomElems(R, Q, N), C(N * K);
  moma::runtime::BatchArgs Args;
  Args.Outs = {C.data()};
  if (Op == KernelOp::Axpy) {
    Args.Ins = {A.data(), B.data(), C.data()};
    Args.InStrides = {0, K, K};
  } else {
    Args.Ins = {A.data(), B.data()};
  }
  Args.Aux = BP.AuxPtrs;
  return medianSeconds(Reps, [&] { BP.EB->runBatch(*BP.Plan, Args, N, 1); });
}

double perfbench::backendTransformS(KernelRegistry &Reg, const Bignum &Q,
                                    size_t NPoints, size_t Batch,
                                    NttRing Ring, bool Inverse,
                                    unsigned Reps) {
  BackendPlan BP;
  moma::runtime::NttTables T;
  if (!bindBackendPlan(Reg, KernelOp::Butterfly, Q, BP, Ring) ||
      !moma::runtime::buildNttTables(Q, NPoints, BP.Plan->Key.Opts.Red, T,
                                     nullptr, Ring))
    return NAN;
  moma::Rng R(streamSeed(NPoints, "census.transform"));
  std::vector<std::uint64_t> Data = randomElems(R, Q, NPoints * Batch),
                             Scratch(Data.size());
  return medianSeconds(Reps, [&] {
    moma::runtime::runTransform(*BP.EB, *BP.Plan, T, BP.AuxPtrs, Data.data(),
                                Scratch.data(), NPoints, Batch, Inverse,
                                nullptr);
  });
}

double perfbench::backendPolyMulS(KernelRegistry &Reg, const Bignum &Q,
                                  size_t NPoints, size_t Batch, NttRing Ring,
                                  unsigned Reps) {
  return 2 * backendTransformS(Reg, Q, NPoints, Batch, Ring, false, Reps) +
         backendTransformS(Reg, Q, NPoints, Batch, Ring, true, Reps) +
         backendBatchS(Reg, KernelOp::MulMod, Q, NPoints * Batch, Reps);
}

namespace {

moma::ir::Kernel buildKernel(KernelOp Op,
                             const moma::kernels::ScalarKernelSpec &S) {
  switch (Op) {
  case KernelOp::AddMod:
    return moma::kernels::buildAddModKernel(S);
  case KernelOp::MulMod:
    return moma::kernels::buildMulModKernel(S);
  case KernelOp::Butterfly:
    return moma::kernels::buildButterflyKernel(S);
  default:
    return moma::kernels::buildAxpyKernel(S);
  }
}

/// Checks the triple's outputs at \p Samples seeded indices.
bool checkTriple(const ZkpInputs &In, const std::uint64_t *T,
                 const std::uint64_t *U, const std::uint64_t *Y,
                 moma::Rng &R, unsigned Samples) {
  unsigned K = In.Words;
  Bignum A = unpackWordsMsbFirst(In.Scalar.data(), K);
  for (unsigned S = 0; S < Samples; ++S) {
    size_t I = R.below(ZkpElems);
    auto At = [&](const std::uint64_t *V) {
      return unpackWordsMsbFirst(V + I * K, K);
    };
    Bignum WantT = At(In.A.data()).mulMod(At(In.B.data()), In.Q);
    Bignum WantU = WantT.addMod(At(In.C.data()), In.Q);
    Bignum WantY = A.mulMod(WantU, In.Q).addMod(At(In.Y0.data()), In.Q);
    if (At(T) != WantT || At(U) != WantU || At(Y) != WantY)
      return false;
  }
  return true;
}

/// Forward transform of the first input polynomial, checked at a few
/// seeded points against X_k = sum_j x_j w^(jk) mod q evaluated directly
/// on Bignum, then inverted back exactly.
bool checkForwardDft(Dispatcher &D, const ZkpInputs &In, moma::Rng &R,
                     unsigned Samples, std::string &Why) {
  unsigned K = In.Words;
  std::vector<std::uint64_t> Poly(In.X0.begin(),
                                  In.X0.begin() + ZkpPoints * K);
  if (!D.nttForward(In.Q, Poly.data(), ZkpPoints, 1)) {
    Why = D.error();
    return false;
  }
  std::vector<Bignum> X = moma::runtime::unpackBatch(
      std::vector<std::uint64_t>(In.X0.begin(),
                                 In.X0.begin() + ZkpPoints * K),
      K);
  Bignum Omega = moma::field::rootOfUnity(In.Q, ZkpPoints);
  for (unsigned S = 0; S < Samples; ++S) {
    size_t Kx = R.below(ZkpPoints);
    Bignum Step = Omega.powMod(Bignum(Kx), In.Q), Pow(1), Acc(0);
    for (size_t J = 0; J < ZkpPoints; ++J) {
      Acc = Acc.addMod(X[J].mulMod(Pow, In.Q), In.Q);
      Pow = Pow.mulMod(Step, In.Q);
    }
    if (unpackWordsMsbFirst(Poly.data() + Kx * K, K) != Acc) {
      Why = "forward NTT output " + std::to_string(Kx) +
            " differs from direct evaluation";
      return false;
    }
  }
  if (!D.nttInverse(In.Q, Poly.data(), ZkpPoints, 1) ||
      std::memcmp(Poly.data(), In.X0.data(), Poly.size() * 8) != 0) {
    Why = "inverse of the checked forward transform is not exact";
    return false;
  }
  return true;
}

} // namespace

void perfbench::censusZkp(const Config &C, Tracer &Tr, RunResult &Out) {
  std::vector<ZkpInputs> Ins;
  for (unsigned W : ZkpWidths)
    Ins.push_back(makeZkpInputs(C.Seed, W));
  moma::jit::HostJitOptions JO;
  JO.CacheDir = freshJitDir(C, "census-zkp");
  KernelRegistry Reg(JO);

  // rewrite -> codegen -> registry build, per kernel and width.
  const KernelOp Ops[] = {KernelOp::AddMod, KernelOp::MulMod,
                          KernelOp::Butterfly, KernelOp::Axpy};
  std::vector<std::string> Sources;
  for (const ZkpInputs &In : Ins) {
    std::string W = "_w" + std::to_string(In.Width);
    double LowerS = 0, EmitS = 0, SourceKb = 0, BuildS = 0;
    for (KernelOp Op : Ops) {
      PlanKey Key = PlanKey::forModulus(Op, In.Q, moma::rewrite::PlanOptions());
      moma::ir::Kernel K =
          buildKernel(Op, {Key.ContainerBits, Key.ModBits, Key.Opts.Red});
      moma::rewrite::LoweredKernel L;
      {
        Tracer::Scope S(Tr, "rewrite.lowerWithPlan");
        auto T0 = Clock::now();
        L = moma::rewrite::lowerWithPlan(K, Key.Opts);
        LowerS += secondsSince(T0);
      }
      {
        Tracer::Scope S(Tr, "codegen.emitC");
        auto T0 = Clock::now();
        moma::codegen::EmittedKernel E = moma::codegen::emitC(L);
        EmitS += secondsSince(T0);
        SourceKb += E.Source.size() / 1024.0;
      }
      if (Op == KernelOp::MulMod || Op == KernelOp::Butterfly) {
        moma::rewrite::OpStats St = moma::rewrite::countOps(L.K);
        std::string Name = moma::runtime::kernelOpName(Op);
        Out.add("rewrite.word_muls_" + Name + W, St.multiplies(), "count");
        Out.add("rewrite.word_addsubs_" + Name + W, St.addSubs(), "count");
      }
      Tracer::Scope S(Tr, "registry.get.cold");
      auto T0 = Clock::now();
      auto Plan = Reg.get(Key);
      BuildS += secondsSince(T0);
      if (!Plan)
        Out.mismatch("census: plan build failed: " + Reg.error());
      else
        Sources.push_back(Plan->Emitted.Source);
    }
    Out.add("rewrite.lower_ms" + W, LowerS * 1e3, "ms");
    Out.add("codegen.emit_ms" + W, EmitS * 1e3, "ms");
    Out.add("codegen.source_kb" + W, SourceKb, "KB");
    Out.add("registry.build_ms" + W, BuildS * 1e3, "ms");
  }

  // Registry hit path, and the JIT's warm-disk load of the same sources
  // into a fresh HostJit.
  {
    PlanKey Key = PlanKey::forModulus(KernelOp::MulMod, Ins[0].Q,
                                      moma::rewrite::PlanOptions());
    Tracer::Scope S(Tr, "registry.get.hit");
    double PerBatch = medianSeconds(5, [&] {
      for (int I = 0; I < 1000; ++I)
        Reg.get(Key);
    });
    Out.add("registry.get_hit_ns", PerBatch * 1e9 / 1000, "ns");
  }
  {
    moma::jit::HostJit Fresh(JO);
    std::vector<double> LoadS;
    for (const std::string &Src : Sources) {
      Tracer::Scope S(Tr, "jit.load.disk");
      auto T0 = Clock::now();
      if (!Fresh.load(Src))
        Out.mismatch("census: warm-disk JIT load failed: " + Fresh.error());
      LoadS.push_back(secondsSince(T0));
    }
    Out.add("jit.disk_load_ms", median(LoadS) * 1e3, "ms");
    Out.add("jit.disk_hits", double(Fresh.stats().DiskHits), "count");
  }

  // Backend replays and Dispatcher calls at the workload's exact shapes.
  Dispatcher D(Reg);
  for (const ZkpInputs &In : Ins) {
    std::string W = "_w" + std::to_string(In.Width);
    unsigned Reps = In.Width > 512 ? 3 : 7;
    std::vector<std::uint64_t> X = In.X0, T(ZkpElems * In.Words),
                               U(T.size()), Y = In.Y0;
    double Bflys = zkpRoundTripButterflies(), Elems = 3.0 * ZkpElems;
    {
      Tracer::Scope S(Tr, "backend.runTransform");
      double Rt = backendTransformS(Reg, In.Q, ZkpPoints, ZkpBatch,
                                    NttRing::Cyclic, false, Reps) +
                  backendTransformS(Reg, In.Q, ZkpPoints, ZkpBatch,
                                    NttRing::Cyclic, true, Reps);
      Out.add("backend.transform_ns_per_bfly" + W, Rt * 1e9 / Bflys, "ns");
    }
    {
      Tracer::Scope S(Tr, "backend.runBatch");
      double Tri = 0;
      for (KernelOp Op : {KernelOp::MulMod, KernelOp::AddMod, KernelOp::Axpy})
        Tri += backendBatchS(Reg, Op, In.Q, ZkpElems, Reps);
      Out.add("backend.batch_ns_per_elem" + W, Tri * 1e9 / Elems, "ns");
    }
    {
      Tracer::Scope S(Tr, "dispatcher.ntt_roundtrip");
      double Rt = medianSeconds(Reps, [&] {
        D.nttForward(In.Q, X.data(), ZkpPoints, ZkpBatch);
        D.nttInverse(In.Q, X.data(), ZkpPoints, ZkpBatch);
      });
      Out.add("dispatcher.ntt_ns_per_bfly" + W, Rt * 1e9 / Bflys, "ns");
    }
    {
      Tracer::Scope S(Tr, "dispatcher.blas_triple");
      double Tri = medianSeconds(
          Reps, [&] { zkpTriple(D, In, T.data(), U.data(), Y.data()); });
      Out.add("dispatcher.blas_ns_per_elem" + W, Tri * 1e9 / Elems, "ns");
    }
    if (X != In.X0)
      Out.mismatch("census: NTT round trip not exact" + W);
  }

  // Per-entry-point self time at w256, where the fixed cost per call is
  // the largest share: each call is paired with the backend replay of the
  // same work on the same buffers, in alternating order.
  const ZkpInputs &In = Ins[0];
  const unsigned Reps = 21, K = In.Words;
  std::vector<std::uint64_t> X = In.X0, Scratch(X.size()),
                             T(ZkpElems * K), Y = In.Y0;
  BackendPlan Bfly, Mul, Add, Ax;
  moma::runtime::NttTables Tab;
  if (!bindBackendPlan(Reg, KernelOp::Butterfly, In.Q, Bfly) ||
      !bindBackendPlan(Reg, KernelOp::MulMod, In.Q, Mul) ||
      !bindBackendPlan(Reg, KernelOp::AddMod, In.Q, Add) ||
      !bindBackendPlan(Reg, KernelOp::Axpy, In.Q, Ax) ||
      !moma::runtime::buildNttTables(In.Q, ZkpPoints, Bfly.Plan->Key.Opts.Red,
                                     Tab, nullptr)) {
    Out.mismatch("census: backend plans unavailable: " + Reg.error());
    return;
  }
  auto Transform = [&](bool Inverse) {
    moma::runtime::runTransform(*Bfly.EB, *Bfly.Plan, Tab, Bfly.AuxPtrs,
                                X.data(), Scratch.data(), ZkpPoints, ZkpBatch,
                                Inverse, nullptr);
  };
  auto Batch = [&](const BackendPlan &P, std::uint64_t *Dst,
                   std::vector<const std::uint64_t *> Ins,
                   std::vector<size_t> Strides) {
    moma::runtime::BatchArgs Args;
    Args.Outs = {Dst};
    Args.Ins = std::move(Ins);
    Args.InStrides = std::move(Strides);
    Args.Aux = P.AuxPtrs;
    P.EB->runBatch(*P.Plan, Args, ZkpElems, 1);
  };
  auto Entry = [&](const char *Name, auto &&Call, auto &&Backend) {
    Tracer::Scope S(Tr, "dispatcher.entry_point");
    std::pair<double, double> CS = pairedSelfS(Reps, Call, Backend);
    Out.add(std::string("dispatcher.") + Name + "_us_w256", CS.first * 1e6,
            "us");
    Out.add(std::string("dispatcher.") + Name + "_self_us_w256",
            CS.second * 1e6, "us");
  };
  Entry(
      "nttForward",
      [&] { D.nttForward(In.Q, X.data(), ZkpPoints, ZkpBatch); },
      [&] { Transform(false); });
  Entry(
      "nttInverse",
      [&] { D.nttInverse(In.Q, X.data(), ZkpPoints, ZkpBatch); },
      [&] { Transform(true); });
  Entry(
      "vmul",
      [&] { D.vmul(In.Q, In.A.data(), In.B.data(), T.data(), ZkpElems); },
      [&] { Batch(Mul, T.data(), {In.A.data(), In.B.data()}, {}); });
  Entry(
      "vadd",
      [&] { D.vadd(In.Q, In.A.data(), In.B.data(), T.data(), ZkpElems); },
      [&] { Batch(Add, T.data(), {In.A.data(), In.B.data()}, {}); });
  Entry(
      "axpy",
      [&] {
        D.axpy(In.Q, In.Scalar.data(), In.A.data(), Y.data(), ZkpElems);
      },
      [&] {
        Batch(Ax, Y.data(), {In.Scalar.data(), In.A.data(), Y.data()},
              {0, K, K});
      });

  // The vector backend's runBatch against serial at w256 (informative:
  // the default plans are serial).
  {
    Tracer::Scope S(Tr, "backend.vector_vs_serial");
    double Vec = backendBatchS(Reg, KernelOp::MulMod, In.Q, ZkpElems, 9,
                               ExecBackend::Vector);
    double Ser = backendBatchS(Reg, KernelOp::MulMod, In.Q, ZkpElems, 9);
    Out.add("backend.vector_over_serial_w256", Vec / Ser, "fraction");
  }

  // Exact dispatch counts of one zkp round (every width, both op kinds).
  // The round's outputs are checked after the counts are read: the round
  // trip exactly, the triple on a seeded sample against Bignum arithmetic,
  // and a sample of forward outputs against direct evaluation of the DFT
  // (paper Eq. 12).
  Dispatcher::DispatchStats Before = D.dispatchStats();
  std::vector<std::vector<std::uint64_t>> Xs, Ts, Us, Ys;
  for (const ZkpInputs &Wi : Ins) {
    Xs.push_back(Wi.X0);
    Ts.emplace_back(ZkpElems * Wi.Words);
    Us.emplace_back(ZkpElems * Wi.Words);
    Ys.push_back(Wi.Y0);
    D.nttForward(Wi.Q, Xs.back().data(), ZkpPoints, ZkpBatch);
    D.nttInverse(Wi.Q, Xs.back().data(), ZkpPoints, ZkpBatch);
    zkpTriple(D, Wi, Ts.back().data(), Us.back().data(), Ys.back().data());
  }
  Dispatcher::DispatchStats After = D.dispatchStats();
  moma::Rng Sampler(streamSeed(C.Seed, "zkp.check"));
  for (size_t I = 0; I < Ins.size(); ++I) {
    const ZkpInputs &Wi = Ins[I];
    std::string W = " at w" + std::to_string(Wi.Width), Why;
    if (Xs[I] != Wi.X0)
      Out.mismatch("census: NTT round trip not exact" + W);
    if (!checkTriple(Wi, Ts[I].data(), Us[I].data(), Ys[I].data(), Sampler,
                     64))
      Out.mismatch("census: BLAS triple differs from Bignum" + W);
    if (!checkForwardDft(D, Wi, Sampler, Wi.Width > 512 ? 2 : 4, Why))
      Out.mismatch("census" + W + ": " + Why);
  }
  Out.add("dispatcher.zkp_transforms_per_round",
          double(After.Transforms - Before.Transforms), "count");
  Out.add("dispatcher.zkp_stage_groups_per_round",
          double(After.StageGroups - Before.StageGroups), "count");
  Out.add("dispatcher.zkp_batches_per_round",
          double(After.Batches - Before.Batches), "count");
  noteDispatcherCounters(D);
  noteRegistry(Reg);
}
