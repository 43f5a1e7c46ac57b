//===- perfbench/src/Layers.h - Direct replays of single layers -----------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced census times a layer as its call minus the replay of the
/// layer below it. These helpers replay the backend layer directly —
/// runtime::runTransform on prebuilt NttTables and
/// ExecutionBackend::runBatch on a registry plan — at the exact shape a
/// Dispatcher entry point was called with, so
/// dispatcher self time = entry point - backend replay.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "Shapes.h"

#include "runtime/Backend.h"

namespace perfbench {

/// One registry plan bound to a modulus value, ready for direct backend
/// calls.
struct BackendPlan {
  std::shared_ptr<const moma::runtime::CompiledPlan> Plan;
  moma::runtime::PlanAux Aux;
  std::vector<const std::uint64_t *> AuxPtrs;
  moma::runtime::ExecutionBackend *EB = nullptr;
};

/// Fetches (building if cold) the plan for \p Op over \p Q with the
/// default plan options (ring \p Ring for butterflies, backend \p Backend).
bool bindBackendPlan(moma::runtime::KernelRegistry &Reg,
                     moma::runtime::KernelOp Op, const moma::mw::Bignum &Q,
                     BackendPlan &Out,
                     moma::rewrite::NttRing Ring =
                         moma::rewrite::NttRing::Cyclic,
                     moma::rewrite::ExecBackend Backend =
                         moma::rewrite::ExecBackend::Serial);

/// Median seconds over \p Reps of one backend pass of \p Op over \p N
/// elements (axpy broadcasts its scalar, like Dispatcher::axpy).
double backendBatchS(moma::runtime::KernelRegistry &Reg,
                     moma::runtime::KernelOp Op, const moma::mw::Bignum &Q,
                     size_t N, unsigned Reps,
                     moma::rewrite::ExecBackend Backend =
                         moma::rewrite::ExecBackend::Serial);

/// Median seconds over \p Reps of one runTransform (forward, or inverse
/// when \p Inverse) over \p Batch x \p NPoints elements.
double backendTransformS(moma::runtime::KernelRegistry &Reg,
                         const moma::mw::Bignum &Q, size_t NPoints,
                         size_t Batch, moma::rewrite::NttRing Ring,
                         bool Inverse, unsigned Reps);

/// Median seconds of the backend work a Dispatcher::polyMul performs:
/// three transforms and one pointwise multiply.
double backendPolyMulS(moma::runtime::KernelRegistry &Reg,
                       const moma::mw::Bignum &Q, size_t NPoints,
                       size_t Batch, moma::rewrite::NttRing Ring,
                       unsigned Reps);

/// Median seconds of \p Fn over \p Reps calls (after one untimed call).
template <typename Fn> double medianSeconds(unsigned Reps, Fn &&F) {
  F();
  std::vector<double> Ts;
  for (unsigned I = 0; I < Reps; ++I) {
    auto T0 = Clock::now();
    F();
    Ts.push_back(secondsSince(T0));
  }
  return median(Ts);
}

/// Times \p Call and \p Backend (the replay of the layer below it) in
/// \p Reps alternating pairs after one untimed call of each; returns the
/// median call and the median per-pair difference (the call's self time),
/// so drift during the measurement cancels pair by pair.
template <typename CallFn, typename BackendFn>
std::pair<double, double> pairedSelfS(unsigned Reps, CallFn &&Call,
                                      BackendFn &&Backend) {
  Call();
  Backend();
  auto Time = [](auto &&F) {
    auto T0 = Clock::now();
    F();
    return secondsSince(T0);
  };
  std::vector<double> Calls, Diffs;
  for (unsigned I = 0; I < Reps; ++I) {
    double C, B;
    if (I % 2) {
      B = Time(Backend);
      C = Time(Call);
    } else {
      C = Time(Call);
      B = Time(Backend);
    }
    Calls.push_back(C);
    Diffs.push_back(C - B);
  }
  return {median(Calls), median(Diffs)};
}

/// Sums the degradation and cache counters of every Dispatcher the census
/// drove, for dispatcher.fallback_dispatches / *_evictions.
void noteDispatcherCounters(const moma::runtime::Dispatcher &D);
void noteFallbackDispatches(std::uint64_t N);
/// Sums the registry counters of every registry the census built.
void noteRegistry(moma::runtime::KernelRegistry &Reg);
/// Emits the summed counters (call once, after every census).
void addCensusCounters(RunResult &Out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
