//===- perfbench/src/FheCircuit.cpp - fhe-ctmul: depth-2 circuits ---------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One thread, closed loop, n = 1024 and L = 4. Each circuit copies fresh
/// X, Y and Z ciphertexts, computes P = X*Y and Q = X*Z (X is NTT-resident
/// by the second product), relinearizes and rescales both, then rescales
/// P*Q one level down (the relinearization key covers only the full
/// chain). The path is many one-word per-limb dispatches: RnsTensor domain
/// tracking, CRT edges and the rnsresc kernels all run, while the
/// wide-kernel bodies and the Server are bypassed. Sampled circuits are
/// brought back with ciphertextToRef and compared bit for bit with the
/// fhe/Reference replay of the same circuit; decryption is checked against
/// refDecrypt.
///
//===----------------------------------------------------------------------===//

#include "FheCircuit.h"
#include "Layers.h"

#include <memory>

using namespace perfbench;
using moma::runtime::Dispatcher;
using moma::runtime::KernelRegistry;
namespace fhe = moma::fhe;

namespace {

/// Cold set-ups per run; setup_s is their median. Each is dominated by
/// keygen and three host-side encryptions (about 3 s together), so a
/// median of three still moved 30% between runs on a busy host.
constexpr unsigned FheSetupReps = 7;

} // namespace

bool perfbench::fheSetUp(const Config &C, FheProgram &P, std::string &Err,
                         Tracer &Tr) {
  moma::jit::HostJitOptions JO;
  JO.CacheDir = freshJitDir(C, "fhe");
  P.Reg = std::make_unique<KernelRegistry>(JO);
  P.D = std::make_unique<Dispatcher>(*P.Reg);
  P.FC = std::make_unique<fhe::FheContext>();
  fhe::FheOptions FO;
  FO.NPoints = FhePoints;
  FO.NumLimbs = FheLimbs;
  if (!fhe::FheContext::create(FO, *P.FC, &Err))
    return false;
  moma::Rng R(streamSeed(C.Seed, "fhe.keys"));
  auto T0 = Clock::now();
  {
    Tracer::Scope S(Tr, "fhe.keygen");
    P.SK = fhe::keyGen(*P.FC, R);
    if (!fhe::relinKeyGen(*P.FC, *P.D, P.SK, R, P.RK)) {
      Err = "relinKeyGen: " + P.D->error();
      return false;
    }
  }
  P.KeyGenS = secondsSince(T0);
  auto Msgs = makeFheMessages(C.Seed, FhePoints,
                              P.FC->plainModulus().low64());
  fhe::Ciphertext *Cts[] = {&P.X, &P.Y, &P.Z};
  P.EncryptS.clear();
  for (int I = 0; I < 3; ++I) {
    Tracer::Scope S(Tr, "fhe.encrypt");
    auto T1 = Clock::now();
    if (!fhe::encrypt(*P.FC, *P.D, P.SK, Msgs[I], R, *Cts[I])) {
      Err = "encrypt: " + P.D->error();
      return false;
    }
    P.EncryptS.push_back(secondsSince(T1));
  }
  // One warm-up circuit: the sub-chain plans compile here, not in the
  // first timed circuit.
  fhe::Ciphertext Out;
  if (!fheCircuit(P, Out, Tr, 0)) {
    Err = "warm-up circuit: " + P.D->error();
    return false;
  }
  return true;
}

bool perfbench::fheCircuit(FheProgram &P, fhe::Ciphertext &Out, Tracer &Tr,
                           std::uint64_t Id, CircuitSteps *Steps) {
  fhe::Ciphertext X = P.X, Y = P.Y, Z = P.Z, Pp, Qq;
  Dispatcher &D = *P.D;
  Tracer::Scope S(Tr, "fhe.circuit", Id);
  auto Step = [&](const char *Name, std::vector<double> *Into, auto &&Fn) {
    Tracer::Scope Sp(Tr, Name, Id);
    auto T0 = Clock::now();
    bool Ok = Fn();
    if (Into)
      Into->push_back(secondsSince(T0));
    return Ok;
  };
  std::vector<double> *Mul = Steps ? &Steps->Mul : nullptr;
  std::vector<double> *Relin = Steps ? &Steps->Relin : nullptr;
  std::vector<double> *Resc = Steps ? &Steps->Rescale : nullptr;
  return Step("fhe.mul", Mul,
              [&] { return fhe::ciphertextMul(D, X, Y, Pp); }) &&
         Step("fhe.relinearize", Relin,
              [&] { return fhe::relinearize(D, Pp, P.RK); }) &&
         Step("fhe.rescale", Resc, [&] { return fhe::rescale(D, Pp); }) &&
         Step("fhe.mul", Mul,
              [&] { return fhe::ciphertextMul(D, X, Z, Qq); }) &&
         Step("fhe.relinearize", Relin,
              [&] { return fhe::relinearize(D, Qq, P.RK); }) &&
         Step("fhe.rescale", Resc, [&] { return fhe::rescale(D, Qq); }) &&
         Step("fhe.mul", Mul,
              [&] { return fhe::ciphertextMul(D, Pp, Qq, Out); }) &&
         Step("fhe.rescale", Resc, [&] { return fhe::rescale(D, Out); });
}

bool perfbench::fheReference(FheProgram &P, fhe::RefCiphertext &Out,
                             std::string &Err) {
  fhe::RefCiphertext RX, RY, RZ;
  fhe::Ciphertext X = P.X, Y = P.Y, Z = P.Z;
  if (!fhe::ciphertextToRef(*P.D, X, RX) ||
      !fhe::ciphertextToRef(*P.D, Y, RY) ||
      !fhe::ciphertextToRef(*P.D, Z, RZ)) {
    Err = "ciphertextToRef: " + P.D->error();
    return false;
  }
  // The replay costs seconds of Bignum schoolbook products; a traced run
  // sets up the same seeded circuit several times, so the last replay is
  // reused when its inputs and key are the same values.
  static struct {
    fhe::RefCiphertext RX, RY, RZ;
    fhe::RefRelinKey RK;
    fhe::RefCiphertext Out;
  } Last;
  if (!Last.Out.empty() && Last.RX == RX && Last.RY == RY && Last.RZ == RZ &&
      Last.RK.A == P.RK.Ref.A && Last.RK.B == P.RK.Ref.B) {
    Out = Last.Out;
    return true;
  }
  const moma::runtime::RnsContext &Full = P.FC->rns();
  const moma::runtime::RnsContext &Down = Full.subChain(FheLimbs - 1);
  bool Neg = P.FC->ring() == moma::rewrite::NttRing::Negacyclic;
  auto Product = [&](const fhe::RefCiphertext &A,
                     const fhe::RefCiphertext &B) {
    return fhe::refRescale(
        fhe::refRelinearize(fhe::refMul(A, B, Full.modulus(), Neg),
                            P.RK.Ref, Full, Neg),
        Full);
  };
  Out = fhe::refRescale(
      fhe::refMul(Product(RX, RY), Product(RX, RZ), Down.modulus(), Neg),
      Down);
  Last = {RX, RY, RZ, P.RK.Ref, Out};
  return true;
}

std::vector<std::uint64_t>
perfbench::fheReferencePlain(FheProgram &P, const fhe::RefCiphertext &Want) {
  const moma::runtime::RnsContext &Level =
      P.FC->rns().subChain(FheLimbs - 2);
  return fhe::refDecrypt(Want, P.SK.Ref, Level.modulus(),
                         P.FC->plainModulus(),
                         P.FC->ring() == moma::rewrite::NttRing::Negacyclic);
}

bool perfbench::fheCheck(FheProgram &P, fhe::Ciphertext &Got,
                         const fhe::RefCiphertext &Want,
                         const std::vector<std::uint64_t> *WantPlain,
                         std::string &Why) {
  fhe::RefCiphertext GotRef;
  if (!fhe::ciphertextToRef(*P.D, Got, GotRef)) {
    Why = "ciphertextToRef: " + P.D->error();
    return false;
  }
  if (GotRef != Want) {
    Why = "circuit output differs from the Reference replay";
    return false;
  }
  if (!WantPlain)
    return true;
  std::vector<std::uint64_t> Plain;
  if (!fhe::decrypt(*P.FC, *P.D, P.SK, Got, Plain)) {
    Why = "decrypt: " + P.D->error();
    return false;
  }
  if (Plain != *WantPlain) {
    Why = "decryption differs from refDecrypt";
    return false;
  }
  return true;
}

void perfbench::runFhe(const Config &C, Tracer &Tr, RunResult &Out) {
  std::unique_ptr<FheProgram> P;
  std::vector<double> Setups;
  Tracer Off(false);
  for (unsigned Rep = 0, N = setupReps(C, FheSetupReps); Rep < N; ++Rep) {
    // Tear the previous set-up down in member order before the next.
    P.reset();
    P = std::make_unique<FheProgram>();
    std::string Err;
    auto T0 = Clock::now();
    bool Ok = fheSetUp(C, *P, Err, Off);
    Setups.push_back(secondsSince(T0));
    if (!Ok) {
      Out.mismatch("fhe set-up failed: " + Err);
      return;
    }
  }

  // Circuits to check: the first, then every Stride-th from a seeded
  // offset. Their outputs are kept aside and checked after the loop.
  moma::Rng R(streamSeed(C.Seed, "fhe.check"));
  const std::uint64_t Stride = 32, Offset = R.below(Stride);
  std::vector<fhe::Ciphertext> Kept;
  std::vector<double> Times;
  double Elapsed = 0;
  auto Start = Clock::now();
  for (std::uint64_t Id = 1;; ++Id) {
    fhe::Ciphertext Res;
    auto T0 = Clock::now();
    bool Ok = fheCircuit(*P, Res, Tr, Id);
    double Dt = secondsSince(T0);
    ++Out.Attempted;
    if (!Ok) {
      ++Out.Failed;
    } else {
      Times.push_back(Dt);
      if (Id == 1 || Id % Stride == Offset)
        Kept.push_back(std::move(Res));
    }
    Elapsed = secondsSince(Start);
    if ((Elapsed >= C.Seconds && Times.size() >= 20) ||
        Elapsed >= 4 * C.Seconds)
      break;
  }

  fhe::RefCiphertext Want;
  std::string Why;
  auto RefT0 = Clock::now();
  if (!fheReference(*P, Want, Why)) {
    Out.mismatch("fhe reference replay failed: " + Why);
  } else {
    // Every circuit computes the same value, so one refDecrypt serves all.
    std::vector<std::uint64_t> WantPlain = fheReferencePlain(*P, Want);
    Out.detail("reference_s", secondsSince(RefT0), "s");
    // Decryption (host Bignum work, about a second) is checked on the first
    // kept circuit; the others must then match the replay bit for bit.
    auto CheckT0 = Clock::now();
    for (size_t I = 0; I < Kept.size(); ++I)
      if (!fheCheck(*P, Kept[I], Want, I == 0 ? &WantPlain : nullptr, Why)) {
        Out.mismatch("fhe: " + Why);
        break;
      }
    Out.detail("check_s", secondsSince(CheckT0), "s");
  }

  double OpS = percentile(Times, OpTimeQuantile);
  addCommonMetrics(Out, median(Setups));
  Out.add("op_ms", OpS * 1e3, "ms");
  // Throughput over the loop's wall time: unlike op_ms, it sees stalls
  // and slowdowns that spare the fastest circuit.
  Out.add("ops_per_s", Times.size() / Elapsed, "1/s");
  double Tail = highestTailPercentile(Times.size());
  Out.detail("circuit_ms_p10", percentile(Times, 0.1) * 1e3, "ms");
  Out.detail("circuit_ms_p50", median(Times) * 1e3, "ms");
  Out.detail("circuit_ms_p90", percentile(Times, 0.9) * 1e3, "ms");
  Out.detail("circuit_tail_percentile", Tail, "fraction");
  Out.detail("circuit_ms_tail", percentile(Times, Tail) * 1e3, "ms");
  Out.detail("circuits", double(Times.size()), "count");
  Out.detail("circuits_checked", double(Kept.size()), "count");
}

void perfbench::censusFhe(const Config &C, Tracer &Tr, RunResult &Out) {
  FheProgram P;
  std::string Err;
  if (!fheSetUp(C, P, Err, Tr)) {
    Out.mismatch("census: fhe set-up failed: " + Err);
    return;
  }
  Dispatcher &D = *P.D;
  const size_t L = FheLimbs;
  Out.add("fhe.keygen_s", P.KeyGenS, "s");
  Out.add("fhe.encrypt_ms", median(P.EncryptS) * 1e3, "ms");

  // Step times over enough circuits for a p90 with ten samples beyond.
  CircuitSteps Steps;
  std::vector<double> CircuitS;
  Dispatcher::DispatchStats Before = D.dispatchStats();
  const unsigned Circuits = 100;
  for (unsigned I = 1; I <= Circuits; ++I) {
    fhe::Ciphertext Res;
    auto T0 = Clock::now();
    if (!fheCircuit(P, Res, Tr, I, &Steps))
      Out.mismatch("census: circuit failed: " + D.error());
    CircuitS.push_back(secondsSince(T0));
  }
  Dispatcher::DispatchStats After = D.dispatchStats();
  Out.add("fhe.mul_ms", median(Steps.Mul) * 1e3, "ms");
  Out.add("fhe.relin_ms", median(Steps.Relin) * 1e3, "ms");
  Out.add("fhe.rescale_ms", median(Steps.Rescale) * 1e3, "ms");
  Out.add("fhe.circuit_ms_p90", percentile(CircuitS, 0.9) * 1e3, "ms");
  Out.add("fhe.transforms_per_circuit",
          double(After.Transforms - Before.Transforms) / Circuits, "count");
  Out.add("dispatcher.fhe_stage_groups_per_circuit",
          double(After.StageGroups - Before.StageGroups) / Circuits,
          "count");
  Out.add("dispatcher.fhe_batches_per_circuit",
          double(After.Batches - Before.Batches) / Circuits, "count");

  // The lazy-NTT contract: a product of fresh operands pays 4L forward
  // transforms, a product reusing the NTT-resident X pays 2L.
  {
    fhe::Ciphertext X = P.X, Y = P.Y, Z = P.Z, Pp, Qq;
    auto B0 = D.dispatchStats().Transforms;
    bool Ok = fhe::ciphertextMul(D, X, Y, Pp);
    auto B1 = D.dispatchStats().Transforms;
    Ok = Ok && fhe::ciphertextMul(D, X, Z, Qq);
    auto B2 = D.dispatchStats().Transforms;
    if (!Ok)
      Out.mismatch("census: ciphertextMul failed: " + D.error());
    Out.add("fhe.transforms_fresh_mul", double(B1 - B0), "count");
    Out.add("fhe.transforms_resident_mul", double(B2 - B1), "count");
    if (B1 - B0 != 4 * L || B2 - B1 != 2 * L)
      Out.mismatch("census: ciphertext products broke the 4L/2L transform "
                   "contract");
  }

  // The RNS layer at the ciphertext shape: CRT edges and rescale on one
  // n-coefficient polynomial over the full chain.
  const moma::runtime::RnsContext &Ctx = P.FC->rns();
  const moma::rewrite::NttRing Ring = P.FC->ring();
  moma::Rng R(streamSeed(C.Seed, "census.rns"));
  std::vector<std::uint64_t> Wide = randomElems(R, Ctx.modulus(), FhePoints),
                             Back(Wide.size());
  moma::runtime::RnsTensor T(Ctx, FhePoints, 1, Ring);
  {
    Tracer::Scope S(Tr, "rns.fromWide");
    Out.add("rns.from_wide_us",
            medianSeconds(25, [&] { D.fromWide(Wide.data(), T); }) * 1e6,
            "us");
  }
  {
    Tracer::Scope S(Tr, "rns.toWide");
    Out.add("rns.to_wide_us",
            medianSeconds(25, [&] { D.toWide(T, Back.data()); }) * 1e6,
            "us");
  }
  if (Back != Wide)
    Out.mismatch("census: fromWide/toWide round trip not exact");
  {
    Tracer::Scope S(Tr, "rns.rescale");
    std::vector<double> Ts;
    for (int I = 0; I < 25; ++I) {
      moma::runtime::RnsTensor Copy = T;
      auto T0 = Clock::now();
      if (!D.rnsRescale(Copy))
        Out.mismatch("census: rnsRescale failed: " + D.error());
      Ts.push_back(secondsSince(T0));
    }
    Out.add("rns.rescale_us", median(Ts) * 1e6, "us");
  }

  // Dispatcher self time of the tensor product: NTT-resident operands, so
  // the call is L pointwise multiplies plus domain bookkeeping.
  {
    moma::runtime::RnsTensor A = T, B = T, Prod(Ctx, FhePoints, 1, Ring);
    D.rnsNttForward(A);
    D.rnsNttForward(B);
    Tracer::Scope S(Tr, "dispatcher.rnsPolyMul");
    double CallS = medianSeconds(25, [&] { D.rnsPolyMul(A, B, Prod); });
    double BackendS = 0;
    for (size_t Limb = 0; Limb < L; ++Limb)
      BackendS += backendBatchS(*P.Reg, moma::runtime::KernelOp::MulMod,
                                Ctx.limb(Limb), FhePoints, 25);
    Out.add("dispatcher.rnsPolyMul_us", CallS * 1e6, "us");
    Out.add("dispatcher.rnsPolyMul_self_us", (CallS - BackendS) * 1e6, "us");
  }
  noteDispatcherCounters(D);
  noteRegistry(*P.Reg);
}
