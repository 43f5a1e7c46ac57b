//===- perfbench/src/Shapes.cpp - Seeded inputs and oracle outputs --------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Shapes.h"

#include "field/PrimeGen.h"
#include "ntt/ReferenceDft.h"

using namespace perfbench;
using moma::mw::Bignum;
using moma::runtime::Dispatcher;

ZkpInputs perfbench::makeZkpInputs(std::uint64_t Seed, unsigned Width) {
  ZkpInputs In;
  In.Width = Width;
  In.Q = moma::field::evalModulus(Width);
  In.Words = Dispatcher::elemWords(In.Q);
  moma::Rng R(streamSeed(Seed, "zkp.w" + std::to_string(Width)));
  In.X0 = randomElems(R, In.Q, ZkpBatch * ZkpPoints);
  In.A = randomElems(R, In.Q, ZkpElems);
  In.B = randomElems(R, In.Q, ZkpElems);
  In.C = randomElems(R, In.Q, ZkpElems);
  In.Y0 = randomElems(R, In.Q, ZkpElems);
  In.Scalar = randomElems(R, In.Q, 1);
  return In;
}

bool perfbench::zkpTriple(Dispatcher &D, const ZkpInputs &In,
                          std::uint64_t *T, std::uint64_t *U,
                          std::uint64_t *Y) {
  return D.vmul(In.Q, In.A.data(), In.B.data(), T, ZkpElems) &&
         D.vadd(In.Q, T, In.C.data(), U, ZkpElems) &&
         D.axpy(In.Q, In.Scalar.data(), U, Y, ZkpElems);
}

ServeClassShape perfbench::serveShape(ServeClass C) {
  switch (C) {
  case ServeClass::PolyMul256: {
    Bignum Q = moma::field::evalModulus(256);
    return {C, Q, Dispatcher::elemWords(Q), ServePoly256Points, true,
            moma::rewrite::NttRing::Cyclic};
  }
  case ServeClass::NegaPolyMul60: {
    Bignum Q = moma::field::nttPrime(60, 16);
    return {C, Q, Dispatcher::elemWords(Q), ServeNega60Points, true,
            moma::rewrite::NttRing::Negacyclic};
  }
  case ServeClass::VMul384: {
    Bignum Q = moma::field::evalModulus(384);
    return {C, Q, Dispatcher::elemWords(Q), ServeVMul384Elems, false,
            moma::rewrite::NttRing::Cyclic};
  }
  }
  return {C, Bignum(), 0, 0, false, moma::rewrite::NttRing::Cyclic};
}

std::vector<ServePool> perfbench::makeServePools(std::uint64_t Seed) {
  std::vector<ServePool> Pools;
  for (unsigned CI = 0; CI < NumServeClasses; ++CI) {
    ServePool P;
    P.Shape = serveShape(static_cast<ServeClass>(CI));
    const ServeClassShape &S = P.Shape;
    moma::Rng R(streamSeed(Seed, std::string("serve.") +
                                     serveClassName(S.Class)));
    for (size_t I = 0; I < ServePoolSize; ++I) {
      P.A.push_back(randomElems(R, S.Q, S.Elems));
      P.B.push_back(randomElems(R, S.Q, S.Elems));
      auto A = moma::runtime::unpackBatch(P.A.back(), S.Words);
      auto B = moma::runtime::unpackBatch(P.B.back(), S.Words);
      std::vector<Bignum> Want;
      if (S.Poly) {
        Want = moma::ntt::referencePolyMulRing(
            A, B, S.Q, S.Ring == moma::rewrite::NttRing::Negacyclic);
      } else {
        for (size_t E = 0; E < S.Elems; ++E)
          Want.push_back(A[E].mulMod(B[E], S.Q));
      }
      P.Want.push_back(moma::runtime::packBatch(Want, S.Words));
    }
    Pools.push_back(std::move(P));
  }
  return Pools;
}
