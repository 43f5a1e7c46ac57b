//===- perfbench/src/Shapes.h - The workloads' exact shapes and inputs ----===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One place for every shape the benchmark runs at, shared by the timed
/// workloads and the traced per-layer census so both hit the same plans,
/// tables and sizes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SHAPES_H
#define PERFBENCH_SHAPES_H

#include "Bench.h"

#include "runtime/Dispatcher.h"

#include <memory>

namespace perfbench {

//===----------------------------------------------------------------------===//
// ZKP widths: the paper's Fig. 1-3 setting at three field sizes, measured
// by the traced census.
//===----------------------------------------------------------------------===//

/// Container widths handed to field::evalModulus: 252-, 380- and 764-bit
/// NTT-friendly primes (BN254-, BLS12-381- and MNT-753-sized fields).
constexpr unsigned ZkpWidths[] = {256, 384, 768};
constexpr unsigned ZkpLogN = 14;
constexpr size_t ZkpPoints = size_t(1) << ZkpLogN;
constexpr size_t ZkpBatch = 2;                  ///< transforms per round trip
constexpr size_t ZkpElems = size_t(1) << 16;    ///< elements per BLAS op

/// Butterflies in one forward + inverse round trip.
constexpr double zkpRoundTripButterflies() {
  return 2.0 * ZkpBatch * (ZkpPoints / 2) * ZkpLogN;
}

/// Seeded inputs of one width.
struct ZkpInputs {
  unsigned Width = 0;
  moma::mw::Bignum Q;
  unsigned Words = 0;
  std::vector<std::uint64_t> X0;        ///< ZkpBatch x ZkpPoints NTT input
  std::vector<std::uint64_t> A, B, C, Y0; ///< ZkpElems each
  std::vector<std::uint64_t> Scalar;    ///< the axpy broadcast a
};
ZkpInputs makeZkpInputs(std::uint64_t Seed, unsigned Width);

/// vmul(A,B)->T, vadd(T,C)->U, axpy(a,U,Y): the census's BLAS triple.
bool zkpTriple(moma::runtime::Dispatcher &D, const ZkpInputs &In,
               std::uint64_t *T, std::uint64_t *U, std::uint64_t *Y);

//===----------------------------------------------------------------------===//
// serve-open: mixed small requests through the Server.
//===----------------------------------------------------------------------===//

constexpr size_t ServePoly256Points = 64;  ///< cyclic polyMul at 256-bit q
constexpr size_t ServeNega60Points = 256;  ///< negacyclic polyMul, 60-bit q
constexpr size_t ServeVMul384Elems = 1024; ///< vmul at 384-bit q
constexpr size_t ServePoolSize = 16;       ///< pooled inputs per class

struct ServeClassShape {
  ServeClass Class;
  moma::mw::Bignum Q;
  unsigned Words;
  size_t Elems; ///< coefficients or elements per request
  bool Poly;
  moma::rewrite::NttRing Ring;
};
ServeClassShape serveShape(ServeClass C);

/// Pooled operands and the oracle's expected outputs of one class
/// (ntt::referencePolyMulRing for products, Bignum::mulMod for vmul).
struct ServePool {
  ServeClassShape Shape;
  std::vector<std::vector<std::uint64_t>> A, B, Want;
};
std::vector<ServePool> makeServePools(std::uint64_t Seed);

//===----------------------------------------------------------------------===//
// fhe-ctmul: depth-2 ciphertext circuits.
//===----------------------------------------------------------------------===//

constexpr size_t FhePoints = 1024;
constexpr unsigned FheLimbs = 4;

} // namespace perfbench

#endif // PERFBENCH_SHAPES_H
