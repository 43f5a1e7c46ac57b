//===- perfbench/src/FheCircuit.h - The fhe-ctmul program state -----------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FHECIRCUIT_H
#define PERFBENCH_FHECIRCUIT_H

#include "Shapes.h"

#include "fhe/Fhe.h"

#include <memory>

namespace perfbench {

/// Everything a depth-2 circuit needs. Members are declared so that the
/// ciphertexts and keys die before the context they reference.
struct FheProgram {
  std::unique_ptr<moma::runtime::KernelRegistry> Reg;
  std::unique_ptr<moma::runtime::Dispatcher> D;
  std::unique_ptr<moma::fhe::FheContext> FC;
  moma::fhe::SecretKey SK;
  moma::fhe::RelinKey RK;
  moma::fhe::Ciphertext X, Y, Z;
  double KeyGenS = 0;             ///< keyGen + relinKeyGen
  std::vector<double> EncryptS;   ///< one per fresh ciphertext
};

/// Per-step wall times of the circuits that were asked to record them.
struct CircuitSteps {
  std::vector<double> Mul, Relin, Rescale;
};

/// Cold set-up: registry over an empty JIT cache, chain, keys, the three
/// encryptions and one warm-up circuit.
bool fheSetUp(const Config &C, FheProgram &P, std::string &Err, Tracer &Tr);

/// One depth-2 circuit on copies of X, Y and Z.
bool fheCircuit(FheProgram &P, moma::fhe::Ciphertext &Out, Tracer &Tr,
                std::uint64_t Id, CircuitSteps *Steps = nullptr);

/// The same circuit replayed on the fhe/Reference Bignum oracle.
bool fheReference(FheProgram &P, moma::fhe::RefCiphertext &Out,
                  std::string &Err);

/// refDecrypt of the replayed circuit output.
std::vector<std::uint64_t>
fheReferencePlain(FheProgram &P, const moma::fhe::RefCiphertext &Want);

/// Bit-exact comparison of \p Got with \p Want, plus decryption against
/// \p WantPlain when it is given.
bool fheCheck(FheProgram &P, moma::fhe::Ciphertext &Got,
              const moma::fhe::RefCiphertext &Want,
              const std::vector<std::uint64_t> *WantPlain, std::string &Why);

} // namespace perfbench

#endif // PERFBENCH_FHECIRCUIT_H
