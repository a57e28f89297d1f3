// Blocked single-precision GEMM (row-major): complex (cgemm) and real
// (sgemm_batched in gemm/batched.hpp, the float path).
//
// The public entry points dispatch to one templated tile loop; the tile
// shapes are the paper's Table 1 configurations, plus a template header
// (`cgemm_tiled`) so benches can sweep alternatives (Section 3.1's "fully
// templated CGEMM kernel").  The tile task, its packing and its epilogue
// are templated on the element type: c32 runs split-complex (re, im) float
// planes, float one plane of the same micro-kernel (micro_kernel.hpp).  The
// float path is the real FNO lane's pointwise GEMM; each of its outputs is
// an ascending-k FMA chain from zero, so with alpha = 1 and beta in {0, 1}
// it is bitwise equal to the naive `acc += a * b` loop compiled with FMA.
//
// Every entry point computes C = act(alpha * A * B + beta * C), `act` being
// the epilogue activation (Act, gemm/config.hpp; default none).  alpha = 1
// and beta = 1 skip their multiplies, so act(A * B + C) rounds exactly as
// "GEMM, then add, then activation".  Each C tile is one task with a fixed
// k order, so results are independent of the thread count and of the other
// tiles or batch items in the call.
#pragma once

#include <cstddef>
#include <cstdint>

#include "gemm/config.hpp"
#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

/// C[MxN] = act(alpha * A[MxK] * B[KxN] + beta * C)   (row-major).
/// Parallelized over C tiles; deterministic for a fixed tile config.
/// Runs the SIMD backend the library was compiled with (simd::Active).
void cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
           const c32* B, std::size_t ldb, c32 beta, c32* C, std::size_t ldc,
           Act act = Act::None);

/// Same kernel with an explicit tile configuration (for the ablation bench).
template <class Cfg>
void cgemm_tiled(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                 std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                 std::size_t ldc);

/// Explicit-backend variants so benches and parity tests can pit the scalar
/// and SIMD code paths against each other inside one binary.  Instantiated
/// in cgemm.cpp for {FusedTiles, StandaloneTiles} x {ScalarBackend, Active}.
template <class Cfg, class Backend>
void cgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                         std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                         std::size_t ldc, Act act = Act::None);
template <class Cfg, class Backend>
void sgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, float alpha,
                         const float* A, std::size_t lda, const float* B, std::size_t ldb,
                         float beta, float* C, std::size_t ldc, Act act = Act::None);

// Explicitly instantiated tile configurations (defined in cgemm.cpp).
using AblTilesSmall = Tiles<16, 16, 8, 4, 4>;
using AblTilesWideN = Tiles<32, 64, 8, 4, 4>;
using AblTilesTallM = Tiles<64, 32, 8, 4, 4>;
using AblTilesDeepK = Tiles<32, 32, 16, 4, 4>;
using AblTilesReg2 = Tiles<32, 32, 8, 2, 2>;
using AblTilesReg8 = Tiles<64, 64, 8, 8, 8>;

/// Bytes a cache-oblivious observer would count for one blocked CGEMM pass
/// (A and B read once per C tile row/col, C read+written once).
std::uint64_t cgemm_bytes(std::size_t M, std::size_t N, std::size_t K, const TileShape& tiles,
                          bool beta_nonzero) noexcept;

}  // namespace turbofno::gemm
