// Strided-batched GEMM — the cuBLAS-style single-call interface the FNO
// pipelines and pointwise layers use: one logical launch covering `batch`
// independent GEMMs with fixed strides between operand instances.
#pragma once

#include <cstddef>

#include "gemm/config.hpp"
#include "tensor/complex.hpp"

namespace turbofno::gemm {

struct BatchedStrides {
  std::ptrdiff_t a = 0;  // elements between consecutive A instances (0 = shared A)
  std::ptrdiff_t b = 0;  // elements between consecutive B instances (0 = shared B)
  std::ptrdiff_t c = 0;  // elements between consecutive C instances
};

/// For each i < batch:
///   C_i = act(alpha * A_i * B_i + beta * C_i)      (row-major, as cgemm()).
/// A stride of zero broadcasts that operand across the batch (the FNO case:
/// one weight matrix A shared by every batch entry).  Parallelized over
/// (batch x C tiles); instance i's results depend only on A_i, B_i and C_i,
/// so they are bitwise the same in any batch and at any thread count.
void cgemm_batched(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                   std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides,
                   Act act = Act::None);

/// The float path (gemm/cgemm.hpp) with the same contract on real operands.
void sgemm_batched(std::size_t M, std::size_t N, std::size_t K, float alpha, const float* A,
                   std::size_t lda, const float* B, std::size_t ldb, float beta, float* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides,
                   Act act = Act::None);

}  // namespace turbofno::gemm
