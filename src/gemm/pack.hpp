// Operand packing for the blocked GEMM.
//
// Each k-slice of a panel stores the element's planes one after another
// (see micro_kernel.hpp): all reals then all imaginaries for c32, one plane
// for float.  The micro-kernel's inner loop is then pure vertical FMA with
// no shuffles:
//   Apack[k] = { plane 0 [0..Mtb), plane 1 [0..Mtb) }
//   Bpack[k] = { plane 0 [0..Ntb), plane 1 [0..Ntb) }
//
// Packing zero-fills tile remainders so the micro-kernel never branches on
// edges; zeros contribute nothing to the accumulation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "gemm/micro_kernel.hpp"

namespace turbofno::gemm {

/// A panel: Apack[k][p][i] = plane p of A[i0+i, k0+k].  Rows beyond `mi` /
/// depth beyond `kc` zeroed.  A is walked down a column (stride lda), so
/// this is a scalar gather regardless of backend.
template <class P, std::size_t Mtb, std::size_t Ktb, class T>
inline void pack_a_tile(float* Apack, const T* A, std::size_t lda, std::size_t i0,
                        std::size_t k0, std::size_t mi, std::size_t kc) {
  for (std::size_t k = 0; k < Ktb; ++k) {
    float* dst = Apack + k * P::count * Mtb;
    if (k < kc) {
      const T* src = A + i0 * lda + (k0 + k);
      for (std::size_t i = 0; i < mi; ++i) P::put(dst + i, Mtb, src[i * lda]);
      for (std::size_t p = 0; p < P::count; ++p) {
        std::fill(dst + p * Mtb + mi, dst + (p + 1) * Mtb, 0.0f);
      }
    } else {
      std::memset(dst, 0, P::count * Mtb * sizeof(float));
    }
  }
}

/// B panel: Bpack[k][p][j] = plane p of B[k0+k, j0+j]; columns beyond `nj`
/// / depth beyond `kc` zeroed.  B rows are contiguous, so the split runs at
/// vector width.
template <class P, std::size_t Ntb, std::size_t Ktb, class T>
inline void pack_b_tile(float* Bpack, const T* B, std::size_t ldb, std::size_t k0,
                        std::size_t j0, std::size_t kc, std::size_t nj) {
  for (std::size_t k = 0; k < Ktb; ++k) {
    float* dst = Bpack + k * P::count * Ntb;
    if (k < kc) {
      P::put_run(dst, Ntb, B + (k0 + k) * ldb + j0, nj);
      for (std::size_t p = 0; p < P::count; ++p) {
        std::fill(dst + p * Ntb + nj, dst + (p + 1) * Ntb, 0.0f);
      }
    } else {
      std::memset(dst, 0, P::count * Ntb * sizeof(float));
    }
  }
}

}  // namespace turbofno::gemm
