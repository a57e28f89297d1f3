// The MAC phase of the k-loop-aligned FFT variant (paper Section 2.3 /
// Figure 6).
//
// Instead of batching FFT pencils along the spatial axis, the fused kernel
// iterates one "thread block" (here: one task) along the hidden dimension,
// transforming k_tb channels at a time with the lane's plan
// (execute_one, fused/lane.hpp) and depositing their truncated spectra
// straight into the tile that the CGEMM consumes as its streaming operand —
// the CPU analogue of writing the FFT output into the shared-memory A
// block.  This header holds the rank update that consumes that tile.
#pragma once

#include <cstddef>

#include "tensor/complex.hpp"

namespace turbofno::fused {

/// Split-complex rank update — the hot path of the fused pipelines.  The
/// accumulator and the spectra tile are separate re/im float planes with a
/// common leading dimension `ld` (a whole number of SIMD lanes, padding
/// zeroed), so the inner loop is a pure broadcast-FMA stream with no
/// shuffles:
///   c_{re,im}[o * ld + f]  += W[o, k0+kk] * at_{re,im}[kk * ld + f]
/// for all o < out_dim, kk < kc, f < ld.
void rank_update_split(float* c_re, float* c_im, const c32* W, std::size_t ldw, std::size_t k0,
                       const float* at_re, const float* at_im, std::size_t ld,
                       std::size_t out_dim, std::size_t kc);

}  // namespace turbofno::fused
