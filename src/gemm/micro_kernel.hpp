// Register-tile micro-kernel of the blocked GEMM.
//
// Packed operand layout (both k-major, split into float planes) so the inner
// loop streams contiguously, the CPU analogue of the shared-memory A/B tiles
// in the paper's Figure 9 pseudocode:
//   Apack[Ktb][planes][Mtb]  — Apack[k][p][i] = plane p of A[i, k0+k]
//   Bpack[Ktb][planes][Ntb]  — Bpack[k][p][j] = plane p of B[k0+k, j]
//
// The element type picks the planes (`Planes<B, T>`): a c32 operand is two
// (re, im), so the Mt x JW register block holds re/im vector pairs and each
// k step is a B-vector load, Mt broadcasts and Mt * JW/lanes complex FMAs
// with no shuffles; a float operand is one plane and each step is plain
// float FMAs.  Either way every accumulator is an ascending-k FMA chain
// started from zero.
#pragma once

#include <algorithm>
#include <cstddef>

#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

/// How the packed kernel sees an element type T on backend B.
template <class B, class T>
struct Planes;

/// c32: split-complex planes (re, then im `stride` floats later).
template <class B>
struct Planes<B, c32> {
  static constexpr std::size_t count = 2;
  static constexpr std::size_t lanes = B::lanes;
  using V = typename B::cvec;
  /// Register-block width for a config whose scalar register tile is
  /// Mt x Nt: at least one full vector, otherwise Nt.
  template <std::size_t Nt>
  static constexpr std::size_t jblock = Nt >= B::lanes ? Nt : B::lanes;

  static V load(const float* p, std::size_t stride) noexcept {
    return B::load_split(p, p + stride);
  }
  static void store(float* p, std::size_t stride, V v) noexcept {
    B::store_split(p, p + stride, v);
  }
  static V broadcast(const float* p, std::size_t stride) noexcept {
    return B::broadcast_split(p[0], p[stride]);
  }
  static V madd(V acc, V a, V b) noexcept { return B::cmadd(acc, a, b); }
  static V mul(V a, V b) noexcept { return B::cmul(a, b); }

  /// Packing: one element, and a contiguous run deinterleaved at vector
  /// width.
  static void put(float* p, std::size_t stride, c32 v) noexcept {
    p[0] = v.re;
    p[stride] = v.im;
  }
  static void put_run(float* p, std::size_t stride, const c32* src, std::size_t n) noexcept {
    simd::split_planes<B>(src, p, p + stride, n);
  }
};

/// float: one plane.  Two vectors per row of the register block (8 float
/// accumulators at Mt = 4) keep both FMA ports busy.
template <class B>
struct Planes<B, float> {
  static constexpr std::size_t count = 1;
  static constexpr std::size_t lanes = B::lanes;
  using V = typename B::fvec;
  template <std::size_t Nt>
  static constexpr std::size_t jblock = Nt >= 2 * B::lanes ? Nt : 2 * B::lanes;

  static V load(const float* p, std::size_t) noexcept { return B::load(p); }
  static void store(float* p, std::size_t, V v) noexcept { B::store(p, v); }
  static V broadcast(const float* p, std::size_t) noexcept { return B::broadcast(*p); }
  static V madd(V acc, V a, V b) noexcept { return B::fmadd(acc, a, b); }
  static V mul(V a, V b) noexcept { return B::mul(a, b); }

  static void put(float* p, std::size_t, float v) noexcept { *p = v; }
  static void put_run(float* p, std::size_t, const float* src, std::size_t n) noexcept {
    std::copy(src, src + n, p);
  }
};

/// Accumulator tile += Apack panel x Bpack panel over kc steps.
///
/// `acc` holds the Mtb x Ntb tile as P::count planes of Mtb * Ntb floats,
/// element (i, j) at [i * Ntb + j] of each.  The (i0, j0) register block of
/// shape Mt x JW stays in registers for the whole kc loop.
template <class P, std::size_t Mt, std::size_t JW, std::size_t Mtb, std::size_t Ntb>
inline void micro_accumulate(float* acc, const float* Apack, const float* Bpack, std::size_t kc,
                             std::size_t i0, std::size_t j0) {
  static_assert(JW % P::lanes == 0, "j-block must be whole vectors");
  constexpr std::size_t NV = JW / P::lanes;
  constexpr std::size_t plane = Mtb * Ntb;
  using V = typename P::V;

  float* blk = acc + i0 * Ntb + j0;
  V r[Mt][NV];
  for (std::size_t i = 0; i < Mt; ++i) {
    for (std::size_t v = 0; v < NV; ++v) r[i][v] = P::load(blk + i * Ntb + v * P::lanes, plane);
  }

  for (std::size_t k = 0; k < kc; ++k) {
    const float* brow = Bpack + k * P::count * Ntb + j0;
    V b[NV];
    for (std::size_t v = 0; v < NV; ++v) b[v] = P::load(brow + v * P::lanes, Ntb);
    const float* acol = Apack + k * P::count * Mtb + i0;
    for (std::size_t i = 0; i < Mt; ++i) {
      const V a = P::broadcast(acol + i, Mtb);
      for (std::size_t v = 0; v < NV; ++v) r[i][v] = P::madd(r[i][v], a, b[v]);
    }
  }

  for (std::size_t i = 0; i < Mt; ++i) {
    for (std::size_t v = 0; v < NV; ++v) P::store(blk + i * Ntb + v * P::lanes, plane, r[i][v]);
  }
}

}  // namespace turbofno::gemm
