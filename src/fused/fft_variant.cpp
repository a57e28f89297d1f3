#include "fused/fft_variant.hpp"

#include "fft/plan_cache.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fused {

namespace {

fft::PlanDesc trunc_desc(std::size_t n, std::size_t modes) {
  fft::PlanDesc d;
  d.n = n;
  d.dir = fft::Direction::Forward;
  d.keep = modes;
  return d;
}

fft::PlanDesc pad_desc(std::size_t n, std::size_t modes) {
  fft::PlanDesc d;
  d.n = n;
  d.dir = fft::Direction::Inverse;
  d.nonzero = modes;
  return d;
}

}  // namespace

KLoopFft::KLoopFft(std::size_t n, std::size_t modes)
    : modes_(modes), plan_(fft::acquire_plan(trunc_desc(n, modes))) {}

void KLoopFft::forward_tile(const c32* u_base, std::size_t channel_stride, std::size_t count,
                            c32* tile, std::size_t tile_ld, std::span<c32> work) const {
  for (std::size_t kk = 0; kk < count; ++kk) {
    plan_->execute_one(u_base + kk * channel_stride, 1, tile + kk * tile_ld, 1, work);
  }
}

EpilogueIfft::EpilogueIfft(std::size_t n, std::size_t modes)
    : modes_(modes), plan_(fft::acquire_plan(pad_desc(n, modes))) {}

void EpilogueIfft::inverse_row(const c32* c_row, c32* v_row, std::span<c32> work) const {
  plan_->execute_one(c_row, 1, v_row, 1, work);
}

void rank_update(c32* C, std::size_t ldc, const c32* W, std::size_t ldw, std::size_t k0,
                 const c32* At, std::size_t lda_t, std::size_t out_dim, std::size_t m,
                 std::size_t kc) {
  using B = simd::Active;
  for (std::size_t o = 0; o < out_dim; ++o) {
    c32* crow = C + o * ldc;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      const c32 wv = W[o * ldw + k0 + kk];
      const typename B::pvec wvv = B::pset1(wv);
      const c32* arow = At + kk * lda_t;
      std::size_t f = 0;
      for (; f + B::planes <= m; f += B::planes) {
        B::pstore(crow + f, B::pcmadd(B::pload(crow + f), wvv, B::pload(arow + f)));
      }
      for (; f < m; ++f) {
        cmadd(crow[f], wv, arow[f]);
      }
    }
  }
}

void rank_update_split(float* c_re, float* c_im, const c32* W, std::size_t ldw, std::size_t k0,
                       const float* at_re, const float* at_im, std::size_t ld,
                       std::size_t out_dim, std::size_t kc) {
  using B = simd::Active;
  using V = typename B::cvec;
  constexpr std::size_t kStep = 2 * B::lanes;  // two accumulator vectors in flight
  for (std::size_t o = 0; o < out_dim; ++o) {
    float* cre = c_re + o * ld;
    float* cim = c_im + o * ld;
    const c32* wrow = W + o * ldw + k0;
    std::size_t f = 0;
    for (; f + kStep <= ld; f += kStep) {
      V acc0 = B::load_split(cre + f, cim + f);
      V acc1 = B::load_split(cre + f + B::lanes, cim + f + B::lanes);
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const V wv = B::broadcast(wrow[kk]);
        const float* are = at_re + kk * ld + f;
        const float* aim = at_im + kk * ld + f;
        acc0 = B::cmadd(acc0, wv, B::load_split(are, aim));
        acc1 = B::cmadd(acc1, wv, B::load_split(are + B::lanes, aim + B::lanes));
      }
      B::store_split(cre + f, cim + f, acc0);
      B::store_split(cre + f + B::lanes, cim + f + B::lanes, acc1);
    }
    for (; f < ld; f += B::lanes) {
      V acc = B::load_split(cre + f, cim + f);
      for (std::size_t kk = 0; kk < kc; ++kk) {
        acc = B::cmadd(acc, B::broadcast(wrow[kk]),
                       B::load_split(at_re + kk * ld + f, at_im + kk * ld + f));
      }
      B::store_split(cre + f, cim + f, acc);
    }
  }
}

}  // namespace turbofno::fused
