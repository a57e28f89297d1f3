#include "fused/fft_variant.hpp"

#include "tensor/simd.hpp"

namespace turbofno::fused {

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
