// Backend-templated FFT butterfly kernels.
//
// The Stockham radix-2/radix-4 passes and their two pruned forms (the
// input-pruned pass of a zero-padded inverse, the output-pruned pass of a
// truncated forward) live here, parameterized on a simd backend
// (tensor/simd.hpp).  All of them are one butterfly body (detail::butterfly)
// told which legs are zero and which outputs are wanted, so:
//   - stockham.cpp / plan.cpp instantiate them with simd::Active,
//   - the SIMD micro bench and parity tests can instantiate the scalar and
//     AVX2 backends side by side in one binary.
//
// Vectorization strategy: every kernel's innermost loop runs over a
// contiguous run of butterflies (the q-loop over `s` adjacent outputs)
// using the backend's *packed* complex vectors (B::pvec, AoS order):
// butterflies are add/sub dominated, which packed lanes do shuffle-free, and
// the twiddle multiply is a single fmaddsub sequence.  Sub-lane passes
// (s < B::planes, i.e. the early stages of every transform) are transposed
// to lane-major form: each vector carries the same butterfly leg of several
// consecutive p groups and the outputs are shuffled back with the backend's
// zip/4x4 transpose primitives, so they run packed instead of on the scalar
// tail.  Remaining short runs fall through to the scalar tail, which is
// bit-identical to the seed's scalar code.
#pragma once

#include <cstddef>
#include <span>

#include "tensor/complex.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft::kernels {

namespace detail {

/// The radix-R butterfly before its twiddles, with legs j >= Legs known zero
/// and only outputs k < NK wanted: y[k] is the dense pass_radix2/4 value,
/// zero operands dropped.  `O` is a simd backend; the scalar tails run it as
/// simd::ScalarBackend, whose packed ops are plain c32 arithmetic.
template <class O, std::size_t R, bool Inverse, std::size_t Legs, std::size_t NK>
inline void butterfly(const typename O::pvec (&x)[R], typename O::pvec (&y)[R]) {
  using P = typename O::pvec;
  static_assert(Legs >= 1 && Legs <= R && NK >= 1 && NK <= R);
  if constexpr (Legs == 1) {
    for (std::size_t k = 0; k < NK; ++k) y[k] = x[0];
  } else if constexpr (R == 2) {
    y[0] = O::padd(x[0], x[1]);
    if constexpr (NK > 1) y[1] = O::psub(x[0], x[1]);
  } else {
    P t0 = x[0], t1 = x[0], t2 = x[1], d13 = x[1];
    if constexpr (Legs > 2) {
      t0 = O::padd(x[0], x[2]);
      t1 = O::psub(x[0], x[2]);
    }
    if constexpr (Legs > 3) {
      t2 = O::padd(x[1], x[3]);
      d13 = O::psub(x[1], x[3]);
    }
    const P t3 = Inverse ? O::pmul_pos_i(d13) : O::pmul_neg_i(d13);
    y[0] = O::padd(t0, t2);
    if constexpr (NK > 1) y[1] = O::padd(t1, t3);
    if constexpr (NK > 2) y[2] = O::psub(t0, t2);
    if constexpr (NK > 3) y[3] = O::psub(t1, t3);
  }
}

/// Twiddle W^j of a radix-R pass from the half-circle table `w` (length
/// R*l / 2), folding W(j + L/2) = -W(j) as pass_radix4 does.
template <std::size_t R>
inline c32 pass_twiddle(std::span<const c32> w, std::size_t l, std::size_t j) {
  const std::size_t half = R / 2 * l;
  return j < half ? w[j] : -w[j - half];
}

/// One butterfly group p of a q-run pass: for q in [q0, q1), writes outputs
/// k < NK of the butterfly over legs j < Legs, times twiddle W^{kp} when
/// Twiddled (p > 0) and times `scale` when Scaled.  Everything arrives by
/// value: the packed stores may alias any float, so state read through a
/// reference would be reloaded after every store.
template <class B, std::size_t R, bool Inverse, std::size_t Legs, std::size_t NK, bool Twiddled,
          bool Scaled>
inline void group_run(const c32* sp, c32* dp, std::size_t l, std::size_t s,
                      std::span<const c32> w, std::size_t p, std::size_t q0, std::size_t q1,
                      float scale) {
  using P = typename B::pvec;
  using S = simd::ScalarBackend;
  c32 wk[R] = {};
  P wv[R] = {};
  if constexpr (Twiddled) {
    for (std::size_t k = 1; k < NK; ++k) {
      wk[k] = pass_twiddle<R>(w, l, k * p);
      wv[k] = B::pset1(wk[k]);
    }
  }
  std::size_t q = q0;
  for (; q + B::planes <= q1; q += B::planes) {
    P x[R], y[R];
    for (std::size_t j = 0; j < Legs; ++j) x[j] = B::pload(sp + s * j * l + q);
    butterfly<B, R, Inverse, Legs, NK>(x, y);
    for (std::size_t k = 0; k < NK; ++k) {
      if constexpr (Twiddled) {
        if (k > 0) y[k] = B::pcmul(y[k], wv[k]);
      }
      if constexpr (Scaled) y[k] = B::pscale(y[k], scale);
      B::pstore(dp + s * k + q, y[k]);
    }
  }
  for (; q < q1; ++q) {
    c32 x[R], y[R];
    for (std::size_t j = 0; j < Legs; ++j) x[j] = sp[s * j * l + q];
    butterfly<S, R, Inverse, Legs, NK>(x, y);
    for (std::size_t k = 0; k < NK; ++k) {
      if constexpr (Twiddled) {
        if (k > 0) y[k] = y[k] * wk[k];
      }
      if constexpr (Scaled) y[k] = y[k] * scale;
      dp[s * k + q] = y[k];
    }
  }
}

/// The q-run form of every pass outside the lane-major (s < planes) forms:
/// every group p in [0, l) over q in [q0, q1) (group_run).  The q-run goes in
/// packed vectors from q0 with a scalar tail; the p == 0 group (all
/// twiddles 1) carries no multiply.
template <class B, std::size_t R, bool Inverse, std::size_t Legs, std::size_t NK, bool Scaled>
void run_groups_as(const c32* src, c32* dst, std::size_t l, std::size_t s,
                      std::span<const c32> w, std::size_t q0, std::size_t q1, float scale) {
  if (l == 0) return;
  group_run<B, R, Inverse, Legs, NK, false, Scaled>(src, dst, l, s, w, 0, q0, q1, scale);
  for (std::size_t p = 1; p < l; ++p) {
    group_run<B, R, Inverse, Legs, NK, true, Scaled>(src + s * p, dst + s * R * p, l, s, w, p,
                                                     q0, q1, scale);
  }
}

template <class B, std::size_t R, bool Inverse, std::size_t Legs, std::size_t NK>
void run_groups(const c32* src, c32* dst, std::size_t l, std::size_t s,
                   std::span<const c32> w, std::size_t q0, std::size_t q1, float scale) {
  if (scale != 1.0f) {
    run_groups_as<B, R, Inverse, Legs, NK, true>(src, dst, l, s, w, q0, q1, scale);
  } else {
    run_groups_as<B, R, Inverse, Legs, NK, false>(src, dst, l, s, w, q0, q1, scale);
  }
}

/// The lane-major form of a radix-4 pass at s == 1 (the first pass of every
/// radix-4 schedule, which would otherwise run entirely on the scalar tail):
/// one vector holds the same butterfly leg for four consecutive p, the
/// twiddles (table-exact, including the 1-values of the p == 0 group) are
/// gathered per leg, and an in-register 4x4 transpose turns the four result
/// legs back into the four interleaved per-p output quartets.  Legs j >=
/// Legs are zero and never read.
template <class B, bool Inverse, std::size_t Legs>
void radix4_lane_major(const c32* src, c32* dst, std::size_t l, std::span<const c32> w) {
  using P = typename B::pvec;
  using S = simd::ScalarBackend;
  auto tw = [&](std::size_t j) { return pass_twiddle<4>(w, l, j); };
  std::size_t p = 0;
  for (; p + 4 <= l; p += 4) {
    P x[4], y[4];
    for (std::size_t j = 0; j < Legs; ++j) x[j] = B::pload(src + p + j * l);
    butterfly<B, 4, Inverse, Legs, 4>(x, y);
    y[1] = B::pcmul(y[1], B::pload(w.data() + p));
    y[2] = B::pcmul(y[2], B::pset4(tw(2 * p), tw(2 * p + 2), tw(2 * p + 4), tw(2 * p + 6)));
    y[3] = B::pcmul(y[3], B::pset4(tw(3 * p), tw(3 * p + 3), tw(3 * p + 6), tw(3 * p + 9)));
    B::ptranspose4(y[0], y[1], y[2], y[3]);
    for (std::size_t k = 0; k < 4; ++k) B::pstore(dst + 4 * p + 4 * k, y[k]);
  }
  for (; p < l; ++p) {
    c32 x[4], y[4];
    for (std::size_t j = 0; j < Legs; ++j) x[j] = src[p + j * l];
    butterfly<S, 4, Inverse, Legs, 4>(x, y);
    dst[4 * p] = y[0];
    for (std::size_t k = 1; k < 4; ++k) dst[4 * p + k] = y[k] * tw(k * p);
  }
}

/// Calls f.template operator()<Legs, NK>() with the runtime counts lifted to
/// template arguments (1 <= legs, nk <= R).
template <std::size_t R, std::size_t Legs, class F>
void with_nk(std::size_t nk, F& f) {
  switch (nk) {
    case 1: f.template operator()<Legs, 1>(); break;
    case 2: f.template operator()<Legs, 2>(); break;
    case 3: if constexpr (R == 4) f.template operator()<Legs, 3>(); break;
    default: f.template operator()<Legs, R>(); break;
  }
}

template <std::size_t R, class F>
void with_legs_nk(std::size_t legs, std::size_t nk, F&& f) {
  switch (legs) {
    case 1: with_nk<R, 1>(nk, f); break;
    case 2: with_nk<R, 2>(nk, f); break;
    case 3: if constexpr (R == 4) with_nk<R, 3>(nk, f); break;
    default: with_nk<R, R>(nk, f); break;
  }
}

}  // namespace detail

/// One DIF-Stockham radix-2 pass: combines pairs (p, p+l) with stride s into
/// an interleaved output.  Data flows src -> dst; after all passes the
/// result is in natural order.  `w` = twiddles for sub-transform length 2l.
///
/// The j == 0 twiddle is 1 + 0i, so the p == 0 group carries no complex
/// multiply.
template <class B, bool Inverse>
void pass_radix2(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w) {
  using P = typename B::pvec;
  if constexpr (B::planes == 4) {
    // Sub-lane strides (s < planes): the q-loop is shorter than a vector, so
    // run lane-major over p instead — each packed vector holds butterflies
    // from `planes / s` consecutive p groups, with the twiddles gathered to
    // match and the outputs shuffled back to the interleaved dst layout.
    // The twiddle values are the same table entries the scalar tail reads
    // (w[0] == 1, so the peeled p == 0 group folds into the vector loop
    // exactly).
    if (s == 1 && l >= 4) {
      const c32* sa = src;
      const c32* sb = src + l;
      std::size_t p = 0;
      for (; p + 4 <= l; p += 4) {
        const P a = B::pload(sa + p);
        const P b = B::pload(sb + p);
        const P sum = B::padd(a, b);
        const P dif = B::pcmul(B::psub(a, b), B::pload(w.data() + p));
        // dst layout per p: [sum_p, dif_p] at 2p — interleave lanes back.
        B::pstore(dst + 2 * p, B::pzip_lo(sum, dif));
        B::pstore(dst + 2 * p + 4, B::pzip_hi(sum, dif));
      }
      for (; p < l; ++p) {
        const c32 a = sa[p];
        const c32 b = sb[p];
        dst[2 * p] = a + b;
        dst[2 * p + 1] = (a - b) * w[p];
      }
      return;
    }
    if (s == 2 && l >= 2) {
      std::size_t p = 0;
      for (; p + 2 <= l; p += 2) {
        const P a = B::pload(src + 2 * p);            // p:(q0,q1), p+1:(q0,q1)
        const P b = B::pload(src + 2 * (p + l));
        const P sum = B::padd(a, b);
        const P wv = B::pset4(w[p], w[p], w[p + 1], w[p + 1]);
        const P dif = B::pcmul(B::psub(a, b), wv);
        // dst layout per p: [sum_p(2), dif_p(2)] at 4p — pair interleave.
        B::pstore(dst + 4 * p, B::pzip_pair_lo(sum, dif));
        B::pstore(dst + 4 * p + 4, B::pzip_pair_hi(sum, dif));
      }
      for (; p < l; ++p) {
        for (std::size_t q = 0; q < 2; ++q) {
          const c32 a = src[2 * p + q];
          const c32 b = src[2 * (p + l) + q];
          dst[4 * p + q] = a + b;
          dst[4 * p + 2 + q] = (a - b) * w[p];
        }
      }
      return;
    }
  }
  detail::run_groups<B, 2, Inverse, 2, 2>(src, dst, l, s, w, 0, s, 1.0f);
}

/// One DIF-Stockham radix-4 pass over a current sub-transform length L = 4*l:
/// reads x[p + j*l] (j = 0..3, stride s), writes the four interleaved
/// outputs at 4p..4p+3.  The quarter-turn factor is -i forward / +i inverse.
/// `w` = twiddles for length L (first half of the circle; 2p/3p fold with
/// W(j + L/2) = -W(j)).
///
/// The p == 0 group (w1 = w2 = w3 = 1) pays no twiddle multiplies.
template <class B, bool Inverse>
void pass_radix4(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w) {
  if constexpr (B::planes == 4) {
    // s == 2 never occurs in the mixed-radix schedule (s multiplies by 4
    // between radix-4 passes) — the generic path covers it if a future
    // driver produces one.
    if (s == 1 && l >= 4) {
      detail::radix4_lane_major<B, Inverse, 4>(src, dst, l, w);
      return;
    }
  }
  detail::run_groups<B, 4, Inverse, 4, 4>(src, dst, l, s, w, 0, s, 1.0f);
}

// ------------------------------------------------------------ pruned passes
//
// A pruned transform runs the same schedule as a dense one; truncation and
// zero padding only shrink what a pass reads or writes (the dense passes
// above are the same bodies with every leg read and every output written):
//
//   pass_padded     input-pruned: the legs j >= `legs` of every butterfly are
//                   known zero (the zero-padded tail of an inverse) and are
//                   never read.
//   pass_truncated  output-pruned: only the outputs (q, k) with q + s*k <
//                   keep are written (the bins a truncated forward keeps).
//
// Each operation they execute is the dense pass's operation with its zero
// operands dropped (x + 0 == x) and each output they write is one the dense
// pass writes, computed on the same packed-vector or scalar path, so a
// pruned schedule reproduces the dense one bin for bin under operator==.

/// Input-pruned radix-R pass (R = 2 or 4): pass_radix2/4 with legs j >=
/// `legs` of every butterfly known to be zero, so only the first legs*l*s
/// elements of `src` are read; every output is written.  With one leg the
/// butterfly is x * W^{kp}.  The first pass of a radix-4 schedule (s == 1)
/// keeps the lane-major ptranspose4 form of pass_radix4; the radix-2 form
/// covers the schedule's radix-2 pass, which is always its last (l == 1).
template <class B, std::size_t R, bool Inverse>
void pass_padded(const c32* src, c32* dst, std::size_t l, std::size_t s,
                 std::span<const c32> w, std::size_t legs) {
  detail::with_legs_nk<R>(legs, R, [&]<std::size_t Legs, std::size_t NK>() {
    if constexpr (R == 4 && B::planes == 4) {
      if (s == 1 && l >= 4) {
        detail::radix4_lane_major<B, Inverse, Legs>(src, dst, l, w);
        return;
      }
    }
    detail::run_groups<B, R, Inverse, Legs, NK>(src, dst, l, s, w, 0, s, 1.0f);
  });
}

/// Output-pruned radix-R pass (R = 2 or 4): pass_radix2/4 writing only the
/// outputs (q, k) with q + s*k < keep (keep <= R*s), over butterflies whose
/// legs j >= `legs` are zero (legs == R when the input is dense), each
/// output times `scale` (the 1/n of a scaled inverse's last pass; the
/// product is the one a separate scaling pass would round).  With keep =
/// a*s + b, the q in [0, b) need outputs k <= a and the q in [b, s) outputs
/// k < a; keep <= s leaves only leg 0, a pure sum.  The schedule calls it
/// with s >= 4 or l == 1 (the last pass, whose single group has no
/// twiddles), and with b a multiple of 4 unless l == 1, so every output it
/// writes takes the dense pass's packed or scalar path.
template <class B, std::size_t R, bool Inverse>
void pass_truncated(const c32* src, c32* dst, std::size_t l, std::size_t s,
                    std::span<const c32> w, std::size_t keep, std::size_t legs,
                    float scale = 1.0f) {
  const std::size_t a = keep / s;
  const std::size_t b = keep % s;
  if (b > 0) {
    detail::with_legs_nk<R>(legs, a + 1, [&]<std::size_t Legs, std::size_t NK>() {
      detail::run_groups<B, R, Inverse, Legs, NK>(src, dst, l, s, w, 0, b, scale);
    });
  }
  if (a > 0) {
    detail::with_legs_nk<R>(legs, a, [&]<std::size_t Legs, std::size_t NK>() {
      detail::run_groups<B, R, Inverse, Legs, NK>(src, dst, l, s, w, b, s, scale);
    });
  }
}

}  // namespace turbofno::fft::kernels
