// Shared helpers for the TurboFNO test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <span>
#include <vector>

#include "baseline/problem.hpp"
#include "fft/reference.hpp"
#include "tensor/complex.hpp"

namespace turbofno::testing {

inline std::vector<c32> random_signal(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<c32> v(n);
  for (auto& x : v) x = {dist(rng), dist(rng)};
  return v;
}

inline std::vector<float> random_reals(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

inline double rel_err_f(std::span<const float> a, std::span<const float> b) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return std::sqrt(num / den);
}

inline double max_err(std::span<const c32> a, std::span<const c32> b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(a[i].re - b[i].re)));
    m = std::max(m, static_cast<double>(std::fabs(a[i].im - b[i].im)));
  }
  return m;
}

inline double rel_err(std::span<const c32> a, std::span<const c32> b) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double dr = static_cast<double>(a[i].re) - b[i].re;
    const double di = static_cast<double>(a[i].im) - b[i].im;
    num += dr * dr + di * di;
    den += static_cast<double>(b[i].re) * b[i].re + static_cast<double>(b[i].im) * b[i].im;
  }
  return std::sqrt(num / den);
}

/// FFT error grows ~ sqrt(log n) in float; this bound is loose but tight
/// enough to catch real bugs (wrong twiddle, wrong ordering, missed scale).
inline double fft_tol(std::size_t n) { return 2e-5 * std::sqrt(static_cast<double>(n)); }

// ------------------------------------------------ spectral-layer references
//
// Direct references of one spectral convolution per rank and lane: DFTs
// computed in double precision (fft/reference.hpp), naive mixing along
// hidden, zero padding, inverse DFTs.

/// The 1D complex lane: per-signal DFT, keep `modes` bins, mix along
/// hidden, zero-pad, inverse DFT.
inline std::vector<c32> reference_spectral_conv(const baseline::Spectral1dProblem& p,
                                                const std::vector<c32>& u,
                                                const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t N = p.n;
  const std::size_t M = p.modes;
  std::vector<c32> freq(B * K * M);
  for (std::size_t bk = 0; bk < B * K; ++bk) {
    fft::reference_dft(std::span<const c32>(u.data() + bk * N, N),
                       std::span<c32>(freq.data() + bk * M, M), N);
  }
  std::vector<c32> mixed(B * O * M, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t f = 0; f < M; ++f) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * M + f]);
        }
        mixed[(b * O + o) * M + f] = acc;
      }
    }
  }
  std::vector<c32> v(B * O * N);
  for (std::size_t bo = 0; bo < B * O; ++bo) {
    fft::reference_idft(std::span<const c32>(mixed.data() + bo * M, M),
                        std::span<c32>(v.data() + bo * N, N), N);
  }
  return v;
}

/// The 2D complex lane via per-axis reference DFTs and naive mixing.
inline std::vector<c32> reference_spectral_conv2d(const baseline::Spectral2dProblem& p,
                                                  const std::vector<c32>& u,
                                                  const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t NX = p.nx;
  const std::size_t NY = p.ny;
  const std::size_t MX = p.modes_x;
  const std::size_t MY = p.modes_y;

  // Forward 2D DFT, truncated to the [MX, MY] corner, per (b, k).
  std::vector<c32> freq(B * K * MX * MY);
  std::vector<c32> col(NX);
  std::vector<c32> colf(MX);
  std::vector<c32> mid(MX * NY);
  for (std::size_t bk = 0; bk < B * K; ++bk) {
    const c32* f = u.data() + bk * NX * NY;
    for (std::size_t y = 0; y < NY; ++y) {
      for (std::size_t x = 0; x < NX; ++x) col[x] = f[x * NY + y];
      fft::reference_dft(col, colf, NX);
      for (std::size_t x = 0; x < MX; ++x) mid[x * NY + y] = colf[x];
    }
    for (std::size_t x = 0; x < MX; ++x) {
      fft::reference_dft(std::span<const c32>(mid.data() + x * NY, NY),
                         std::span<c32>(freq.data() + bk * MX * MY + x * MY, MY), NY);
    }
  }

  // Mixing along hidden.
  const std::size_t modes = MX * MY;
  std::vector<c32> mixed(B * O * modes, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t fidx = 0; fidx < modes; ++fidx) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * modes + fidx]);
        }
        mixed[(b * O + o) * modes + fidx] = acc;
      }
    }
  }

  // Inverse: pad corner and 2D inverse DFT per (b, o).
  std::vector<c32> v(B * O * NX * NY);
  std::vector<c32> row(NY);
  std::vector<c32> mid2(MX * NY);
  std::vector<c32> colspec(MX);
  std::vector<c32> colout(NX);
  for (std::size_t bo = 0; bo < B * O; ++bo) {
    for (std::size_t x = 0; x < MX; ++x) {
      fft::reference_idft(std::span<const c32>(mixed.data() + bo * modes + x * MY, MY),
                          std::span<c32>(mid2.data() + x * NY, NY), NY);
    }
    for (std::size_t y = 0; y < NY; ++y) {
      for (std::size_t x = 0; x < MX; ++x) colspec[x] = mid2[x * NY + y];
      fft::reference_idft(colspec, colout, NX);
      for (std::size_t x = 0; x < NX; ++x) v[bo * NX * NY + x * NY + y] = colout[x];
    }
  }
  return v;
}

/// Real samples as complex ones with zero imaginary parts.
inline std::vector<c32> pack(std::span<const float> x) {
  std::vector<c32> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = {x[i], 0.0f};
  return z;
}

/// torch.fft.irfft bin completion: first `stored` bins -> full n-bin
/// conjugate-symmetric spectrum (DC, and Nyquist when stored, projected
/// real).
inline std::vector<c32> hermitian_full(std::span<const c32> bins, std::size_t n) {
  std::vector<c32> full(n, c32{});
  full[0] = {bins[0].re, 0.0f};
  for (std::size_t k = 1; k < bins.size(); ++k) {
    if (k == n - k) {
      full[k] = {bins[k].re, 0.0f};
    } else {
      full[k] = bins[k];
      full[n - k] = {bins[k].re, -bins[k].im};
    }
  }
  return full;
}

/// The 1D real lane: full DFT of the real signal, keep modes/2+1 bins, mix
/// along hidden, Hermitian-complete, inverse DFT, real part.
inline std::vector<float> reference_real_conv_1d(const baseline::Spectral1dProblem& p,
                                                 const std::vector<float>& u,
                                                 const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t N = p.n;
  const std::size_t MR = p.modes / 2 + 1;
  const auto uc = pack(u);
  std::vector<c32> freq(B * K * MR);
  for (std::size_t bk = 0; bk < B * K; ++bk) {
    fft::reference_dft(std::span<const c32>(uc.data() + bk * N, N),
                       std::span<c32>(freq.data() + bk * MR, MR), N);
  }
  std::vector<c32> mixed(B * O * MR, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t f = 0; f < MR; ++f) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * MR + f]);
        }
        mixed[(b * O + o) * MR + f] = acc;
      }
    }
  }
  std::vector<float> v(B * O * N);
  for (std::size_t bo = 0; bo < B * O; ++bo) {
    const auto full =
        hermitian_full(std::span<const c32>(mixed.data() + bo * MR, MR), N);
    std::vector<c32> time(N);
    fft::reference_idft(full, time, N);
    for (std::size_t j = 0; j < N; ++j) v[bo * N + j] = time[j].re;
  }
  return v;
}

/// The 2D real lane: truncated X DFT per column (modes_x/2+1 bins),
/// truncated Y DFT per row, mix, padded Y inverse, Hermitian X inverse per
/// column.
inline std::vector<float> reference_real_conv_2d(const baseline::Spectral2dProblem& p,
                                                 const std::vector<float>& u,
                                                 const std::vector<c32>& w) {
  const std::size_t B = p.batch;
  const std::size_t K = p.hidden;
  const std::size_t O = p.out_dim;
  const std::size_t NX = p.nx;
  const std::size_t NY = p.ny;
  const std::size_t MY = p.modes_y;
  const std::size_t MXR = p.modes_x / 2 + 1;
  std::vector<c32> xf(B * K * MXR * NY);
  for (std::size_t f = 0; f < B * K; ++f) {
    for (std::size_t y = 0; y < NY; ++y) {
      std::vector<c32> col(NX);
      for (std::size_t x = 0; x < NX; ++x) col[x] = {u[(f * NX + x) * NY + y], 0.0f};
      std::vector<c32> bins(MXR);
      fft::reference_dft(col, bins, NX);
      for (std::size_t k = 0; k < MXR; ++k) xf[(f * MXR + k) * NY + y] = bins[k];
    }
  }
  std::vector<c32> freq(B * K * MXR * MY);
  for (std::size_t r = 0; r < B * K * MXR; ++r) {
    fft::reference_dft(std::span<const c32>(xf.data() + r * NY, NY),
                       std::span<c32>(freq.data() + r * MY, MY), NY);
  }
  const std::size_t modes = MXR * MY;
  std::vector<c32> mixed(B * O * modes, c32{});
  for (std::size_t b = 0; b < B; ++b) {
    for (std::size_t o = 0; o < O; ++o) {
      for (std::size_t f = 0; f < modes; ++f) {
        c32 acc{};
        for (std::size_t k = 0; k < K; ++k) {
          cmadd(acc, w[o * K + k], freq[(b * K + k) * modes + f]);
        }
        mixed[(b * O + o) * modes + f] = acc;
      }
    }
  }
  std::vector<c32> xi(B * O * MXR * NY);
  for (std::size_t r = 0; r < B * O * MXR; ++r) {
    fft::reference_idft(std::span<const c32>(mixed.data() + r * MY, MY),
                        std::span<c32>(xi.data() + r * NY, NY), NY);
  }
  std::vector<float> v(B * O * NX * NY);
  for (std::size_t f = 0; f < B * O; ++f) {
    for (std::size_t y = 0; y < NY; ++y) {
      std::vector<c32> bins(MXR);
      for (std::size_t k = 0; k < MXR; ++k) bins[k] = xi[(f * MXR + k) * NY + y];
      const auto full = hermitian_full(bins, NX);
      std::vector<c32> col(NX);
      fft::reference_idft(full, col, NX);
      for (std::size_t x = 0; x < NX; ++x) v[(f * NX + x) * NY + y] = col[x].re;
    }
  }
  return v;
}

}  // namespace turbofno::testing
