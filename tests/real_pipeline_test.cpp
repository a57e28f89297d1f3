// Real-spectral (RFFT) lane: every 1D/2D ladder variant's run_batched_real,
// the SpectralConv*::forward_real layers and a whole Fno1d::forward_real
// must match direct double-precision half-spectrum references, and the
// steady state must stay allocation-free.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "fft/reference.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline2d.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using baseline::Spectral2dProblem;
using turbofno::testing::random_signal;

std::vector<float> random_reals(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-1.0f, 1.0f);
  std::vector<float> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

double rel_err_f(std::span<const float> a, std::span<const float> b) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    num += d * d;
    den += static_cast<double>(b[i]) * b[i];
  }
  return std::sqrt(num / den);
}

std::vector<c32> pack(std::span<const float> x) {
  std::vector<c32> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = {x[i], 0.0f};
  return z;
}

/// torch.fft.irfft bin completion: first `stored` bins -> full n-bin
/// conjugate-symmetric spectrum (DC, and Nyquist when stored, projected
/// real).
std::vector<c32> hermitian_full(std::span<const c32> bins, std::size_t n) {
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

// Direct reference of the 1D real lane: full DFT of the real signal, keep
// modes/2+1 bins, mix along hidden, Hermitian-complete, inverse DFT, real
// part.
std::vector<float> reference_real_conv_1d(const Spectral1dProblem& p,
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

// Direct reference of the 2D real lane: truncated X DFT per column
// (modes_x/2+1 bins), truncated Y DFT per row, mix, padded Y inverse,
// Hermitian X inverse per column.
std::vector<float> reference_real_conv_2d(const Spectral2dProblem& p,
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

// --------------------------------------------------------------- 1D ladder

struct RealCase1d {
  Variant variant;
  Spectral1dProblem prob;
};

std::vector<RealCase1d> real_cases_1d() {
  const std::vector<Spectral1dProblem> probs = {
      {2, 8, 8, 32, 8},
      {1, 8, 24, 64, 32},
      {2, 9, 7, 64, 16},   // hidden not a multiple of k_tb
      {1, 8, 8, 64, 64},   // no truncation (modes == n)
      {2, 8, 8, 64, 1},    // extreme truncation (one retained bin)
  };
  std::vector<RealCase1d> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

class RealLadder1d : public ::testing::TestWithParam<RealCase1d> {};

TEST_P(RealLadder1d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_reals(prob.batch * prob.hidden * prob.n,
                              501u + static_cast<unsigned>(prob.n));
  const auto w = random_signal(prob.hidden * prob.out_dim, 509u);
  std::vector<float> v(prob.batch * prob.out_dim * prob.n, 0.0f);
  auto pipe = make_pipeline1d(variant, prob, /*real_input=*/true);
  pipe->run_batched_real(u, w, v, prob.batch);
  const auto ref = reference_real_conv_1d(prob, u, w);
  EXPECT_LT(rel_err_f(v, ref), 1e-4) << pipe->name();
}

TEST_P(RealLadder1d, SecondRunIsIdenticalAndAllocationFree) {
  const auto& [variant, prob] = GetParam();
  const auto u = random_reals(prob.batch * prob.hidden * prob.n, 521u);
  const auto w = random_signal(prob.hidden * prob.out_dim, 523u);
  std::vector<float> v1(prob.batch * prob.out_dim * prob.n, 0.0f);
  std::vector<float> v2(v1.size(), 0.0f);
  auto pipe = make_pipeline1d(variant, prob, true);
  pipe->run_batched_real(u, w, v1, prob.batch);
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  pipe->run_batched_real(u, w, v2, prob.batch);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_EQ(v1[i], v2[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Ladder, RealLadder1d, ::testing::ValuesIn(real_cases_1d()));

// --------------------------------------------------------------- 2D ladder

struct RealCase2d {
  Variant variant;
  Spectral2dProblem prob;
};

std::vector<RealCase2d> real_cases_2d() {
  const std::vector<Spectral2dProblem> probs = {
      {2, 6, 6, 16, 16, 6, 6},
      {1, 8, 4, 32, 16, 12, 8},
      {2, 5, 7, 16, 32, 16, 12},  // modes_x == nx (no X truncation)
      {3, 6, 6, 16, 16, 1, 6},    // one x-row: [ny, 1] staging tiles
  };
  std::vector<RealCase2d> cases;
  for (const auto v : kAllVariants) {
    for (const auto& p : probs) cases.push_back({v, p});
  }
  return cases;
}

// Restores the default group policy even when a test fails mid-flight.
struct GroupGuard {
  ~GroupGuard() { set_fused_mid_group(0); }
};

class RealLadder2d : public ::testing::TestWithParam<RealCase2d> {};

TEST_P(RealLadder2d, MatchesDirectReference) {
  const auto& [variant, prob] = GetParam();
  const GroupGuard guard;
  set_fused_mid_group(2);  // exercise group chunking, not just whole-batch
  const auto u = random_reals(prob.batch * prob.hidden * prob.nx * prob.ny,
                              601u + static_cast<unsigned>(prob.nx));
  const auto w = random_signal(prob.hidden * prob.out_dim, 607u);
  std::vector<float> v(prob.batch * prob.out_dim * prob.nx * prob.ny, 0.0f);
  auto pipe = make_pipeline2d(variant, prob, /*real_input=*/true);
  pipe->run_batched_real(u, w, v, prob.batch);
  const auto ref = reference_real_conv_2d(prob, u, w);
  EXPECT_LT(rel_err_f(v, ref), 1e-4) << pipe->name();
}

INSTANTIATE_TEST_SUITE_P(Ladder, RealLadder2d, ::testing::ValuesIn(real_cases_2d()));

// ------------------------------------------------------- lane interleaving
//
// Both lanes share every workspace of one pipeline instance, so running
// complex, then real, then complex on it must leave each output bitwise
// equal to a fresh instance's: no lane may read state the other left
// behind.  The middle run also grows the capacity past the construction
// batch, and the 2D case stages two-element groups.

template <class T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

template <class Make, class Pipe>
void expect_lanes_interleave(const Make& make, Pipe& pipe, std::size_t in_per, std::size_t out_per,
                             std::size_t batch) {
  const auto uc = random_signal(batch * in_per, 811u);
  const auto ur = random_reals(batch * in_per, 813u);
  const auto w = random_signal(pipe.problem().hidden * pipe.problem().out_dim, 817u);
  std::vector<c32> want_c(batch * out_per);
  std::vector<float> want_r(batch * out_per);
  make()->run_batched(uc, w, want_c, batch);
  make()->run_batched_real(ur, w, want_r, batch);

  std::vector<c32> c1(want_c.size());
  std::vector<float> r(want_r.size());
  std::vector<c32> c2(want_c.size());
  pipe.run_batched(uc, w, c1, batch);
  pipe.run_batched_real(ur, w, r, batch);
  pipe.run_batched(uc, w, c2, batch);
  EXPECT_TRUE(same_bits(c1, want_c)) << pipe.name() << " complex (first)";
  EXPECT_TRUE(same_bits(r, want_r)) << pipe.name() << " real";
  EXPECT_TRUE(same_bits(c2, want_c)) << pipe.name() << " complex (after real)";
}

TEST(LaneInterleaving, Pipeline1dComplexRealComplexMatchesFreshInstances) {
  const Spectral1dProblem p{2, 9, 7, 64, 16};  // hidden not a multiple of k_tb
  const std::size_t batch = 3;
  for (const auto v : kAllVariants) {
    const auto make = [&] { return make_pipeline1d(v, p); };
    auto pipe = make();
    expect_lanes_interleave(make, *pipe, p.hidden * p.n, p.out_dim * p.n, batch);
  }
}

TEST(LaneInterleaving, Pipeline2dComplexRealComplexMatchesFreshInstances) {
  const Spectral2dProblem p{2, 6, 6, 16, 16, 6, 6};
  const std::size_t batch = 3;
  const GroupGuard guard;
  set_fused_mid_group(2);
  for (const auto v : kAllVariants) {
    const auto make = [&] { return make_pipeline2d(v, p); };
    auto pipe = make();
    expect_lanes_interleave(make, *pipe, p.hidden * p.nx * p.ny, p.out_dim * p.nx * p.ny,
                            batch);
  }
}

// ------------------------------------------------- layer + model level

std::vector<c32> weights_of(std::span<const c32> w) { return {w.begin(), w.end()}; }

TEST(RealSpectralLayers, Conv1dMatchesReference) {
  const Spectral1dProblem p{2, 8, 8, 64, 16};
  core::SpectralConv1d conv(p.batch, p.hidden, p.out_dim, p.n, p.modes,
                            core::Backend::FullyFused);
  const auto u = random_reals(p.batch * p.hidden * p.n, 701u);
  std::vector<float> v(p.batch * p.out_dim * p.n, 0.0f);
  conv.forward_real(u, v, p.batch);
  const auto ref = reference_real_conv_1d(p, u, weights_of(std::as_const(conv).weights()));
  EXPECT_LT(rel_err_f(v, ref), 1e-4);
}

TEST(RealSpectralLayers, Conv2dMatchesReference) {
  const Spectral2dProblem p{2, 6, 6, 16, 16, 8, 8};
  core::SpectralConv2d conv(p.batch, p.hidden, p.out_dim, p.nx, p.ny, p.modes_x, p.modes_y,
                            core::Backend::FullyFused);
  const auto u = random_reals(p.batch * p.hidden * p.nx * p.ny, 709u);
  std::vector<float> v(p.batch * p.out_dim * p.nx * p.ny, 0.0f);
  conv.forward_real(u, v, p.batch);
  const auto ref = reference_real_conv_2d(p, u, weights_of(std::as_const(conv).weights()));
  EXPECT_LT(rel_err_f(v, ref), 1e-4);
}

TEST(RealSpectralLayers, Conv1dPerModeRealRuns) {
  core::SpectralConv1d conv(1, 6, 6, 32, 8, core::Backend::FftOpt,
                            core::WeightScheme::PerMode);
  const auto u = random_reals(6 * 32, 719u);
  std::vector<float> v(6 * 32, 0.0f);
  conv.forward_real(u, v, 1);
  double mag = 0.0;
  for (const float x : v) mag += std::fabs(x);
  EXPECT_GT(mag, 0.0);
}

TEST(RealSpectralLayers, Fno1dModelMatchesOracle) {
  // Oracle: the model's own pointwise layers around the double-precision
  // spectral reference, layer by layer (ReLU on every layer but the last).
  core::Fno1dConfig cfg;
  cfg.hidden = 8;
  cfg.n = 64;
  cfg.modes = 16;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  core::Fno1d model(cfg);
  const auto u = random_reals(cfg.in_channels * cfg.n, 727u);
  std::vector<float> got(cfg.out_channels * cfg.n, 0.0f);
  model.forward_real(u, got, 1);

  const core::Fno1d& m = model;
  const Spectral1dProblem layer{1, cfg.hidden, cfg.hidden, cfg.n, cfg.modes};
  std::vector<float> h(cfg.hidden * cfg.n), res(h.size());
  m.lift().forward_real(u, h, 1, cfg.n);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    const auto spec =
        reference_real_conv_1d(layer, h, weights_of(m.spectral_layers()[l].weights()));
    m.residual_layers()[l].forward_real(h, res, 1, cfg.n);
    const bool last = l + 1 == cfg.layers;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const float s = spec[i] + res[i];
      h[i] = last || s > 0.0f ? s : 0.0f;
    }
  }
  std::vector<float> want(got.size(), 0.0f);
  m.projection().forward_real(h, want, 1, cfg.n);
  EXPECT_LT(rel_err_f(got, want), 1e-3);
}

TEST(RealSpectralLayers, SessionRunRealServes2d) {
  core::Engine engine;
  core::Fno2dConfig cfg;
  cfg.hidden = 6;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 8;
  cfg.modes_y = 8;
  cfg.layers = 2;
  cfg.backend = core::Backend::Auto;
  const auto m = engine.register_model(cfg);
  auto session = engine.create_session(m, 2);
  const std::size_t in = cfg.in_channels * cfg.nx * cfg.ny;
  const std::size_t out = cfg.out_channels * cfg.nx * cfg.ny;
  const auto u = random_reals(2 * in, 733u);
  std::vector<float> v(2 * out, 0.0f);
  session.run_real(u, v, 2);
  // Batch results must equal two singles (no cross-request coupling).
  std::vector<float> one(out, 0.0f);
  session.run_real(std::span<const float>(u.data(), in), one, 1);
  for (std::size_t i = 0; i < out; ++i) EXPECT_EQ(v[i], one[i]) << i;
}

}  // namespace
}  // namespace turbofno::fused
