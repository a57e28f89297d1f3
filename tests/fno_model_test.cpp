// Full FNO model: shape handling, determinism, backend equivalence at the
// model level, numeric health on realistic workloads, and a double-precision
// oracle over both ranks and both lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <string>
#include <utility>
#include <vector>

#include "core/fno.hpp"
#include "core/workload.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;

Fno1dConfig small_1d_cfg(Backend backend) {
  Fno1dConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 16;
  cfg.out_channels = 1;
  cfg.n = 64;
  cfg.modes = 16;
  cfg.layers = 3;
  cfg.backend = backend;
  return cfg;
}

TEST(Fno1dModel, ForwardProducesFiniteOutput) {
  const std::size_t batch = 3;
  const auto cfg = small_1d_cfg(Backend::FullyFused);
  Fno1d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 42u);
  std::vector<c32> v(batch * cfg.out_channels * cfg.n, c32{});
  model.forward(u, v);
  double energy = 0.0;
  for (const auto& x : v) {
    ASSERT_TRUE(std::isfinite(x.re) && std::isfinite(x.im));
    energy += norm2(x);
  }
  EXPECT_GT(energy, 0.0) << "model must not be identically zero";
}

TEST(Fno1dModel, DeterministicAcrossRuns) {
  const std::size_t batch = 2;
  const auto cfg = small_1d_cfg(Backend::FullyFused);
  Fno1d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 7u);
  std::vector<c32> v1(batch * cfg.out_channels * cfg.n);
  std::vector<c32> v2(batch * cfg.out_channels * cfg.n);
  model.forward(u, v1);
  model.forward(u, v2);
  EXPECT_EQ(max_err(v1, v2), 0.0);
}

TEST(Fno1dModel, AllBackendsAgreeEndToEnd) {
  const std::size_t batch = 2;
  std::vector<c32> u(batch * 2 * 64);
  burgers_batch(u, batch, 2, 64, 11u);
  std::vector<std::vector<c32>> outs;
  for (const auto backend :
       {Backend::PyTorch, Backend::FftOpt, Backend::FusedFftGemm, Backend::FusedGemmIfft,
        Backend::FullyFused}) {
    Fno1d model(small_1d_cfg(backend));
    model.reserve(batch);
    std::vector<c32> v(batch * 1 * 64, c32{});
    model.forward(u, v);
    outs.push_back(std::move(v));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LT(rel_err(outs[i], outs[0]), 5e-4) << "backend " << i;
  }
}

TEST(Fno1dModel, SingleLayerNoActivationIsLinearOperator) {
  Fno1dConfig cfg = small_1d_cfg(Backend::FullyFused);
  cfg.layers = 1;  // single layer => final layer => no activation
  Fno1d model(cfg);
  const auto u1 = random_signal(cfg.in_channels * cfg.n, 909u);
  const auto u2 = random_signal(cfg.in_channels * cfg.n, 911u);
  std::vector<c32> mix(u1.size());
  for (std::size_t i = 0; i < mix.size(); ++i) mix[i] = u1[i] + u2[i];
  std::vector<c32> v1(cfg.n);
  std::vector<c32> v2(cfg.n);
  std::vector<c32> vm(cfg.n);
  model.forward(u1, v1);
  model.forward(u2, v2);
  model.forward(mix, vm);
  std::vector<c32> expect(cfg.n);
  for (std::size_t i = 0; i < cfg.n; ++i) expect[i] = v1[i] + v2[i];
  EXPECT_LT(rel_err(vm, expect), 1e-3);
}

TEST(Fno2dModel, ForwardProducesFiniteOutput) {
  Fno2dConfig cfg;
  cfg.in_channels = 1;
  cfg.hidden = 8;
  cfg.out_channels = 1;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 4;
  cfg.modes_y = 4;
  cfg.layers = 2;
  cfg.backend = Backend::FullyFused;
  const std::size_t batch = 2;
  Fno2d model(cfg);
  model.reserve(batch);
  std::vector<c32> u(batch * cfg.in_channels * cfg.nx * cfg.ny);
  darcy_batch(u, batch, cfg.in_channels, cfg.nx, cfg.ny, 5u);
  std::vector<c32> v(batch * cfg.out_channels * cfg.nx * cfg.ny, c32{});
  model.forward(u, v);
  for (const auto& x : v) ASSERT_TRUE(std::isfinite(x.re) && std::isfinite(x.im));
}

TEST(Fno2dModel, BackendsAgreeEndToEnd) {
  Fno2dConfig cfg;
  cfg.hidden = 8;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 4;
  cfg.modes_y = 4;
  cfg.layers = 2;
  const std::size_t batch = 1;
  std::vector<c32> u(batch * cfg.in_channels * cfg.nx * cfg.ny);
  vorticity_field(u, cfg.nx, cfg.ny, 17u);

  std::vector<std::vector<c32>> outs;
  for (const auto backend : {Backend::PyTorch, Backend::FullyFused}) {
    cfg.backend = backend;
    Fno2d model(cfg);
    model.reserve(batch);
    std::vector<c32> v(batch * cfg.out_channels * cfg.nx * cfg.ny, c32{});
    model.forward(u, v);
    outs.push_back(std::move(v));
  }
  EXPECT_LT(rel_err(outs[1], outs[0]), 5e-4);
}

TEST(PointwiseLinearTest, MatchesNaiveMixing) {
  const std::size_t in = 3;
  const std::size_t out = 4;
  const std::size_t batch = 2;
  const std::size_t spatial = 10;
  PointwiseLinear lin(in, out, 21u);
  const auto u = random_signal(batch * in * spatial, 919u);
  const auto ur = random_reals(batch * in * spatial, 921u);
  std::vector<c32> v(batch * out * spatial, c32{});
  std::vector<float> vr(batch * out * spatial, 0.0f);
  lin.forward(u, v, batch, spatial);
  // The real lane mixes with the real parts of the same weights.
  lin.forward_real(ur, vr, batch, spatial);

  const auto w = std::as_const(lin).weights();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t s = 0; s < spatial; ++s) {
        c32 acc{};
        double acc_r = 0.0;
        for (std::size_t k = 0; k < in; ++k) {
          cmadd(acc, w[o * in + k], u[(b * in + k) * spatial + s]);
          acc_r += static_cast<double>(w[o * in + k].re) * ur[(b * in + k) * spatial + s];
        }
        const std::size_t i = (b * out + o) * spatial + s;
        EXPECT_NEAR(v[i].re, acc.re, 1e-4);
        EXPECT_NEAR(v[i].im, acc.im, 1e-4);
        EXPECT_NEAR(vr[i], acc_r, 1e-4);
      }
    }
  }
}

// ------------------------------------------------------------ model oracle
//
// Every model (1D, 2D) on every lane (complex, real) against an oracle
// built only from the layers' weights: lift, residual and projection are
// mixed here in double, each spectral layer goes through the lane's direct
// DFT reference (tests/test_util.hpp), and the activation clamps re and im
// independently on every layer but the last.

using Field = std::vector<std::complex<double>>;

// v[b,o,s] = sum_k W[o,k] u[b,k,s]; the real lane mixes with Re W.
Field mix(const PointwiseLinear& p, const Field& u, std::size_t batch, std::size_t spatial,
          bool real) {
  const std::size_t in = p.in_channels();
  const std::size_t out = p.out_channels();
  Field v(batch * out * spatial);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t k = 0; k < in; ++k) {
        const c32 wk = p.weights()[o * in + k];
        const std::complex<double> w(wk.re, real ? 0.0f : wk.im);
        for (std::size_t s = 0; s < spatial; ++s) {
          v[(b * out + o) * spatial + s] += w * u[(b * in + k) * spatial + s];
        }
      }
    }
  }
  return v;
}

std::vector<c32> to_c32(const Field& f) {
  std::vector<c32> v(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) {
    v[i] = {static_cast<float>(f[i].real()), static_cast<float>(f[i].imag())};
  }
  return v;
}

std::vector<float> to_float(const Field& f) {
  std::vector<float> v(f.size());
  for (std::size_t i = 0; i < f.size(); ++i) v[i] = static_cast<float>(f[i].real());
  return v;
}

Field to_field(std::span<const c32> x) {
  Field f(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) f[i] = {x[i].re, x[i].im};
  return f;
}

Field to_field(std::span<const float> x) {
  Field f(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) f[i] = x[i];
  return f;
}

double rel_l2(const Field& got, const Field& want) {
  double num = 0.0;
  double den = 1e-30;
  for (std::size_t i = 0; i < want.size(); ++i) {
    num += std::norm(got[i] - want[i]);
    den += std::norm(want[i]);
  }
  return std::sqrt(num / den);
}

// One spectral layer through the direct reference of its rank and lane.
Field spectral_reference(const SpectralConv1d& layer, const Field& h, std::size_t batch,
                         bool real) {
  auto p = layer.problem();
  p.batch = batch;
  const std::vector<c32> w(layer.weights().begin(), layer.weights().end());
  return real ? to_field(turbofno::testing::reference_real_conv_1d(p, to_float(h), w))
              : to_field(turbofno::testing::reference_spectral_conv(p, to_c32(h), w));
}

Field spectral_reference(const SpectralConv2d& layer, const Field& h, std::size_t batch,
                         bool real) {
  auto p = layer.problem();
  p.batch = batch;
  const std::vector<c32> w(layer.weights().begin(), layer.weights().end());
  return real ? to_field(turbofno::testing::reference_real_conv_2d(p, to_float(h), w))
              : to_field(turbofno::testing::reference_spectral_conv2d(p, to_c32(h), w));
}

template <class Model>
void expect_model_matches_oracle(Model& model, std::size_t field, bool real) {
  const auto& cfg = model.config();
  const std::size_t batch = 2;
  const std::size_t in = batch * cfg.in_channels * field;
  const std::size_t out = batch * cfg.out_channels * field;
  Field u;
  Field got;
  if (real) {
    const auto ur = random_reals(in, 1201u);
    std::vector<float> v(out, 0.0f);
    model.forward_real(ur, v, batch);
    u = to_field(ur);
    got = to_field(v);
  } else {
    const auto uc = random_signal(in, 1203u);
    std::vector<c32> v(out, c32{});
    model.forward(uc, v, batch);
    u = to_field(uc);
    got = to_field(v);
  }

  const Model& m = model;
  Field h = mix(m.lift(), u, batch, field, real);
  for (std::size_t l = 0; l < cfg.layers; ++l) {
    const Field spec = spectral_reference(m.spectral_layers()[l], h, batch, real);
    const Field res = mix(m.residual_layers()[l], h, batch, field, real);
    const bool last = l + 1 == cfg.layers;
    for (std::size_t i = 0; i < h.size(); ++i) {
      const auto s = spec[i] + res[i];
      h[i] = last ? s : std::complex<double>(std::max(s.real(), 0.0), std::max(s.imag(), 0.0));
    }
  }
  const Field want = mix(m.projection(), h, batch, field, real);
  EXPECT_LT(rel_l2(got, want), 1e-3);
}

struct OracleCase {
  bool is_2d;
  bool real;
};

class FnoModelOracle : public ::testing::TestWithParam<OracleCase> {};

TEST_P(FnoModelOracle, MatchesDoublePrecisionReference) {
  const auto [is_2d, real] = GetParam();
  if (is_2d) {
    Fno2dConfig cfg;
    cfg.in_channels = 2;
    cfg.hidden = 6;
    cfg.out_channels = 2;
    cfg.nx = 16;
    cfg.ny = 16;
    cfg.modes_x = 8;
    cfg.modes_y = 6;
    cfg.layers = 3;
    cfg.backend = Backend::Auto;
    Fno2d model(cfg);
    expect_model_matches_oracle(model, cfg.nx * cfg.ny, real);
  } else {
    Fno1dConfig cfg;
    cfg.in_channels = 2;
    cfg.hidden = 8;
    cfg.out_channels = 2;
    cfg.n = 64;
    cfg.modes = 16;
    cfg.layers = 3;
    cfg.backend = Backend::Auto;
    Fno1d model(cfg);
    expect_model_matches_oracle(model, cfg.n, real);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankAndLane, FnoModelOracle,
    ::testing::Values(OracleCase{false, false}, OracleCase{false, true}, OracleCase{true, false},
                      OracleCase{true, true}),
    [](const ::testing::TestParamInfo<OracleCase>& info) {
      return std::string(info.param.is_2d ? "Fno2d" : "Fno1d") +
             (info.param.real ? "Real" : "Complex");
    });

}  // namespace
}  // namespace turbofno::core
