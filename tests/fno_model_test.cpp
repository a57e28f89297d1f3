// Full FNO model: shape handling, determinism, backend equivalence at the
// model level, numeric health on realistic workloads, and a double-precision
// oracle over both ranks and both lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fno.hpp"
#include "core/workload.hpp"
#include "runtime/parallel.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::rel_err_f;

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

// Both lanes of v[b,o,s] = sum_k W[o,k] u[b,k,s] against naive mixing in
// double; the real lane mixes with the real parts of the same weights.
void expect_naive_mixing(const PointwiseLinear& lin, std::size_t batch, std::size_t spatial,
                         unsigned seed) {
  const std::size_t in = lin.in_channels();
  const std::size_t out = lin.out_channels();
  const auto u = random_signal(batch * in * spatial, seed);
  const auto ur = random_reals(batch * in * spatial, seed + 2);
  std::vector<c32> v(batch * out * spatial, c32{});
  std::vector<float> vr(batch * out * spatial, 0.0f);
  lin.forward(u, v, batch, spatial);
  lin.forward_real(ur, vr, batch, spatial);

  const auto w = lin.weights();
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out; ++o) {
      for (std::size_t s = 0; s < spatial; ++s) {
        std::complex<double> acc{};
        double acc_r = 0.0;
        for (std::size_t k = 0; k < in; ++k) {
          const c32 wk = w[o * in + k];
          const c32 x = u[(b * in + k) * spatial + s];
          acc += std::complex<double>(wk.re, wk.im) * std::complex<double>(x.re, x.im);
          acc_r += static_cast<double>(wk.re) * ur[(b * in + k) * spatial + s];
        }
        const std::size_t i = (b * out + o) * spatial + s;
        ASSERT_NEAR(v[i].re, acc.real(), 1e-4) << "b=" << b << " o=" << o << " s=" << s;
        ASSERT_NEAR(v[i].im, acc.imag(), 1e-4) << "b=" << b << " o=" << o << " s=" << s;
        ASSERT_NEAR(vr[i], acc_r, 1e-4) << "b=" << b << " o=" << o << " s=" << s;
      }
    }
  }
}

struct PointwiseCase {
  std::size_t in, out, batch, spatial;
};

class PointwiseLinearTest : public ::testing::TestWithParam<PointwiseCase> {};

TEST_P(PointwiseLinearTest, MatchesNaiveMixing) {
  const auto [in, out, batch, spatial] = GetParam();
  const PointwiseLinear lin(in, out, 21u);
  expect_naive_mixing(lin, batch, spatial, 919u);
}

// Small mix; lift (in = 1) and projection (out = 1) at an odd width; a row
// wider than a GEMM tile; and more channels than one tile holds (two tile
// rows, several k blocks).
INSTANTIATE_TEST_SUITE_P(Shapes, PointwiseLinearTest,
                         ::testing::Values(PointwiseCase{3, 4, 2, 10}, PointwiseCase{1, 16, 2, 17},
                                           PointwiseCase{16, 1, 3, 17},
                                           PointwiseCase{5, 7, 2, 130},
                                           PointwiseCase{70, 66, 2, 75}));

TEST(PointwiseLinearWeights, WritesReachTheNextRealForward) {
  // forward_real mixes with Re W taken from the weights on each call: a
  // write through weights() must show in the next forward, on both lanes.
  PointwiseLinear lin(6, 5, 23u);
  const std::size_t batch = 2;
  const std::size_t spatial = 33;
  const auto ur = random_reals(batch * 6 * spatial, 925u);
  std::vector<float> before(batch * 5 * spatial);
  lin.forward_real(ur, before, batch, spatial);
  for (std::size_t i = 0; i < lin.weights().size(); ++i) {
    lin.weights()[i] = {0.5f - lin.weights()[i].re, lin.weights()[i].im};
  }
  std::vector<float> after(before.size());
  lin.forward_real(ur, after, batch, spatial);
  EXPECT_GT(rel_err_f(after, before), 0.1);
  expect_naive_mixing(lin, batch, spatial, 927u);
}

// --------------------------------------------------- batch and thread invariance

Fno2dConfig small_2d_cfg() {
  Fno2dConfig cfg;
  cfg.in_channels = 2;
  cfg.hidden = 8;
  cfg.out_channels = 1;
  cfg.nx = 16;
  cfg.ny = 16;
  cfg.modes_x = 4;
  cfg.modes_y = 4;
  cfg.layers = 2;
  cfg.backend = Backend::Auto;
  return cfg;
}

// A forward of `batch` items on the lane of the input's sample type; the
// output comes back as floats (a c32 is its re, im pair) so that both lanes
// compare bytewise.
template <class Model>
std::vector<float> forward_floats(Model& model, std::span<const float> u, std::size_t batch) {
  std::vector<float> v(u.size() / model.config().in_channels * model.config().out_channels);
  model.forward_real(u, v, batch);
  return v;
}

template <class Model>
std::vector<float> forward_floats(Model& model, std::span<const c32> u, std::size_t batch) {
  std::vector<c32> v(u.size() / model.config().in_channels * model.config().out_channels);
  model.forward(u, v, batch);
  std::vector<float> f(2 * v.size());
  std::memcpy(f.data(), v.data(), f.size() * sizeof(float));
  return f;
}

// Item b of a batch-3 forward is bitwise a batch-1 forward of that item.
template <class Model, class Config, class Sample>
void expect_batch_item_matches_batch_of_one(const Config& cfg, const std::vector<Sample>& u) {
  const std::size_t batch = 3;
  const std::size_t item = u.size() / batch;
  Model model(cfg);
  const auto whole = forward_floats(model, std::span<const Sample>(u), batch);
  const std::size_t out = whole.size() / batch;
  for (std::size_t b = 0; b < batch; ++b) {
    Model single(cfg);
    const auto got = forward_floats(single, std::span<const Sample>(u).subspan(b * item, item), 1);
    ASSERT_EQ(got.size(), out);
    EXPECT_EQ(std::memcmp(got.data(), whole.data() + b * out, out * sizeof(float)), 0)
        << (std::is_same_v<Sample, float> ? "real" : "complex") << " item " << b;
  }
}

TEST(FnoModelInvariance, BatchItemMatchesBatchOfOne) {
  const auto c1 = small_1d_cfg(Backend::Auto);
  const auto c2 = small_2d_cfg();
  const std::size_t in1 = 3 * c1.in_channels * c1.n;
  const std::size_t in2 = 3 * c2.in_channels * c2.nx * c2.ny;
  expect_batch_item_matches_batch_of_one<Fno1d>(c1, random_signal(in1, 1301u));
  expect_batch_item_matches_batch_of_one<Fno1d>(c1, random_reals(in1, 1303u));
  expect_batch_item_matches_batch_of_one<Fno2d>(c2, random_signal(in2, 1305u));
  expect_batch_item_matches_batch_of_one<Fno2d>(c2, random_reals(in2, 1307u));
}

// Forwards at 1 and at 3 runtime threads are bitwise equal.
template <class Model, class Config, class Sample>
void expect_thread_count_invariant(const Config& cfg, const std::vector<Sample>& u,
                                   std::size_t batch) {
  std::vector<float> out[2];
  for (const int threads : {1, 3}) {
    runtime::set_thread_count(threads);
    Model model(cfg);
    out[threads == 3] = forward_floats(model, std::span<const Sample>(u), batch);
  }
  runtime::set_thread_count(0);
  ASSERT_EQ(out[0].size(), out[1].size());
  EXPECT_EQ(std::memcmp(out[0].data(), out[1].data(), out[0].size() * sizeof(float)), 0)
      << (std::is_same_v<Sample, float> ? "real" : "complex");
}

TEST(FnoModelInvariance, ThreadCountDoesNotChangeResults) {
  const std::size_t batch = 4;
  const auto c1 = small_1d_cfg(Backend::Auto);
  const auto c2 = small_2d_cfg();
  const std::size_t in1 = batch * c1.in_channels * c1.n;
  const std::size_t in2 = batch * c2.in_channels * c2.nx * c2.ny;
  expect_thread_count_invariant<Fno1d>(c1, random_signal(in1, 1401u), batch);
  expect_thread_count_invariant<Fno1d>(c1, random_reals(in1, 1403u), batch);
  expect_thread_count_invariant<Fno2d>(c2, random_signal(in2, 1405u), batch);
  expect_thread_count_invariant<Fno2d>(c2, random_reals(in2, 1407u), batch);
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
