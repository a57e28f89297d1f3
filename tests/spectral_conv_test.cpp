// Spectral convolution layers: backend equivalence, per-mode extension,
// linearity, and weight initialization.
#include <gtest/gtest.h>

#include <vector>

#include "core/spectral_conv.hpp"
#include "fft/plan.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::rel_err;
using turbofno::testing::rel_err_f;

TEST(SpectralConv1dTest, BackendsProduceIdenticalOperators) {
  const std::size_t B = 2;
  const std::size_t K = 16;
  const std::size_t O = 16;
  const std::size_t N = 64;
  const std::size_t M = 16;
  const auto u = random_signal(B * K * N, 801u);

  std::vector<std::vector<c32>> outs;
  for (const auto backend :
       {Backend::PyTorch, Backend::FftOpt, Backend::FusedFftGemm, Backend::FusedGemmIfft,
        Backend::FullyFused}) {
    SpectralConv1d conv(B, K, O, N, M, backend, WeightScheme::Shared, /*seed=*/99u);
    std::vector<c32> v(B * O * N, c32{});
    conv.forward(u, v);
    outs.push_back(std::move(v));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LT(rel_err(outs[i], outs[0]), 1e-4) << "backend " << i;
  }
}

TEST(SpectralConv1dTest, SameSeedSameWeights) {
  SpectralConv1d a(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 7u);
  SpectralConv1d b(1, 8, 8, 32, 8, Backend::PyTorch, WeightScheme::Shared, 7u);
  EXPECT_EQ(max_err(a.weights(), b.weights()), 0.0);
}

TEST(SpectralConv1dTest, DifferentSeedDifferentWeights) {
  SpectralConv1d a(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 7u);
  SpectralConv1d b(1, 8, 8, 32, 8, Backend::FullyFused, WeightScheme::Shared, 8u);
  EXPECT_GT(max_err(a.weights(), b.weights()), 0.0);
}

TEST(SpectralConv1dTest, OperatorIsLinear) {
  const std::size_t B = 1;
  const std::size_t K = 8;
  const std::size_t N = 64;
  SpectralConv1d conv(B, K, K, N, 16, Backend::FullyFused);
  const auto u1 = random_signal(B * K * N, 811u);
  const auto u2 = random_signal(B * K * N, 821u);
  std::vector<c32> sum_in(B * K * N);
  for (std::size_t i = 0; i < sum_in.size(); ++i) sum_in[i] = u1[i] + u2[i];

  std::vector<c32> v1(B * K * N);
  std::vector<c32> v2(B * K * N);
  std::vector<c32> vsum(B * K * N);
  conv.forward(u1, v1);
  conv.forward(u2, v2);
  conv.forward(sum_in, vsum);
  std::vector<c32> expect(B * K * N);
  for (std::size_t i = 0; i < expect.size(); ++i) expect[i] = v1[i] + v2[i];
  EXPECT_LT(rel_err(vsum, expect), 1e-4);
}

TEST(SpectralConv1dTest, OutputIsBandLimited) {
  // The operator projects onto the first `modes` frequencies: transforming
  // the output again must show no energy above the cutoff.
  const std::size_t N = 64;
  const std::size_t M = 8;
  SpectralConv1d conv(1, 4, 4, N, M, Backend::FullyFused);
  const auto u = random_signal(4 * N, 823u);
  std::vector<c32> v(4 * N);
  conv.forward(u, v);

  fft::PlanDesc d;
  d.n = N;
  const fft::FftPlan plan(d);
  for (std::size_t c = 0; c < 4; ++c) {
    std::vector<c32> freq(N);
    plan.execute(std::span<const c32>(v.data() + c * N, N), freq, 1);
    double high = 0.0;
    double low = 0.0;
    for (std::size_t f = 0; f < N; ++f) {
      (f < M ? low : high) += norm2(freq[f]);
    }
    EXPECT_LT(high, 1e-6 * (low + 1e-9)) << "channel " << c;
  }
}

TEST(SpectralConv1dTest, PerModeWithEqualWeightsMatchesShared) {
  const std::size_t B = 2;
  const std::size_t K = 8;
  const std::size_t O = 8;
  const std::size_t N = 32;
  const std::size_t M = 8;
  SpectralConv1d shared(B, K, O, N, M, Backend::FftOpt, WeightScheme::Shared, 5u);
  SpectralConv1d permode(B, K, O, N, M, Backend::FftOpt, WeightScheme::PerMode, 5u);
  // Copy the shared matrix into every mode slot.
  auto w = shared.weights();
  auto wp = permode.weights();
  ASSERT_EQ(wp.size(), M * w.size());
  for (std::size_t f = 0; f < M; ++f) {
    std::copy(w.begin(), w.end(), wp.begin() + f * w.size());
  }
  const auto u = random_signal(B * K * N, 827u);
  std::vector<c32> vs(B * O * N);
  std::vector<c32> vp(B * O * N);
  shared.forward(u, vs);
  permode.forward(u, vp);
  EXPECT_LT(rel_err(vp, vs), 1e-4);

  // The real lane: the per-mode matrices of the modes/2+1 retained RFFT
  // bins against the shared matrix on the same half-spectrum.
  const auto ur = random_reals(B * K * N, 831u);
  std::vector<float> rs(B * O * N);
  std::vector<float> rp(B * O * N);
  shared.forward_real(ur, rs, B);
  permode.forward_real(ur, rp, B);
  EXPECT_LT(rel_err_f(rp, rs), 1e-4);
}

TEST(SpectralConv1dTest, PerModeUsesDistinctMatricesPerFrequency) {
  // Zeroing all but mode f=1's matrix must kill every other frequency.
  const std::size_t K = 4;
  const std::size_t N = 32;
  const std::size_t M = 4;
  SpectralConv1d conv(1, K, K, N, M, Backend::FftOpt, WeightScheme::PerMode, 11u);
  auto w = conv.weights();
  for (std::size_t f = 0; f < M; ++f) {
    if (f == 1) continue;
    std::fill(w.begin() + f * K * K, w.begin() + (f + 1) * K * K, c32{});
  }
  const auto u = random_signal(K * N, 829u);
  std::vector<c32> v(K * N);
  conv.forward(u, v);

  fft::PlanDesc d;
  d.n = N;
  const fft::FftPlan plan(d);
  std::vector<c32> freq(N);
  plan.execute(std::span<const c32>(v.data(), N), freq, 1);
  for (std::size_t f = 0; f < N; ++f) {
    if (f == 1) continue;
    EXPECT_LT(norm2(freq[f]), 1e-6f) << "frequency " << f << " should be annihilated";
  }
}

TEST(SpectralConv2dTest, BackendsProduceIdenticalOperators) {
  const std::size_t B = 1;
  const std::size_t K = 8;
  const std::size_t O = 8;
  const auto u = random_signal(B * K * 16 * 32, 839u);
  std::vector<std::vector<c32>> outs;
  for (const auto backend :
       {Backend::PyTorch, Backend::FftOpt, Backend::FusedFftGemm, Backend::FusedGemmIfft,
        Backend::FullyFused}) {
    SpectralConv2d conv(B, K, O, 16, 32, 4, 8, backend, WeightScheme::Shared, 13u);
    std::vector<c32> v(B * O * 16 * 32, c32{});
    conv.forward(u, v);
    outs.push_back(std::move(v));
  }
  for (std::size_t i = 1; i < outs.size(); ++i) {
    EXPECT_LT(rel_err(outs[i], outs[0]), 1e-4) << "backend " << i;
  }
}

TEST(SpectralConv2dTest, PerModeSchemeIsRejected) {
  EXPECT_THROW(SpectralConv2d(1, 4, 4, 16, 16, 4, 4, Backend::FftOpt, WeightScheme::PerMode),
               std::invalid_argument);
}

TEST(InitWeights, GlorotBoundRespected) {
  std::vector<c32> w(1000);
  init_weights(w, 64, 64, 3u);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (const auto& x : w) {
    EXPECT_LE(std::fabs(x.re), bound);
    EXPECT_LE(std::fabs(x.im), bound);
  }
  // And not degenerate.
  double sum = 0.0;
  for (const auto& x : w) sum += std::fabs(x.re);
  EXPECT_GT(sum / w.size(), bound * 0.1);
}

}  // namespace
}  // namespace turbofno::core
