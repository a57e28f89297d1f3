// Real-spectral (RFFT) lane: every 1D/2D ladder variant's run_batched_real
// and the SpectralConv*::forward_real layers must match direct
// double-precision half-spectrum references (tests/test_util.hpp), and the
// steady state must stay allocation-free.  The whole-model oracle over both
// lanes is in fno_model_test.cpp.
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "core/api.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline2d.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using baseline::Spectral2dProblem;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;
using turbofno::testing::reference_real_conv_1d;
using turbofno::testing::reference_real_conv_2d;
using turbofno::testing::rel_err_f;

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

// ------------------------------------------------- layer + session level

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
