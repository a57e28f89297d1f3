// Engine/Session API v2: bitwise parity with direct core::Fno runs across
// every backend (Backend::Auto included), elastic capacity growth
// mid-stream, checkpoint loading, and the v1 deprecation shims.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/engine.hpp"
#include "core/serialize.hpp"
#include "core/workload.hpp"
#include "fused/ladder.hpp"
#include "test_util.hpp"

namespace turbofno::core {
namespace {

using turbofno::testing::max_err;

Fno1dConfig cfg_1d(Backend backend) {
  Fno1dConfig c;
  c.in_channels = 2;
  c.hidden = 8;
  c.out_channels = 2;
  c.n = 64;
  c.modes = 16;
  c.layers = 2;
  c.backend = backend;
  return c;
}

Fno2dConfig cfg_2d(Backend backend) {
  Fno2dConfig c;
  c.in_channels = 1;
  c.hidden = 8;
  c.out_channels = 1;
  c.nx = 16;
  c.ny = 16;
  c.modes_x = 4;
  c.modes_y = 4;
  c.layers = 2;
  c.backend = backend;
  return c;
}

::testing::AssertionResult bitwise_equal(std::span<const c32> a, std::span<const c32> b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  }
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(c32)) != 0) {
    return ::testing::AssertionFailure() << "outputs differ, max |err| = " << max_err(a, b);
  }
  return ::testing::AssertionSuccess();
}

std::vector<Backend> all_backends_plus_auto() {
  std::vector<Backend> out(std::begin(fused::kAllVariants), std::end(fused::kAllVariants));
  out.push_back(Backend::Auto);
  return out;
}

TEST(EngineParity, SessionMatchesDirectFno1dBitwiseAllBackends) {
  for (const Backend backend : all_backends_plus_auto()) {
    const auto cfg = cfg_1d(backend);
    const std::size_t batch = 3;
    std::vector<c32> u(batch * cfg.in_channels * cfg.n);
    burgers_batch(u, batch, cfg.in_channels, cfg.n, 5u);

    Fno1d direct(cfg);
    std::vector<c32> want(batch * cfg.out_channels * cfg.n);
    direct.forward(u, want, batch);

    Engine engine;
    auto session = engine.create_session(engine.register_model(cfg), batch);
    std::vector<c32> got(want.size());
    session.run(u, got, batch);
    EXPECT_TRUE(bitwise_equal(got, want))
        << "backend " << fused::variant_name(backend);
  }
}

TEST(EngineParity, SessionMatchesDirectFno2dBitwiseAllBackends) {
  for (const Backend backend : all_backends_plus_auto()) {
    const auto cfg = cfg_2d(backend);
    const std::size_t batch = 2;
    std::vector<c32> u(batch * cfg.in_channels * cfg.nx * cfg.ny);
    for (std::size_t b = 0; b < batch; ++b) {
      vorticity_field(std::span<c32>(u).subspan(b * cfg.nx * cfg.ny, cfg.nx * cfg.ny), cfg.nx,
                      cfg.ny, 7u + static_cast<unsigned>(b));
    }

    Fno2d direct(cfg);
    std::vector<c32> want(batch * cfg.out_channels * cfg.nx * cfg.ny);
    direct.forward(u, want, batch);

    Engine engine;
    auto session = engine.create_session(engine.register_model(cfg), batch);
    std::vector<c32> got(want.size());
    session.run(u, got, batch);
    EXPECT_TRUE(bitwise_equal(got, want))
        << "backend " << fused::variant_name(backend);
  }
}

TEST(BackendAuto, ResolvesToAConcreteVariantAndMatchesItBitwise) {
  const auto cfg = cfg_1d(Backend::Auto);
  baseline::Spectral1dProblem prob{4, cfg.hidden, cfg.hidden, cfg.n, cfg.modes};
  const Backend chosen = fused::auto_variant_1d(prob);
  ASSERT_NE(chosen, Backend::Auto);
  ASSERT_NE(chosen, Backend::PyTorch) << "Auto must never pick the comparison baseline";

  auto explicit_cfg = cfg;
  explicit_cfg.backend = chosen;
  const std::size_t batch = 4;
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 9u);

  Fno1d with_auto(cfg);
  Fno1d with_explicit(explicit_cfg);
  std::vector<c32> va(batch * cfg.out_channels * cfg.n);
  std::vector<c32> ve(va.size());
  with_auto.forward(u, va, batch);
  with_explicit.forward(u, ve, batch);
  EXPECT_TRUE(bitwise_equal(va, ve)) << "auto chose " << fused::variant_name(chosen);
}

TEST(BackendAuto, HeuristicFollowsShape) {
  // Deep truncation, cache-resident accumulator: the fully fused pass.
  baseline::Spectral1dProblem deep{1, 16, 16, 256, 32};
  EXPECT_EQ(fused::auto_variant_1d(deep), Backend::FullyFused);
  // Shallow truncation (modes > n/2): only the epilogue is worth fusing.
  baseline::Spectral1dProblem shallow{1, 16, 16, 256, 192};
  EXPECT_EQ(fused::auto_variant_1d(shallow), Backend::FusedGemmIfft);
  // Accumulator far beyond any L2 budget: stream through unfused kernels.
  baseline::Spectral1dProblem huge{1, 16, 4096, 32768, 16384};
  EXPECT_EQ(fused::auto_variant_1d(huge), Backend::FftOpt);

  baseline::Spectral2dProblem deep2{1, 8, 8, 64, 64, 8, 8};
  EXPECT_EQ(fused::auto_variant_2d(deep2), Backend::FullyFused);
  baseline::Spectral2dProblem shallow2{1, 8, 8, 64, 64, 8, 48};
  EXPECT_EQ(fused::auto_variant_2d(shallow2), Backend::FusedGemmIfft);
  baseline::Spectral2dProblem huge2{1, 256, 256, 1024, 1024, 512, 64};
  EXPECT_EQ(fused::auto_variant_2d(huge2), Backend::FftOpt);

  // resolve_variant is the identity on concrete rows.
  for (const Backend b : fused::kAllVariants) {
    EXPECT_EQ(fused::resolve_variant(b, deep), b);
    EXPECT_EQ(fused::resolve_variant(b, deep2), b);
  }
}

TEST(ElasticCapacity, SessionGrowsMidStreamBitwise) {
  const auto cfg = cfg_1d(Backend::FullyFused);
  const std::size_t max_batch = 6;
  std::vector<c32> u(max_batch * cfg.in_channels * cfg.n);
  burgers_batch(u, max_batch, cfg.in_channels, cfg.n, 21u);

  // Reference sized for the largest micro-batch up front.
  Fno1d ref(cfg);
  ref.reserve(max_batch);

  Engine engine;
  auto session = engine.create_session(engine.register_model(cfg), /*capacity_hint=*/2);
  EXPECT_GE(session.capacity(), 2u);

  for (const std::size_t batch : {std::size_t{2}, std::size_t{6}, std::size_t{3}}) {
    std::vector<c32> want(batch * cfg.out_channels * cfg.n);
    std::vector<c32> got(want.size());
    ref.forward(u, want, batch);
    session.run(u, got, batch);
    EXPECT_TRUE(bitwise_equal(got, want)) << "batch " << batch;
  }
  EXPECT_GE(session.capacity(), max_batch);
}

TEST(ElasticCapacity, PipelinesGrowBeyondConstructedCapacityAllVariants1d) {
  baseline::Spectral1dProblem small{2, 8, 8, 64, 16};
  baseline::Spectral1dProblem big = small;
  big.batch = 5;
  const auto u = turbofno::testing::random_signal(big.input_elems(), 3u);
  const auto w = turbofno::testing::random_signal(small.weight_elems(), 4u);
  for (const auto v : fused::kAllVariants) {
    auto grown = fused::make_pipeline1d(v, small);
    auto sized = fused::make_pipeline1d(v, big);
    std::vector<c32> vg(big.output_elems()), vs(big.output_elems());
    grown->run_batched(u, w, vg, big.batch);  // grows 2 -> 5 in place
    sized->run_batched(u, w, vs, big.batch);
    EXPECT_TRUE(bitwise_equal(vg, vs)) << fused::variant_name(v);
    EXPECT_EQ(grown->problem().batch, big.batch);
  }
}

TEST(ElasticCapacity, PipelinesGrowBeyondConstructedCapacityAllVariants2d) {
  baseline::Spectral2dProblem small{1, 8, 8, 16, 16, 4, 4};
  baseline::Spectral2dProblem big = small;
  big.batch = 4;
  const auto u = turbofno::testing::random_signal(big.input_elems(), 13u);
  const auto w = turbofno::testing::random_signal(small.weight_elems(), 14u);
  for (const auto v : fused::kAllVariants) {
    auto grown = fused::make_pipeline2d(v, small);
    auto sized = fused::make_pipeline2d(v, big);
    std::vector<c32> vg(big.output_elems()), vs(big.output_elems());
    grown->run_batched(u, w, vg, big.batch);
    sized->run_batched(u, w, vs, big.batch);
    EXPECT_TRUE(bitwise_equal(vg, vs)) << fused::variant_name(v);
    EXPECT_EQ(grown->problem().batch, big.batch);
  }
}

TEST(ElasticCapacity, UndersizedCallerBuffersStillThrow) {
  const auto cfg = cfg_1d(Backend::FullyFused);
  Fno1d model(cfg);
  std::vector<c32> u(2 * cfg.in_channels * cfg.n);
  std::vector<c32> v(2 * cfg.out_channels * cfg.n);
  EXPECT_THROW(model.forward(u, v, 3), std::invalid_argument);

  Engine engine;
  auto session = engine.create_session(engine.register_model(cfg));
  EXPECT_THROW(session.run(u, v, 3), std::invalid_argument);
}

TEST(EngineCheckpoint, LoadModelFromBundleReproducesSourceBitwise1d) {
  const auto cfg = cfg_1d(Backend::FullyFused);
  Engine engine;
  auto source = engine.create_session(engine.register_model(cfg), 2);
  const WeightBundle bundle = source.gather();

  // Same architecture, different seed: without the bundle the outputs
  // differ; with it they are bitwise-identical to the source session.
  auto other_cfg = cfg;
  other_cfg.seed += 42u;
  const std::size_t batch = 2;
  std::vector<c32> u(batch * cfg.in_channels * cfg.n);
  burgers_batch(u, batch, cfg.in_channels, cfg.n, 31u);
  std::vector<c32> want(batch * cfg.out_channels * cfg.n);
  source.run(u, want, batch);

  auto seeded = engine.create_session(engine.register_model(other_cfg), batch);
  std::vector<c32> got(want.size());
  seeded.run(u, got, batch);
  EXPECT_GT(max_err(got, want), 0.0);

  auto restored = engine.create_session(engine.load_model(other_cfg, bundle), batch);
  restored.run(u, got, batch);
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST(EngineCheckpoint, LoadModelFromBundleReproducesSourceBitwise2d) {
  const auto cfg = cfg_2d(Backend::FullyFused);
  Engine engine;
  auto source = engine.create_session(engine.register_model(cfg));
  const WeightBundle bundle = source.gather();

  std::vector<c32> u(cfg.in_channels * cfg.nx * cfg.ny);
  vorticity_field(u, cfg.nx, cfg.ny, 3u);
  std::vector<c32> want(cfg.out_channels * cfg.nx * cfg.ny);
  source.run(u, want, 1);

  auto other_cfg = cfg;
  other_cfg.seed += 42u;
  auto restored = engine.create_session(engine.load_model(other_cfg, bundle));
  std::vector<c32> got(want.size());
  restored.run(u, got, 1);
  EXPECT_TRUE(bitwise_equal(got, want));
}

TEST(EngineCheckpoint, LoadModelValidatesBundleUpFront) {
  const auto cfg = cfg_1d(Backend::FullyFused);
  Engine engine;
  auto source = engine.create_session(engine.register_model(cfg));
  WeightBundle bundle = source.gather();
  bundle.entries.pop_back();  // drop "project"
  EXPECT_THROW(engine.load_model(cfg, bundle), std::runtime_error);
}

}  // namespace
}  // namespace turbofno::core
