// The fused 2D middle-stage schedule: the batch-group size is bitwise
// invisible across every ladder variant and the batched entry points, each
// variant matches the unfused baseline pipeline, FftPlan2d's per-field
// fused execute is bitwise-equal to its two-pass schedule, and the tile
// path reaches a no-allocation steady state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/reference.hpp"
#include "fused/ladder.hpp"
#include "fused/pipeline2d.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "test_util.hpp"

namespace turbofno {
namespace {

using baseline::Spectral2dProblem;
using fused::Variant;
using testing::fft_tol;
using testing::max_err;
using testing::random_signal;

// Restores the default group policy even when a test fails mid-flight.
struct GroupGuard {
  ~GroupGuard() { fused::set_fused_mid_group(0); }
};

bool same_bits(std::span<const c32> a, std::span<const c32> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(c32)) == 0;
}

// ------------------------------------------------ pipeline ladder parity

struct MidCase {
  Spectral2dProblem prob;
  std::size_t group;  // group override compared against the default policy (0 -> 1)
};

class FusedMidLadder : public ::testing::TestWithParam<MidCase> {};

TEST_P(FusedMidLadder, GroupSizeBitwiseInvisibleAndMatchesBaseline) {
  // Grouping reorders memory, not arithmetic: every 1D transform still
  // gathers the same values into the same contiguous work buffer and the
  // k-loop accumulates in the same order, so a small group override must
  // agree bit for bit with the default (cache-budget) policy — for every
  // ladder variant.  Each variant is also anchored to the unfused PyTorch
  // baseline, which computes through a different code path.
  const GroupGuard guard;
  const auto& [prob, group] = GetParam();
  const std::size_t g = std::max<std::size_t>(group, 1);
  const auto u = random_signal(prob.input_elems(), 811u + static_cast<unsigned>(prob.nx));
  const auto w = random_signal(prob.weight_elems(), 813u);

  std::vector<c32> v_base(prob.output_elems());
  fused::make_pipeline2d(Variant::PyTorch, prob)->run(u, w, v_base);

  for (const auto var : fused::kAllVariants) {
    auto pipe = fused::make_pipeline2d(var, prob);

    fused::set_fused_mid_group(0);
    std::vector<c32> v_default(prob.output_elems());
    pipe->run(u, w, v_default);

    fused::set_fused_mid_group(g);
    std::vector<c32> v_group(prob.output_elems());
    pipe->run(u, w, v_group);

    EXPECT_TRUE(same_bits(v_group, v_default)) << pipe->name() << " group=" << g;
    EXPECT_LT(testing::rel_err(v_default, v_base), 1e-4) << pipe->name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FusedMidLadder,
    ::testing::Values(MidCase{{1, 8, 8, 16, 16, 4, 4}, 0},
                      MidCase{{3, 8, 8, 16, 32, 8, 8}, 1},    // B % group == 0
                      MidCase{{5, 8, 6, 16, 16, 4, 8}, 2},    // ragged last group
                      MidCase{{2, 12, 6, 32, 16, 8, 4}, 0},   // K not a k_tb multiple
                      MidCase{{2, 6, 10, 16, 16, 16, 16}, 1}, // no truncation
                      MidCase{{1, 8, 8, 32, 32, 1, 1}, 0},    // extreme truncation
                      MidCase{{3, 8, 8, 16, 32, 1, 8}, 2},    // one x-row: [ny, 1] tiles
                      MidCase{{4, 8, 8, 16, 64, 4, 16}, 3})); // ny spanning slabs

TEST(FusedMidBatched, MicroBatchPrefixesGroupInvisibleAndMatchBaseline) {
  // The serving path: micro-batches below capacity must be group-invisible
  // too, including micro-batches that are not a multiple of the group size.
  const GroupGuard guard;
  const Spectral2dProblem p{5, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 821u);
  const auto w = random_signal(p.weight_elems(), 823u);
  const std::size_t in_stride = p.hidden * p.nx * p.ny;
  const std::size_t out_stride = p.out_dim * p.nx * p.ny;
  const std::span<const c32> uspan{u};

  auto base = fused::make_pipeline2d(Variant::PyTorch, p);
  for (const auto var : fused::kAllVariants) {
    auto pipe = fused::make_pipeline2d(var, p);
    for (std::size_t b = 1; b <= p.batch; ++b) {
      std::vector<c32> v_base(b * out_stride);
      base->run_batched(uspan.first(b * in_stride), w, v_base, b);

      fused::set_fused_mid_group(0);
      std::vector<c32> ref(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, ref, b);

      fused::set_fused_mid_group(2);
      std::vector<c32> got(b * out_stride);
      pipe->run_batched(uspan.first(b * in_stride), w, got, b);
      EXPECT_TRUE(same_bits(got, ref)) << pipe->name() << " micro-batch " << b;
      EXPECT_LT(testing::rel_err(ref, v_base), 1e-4) << pipe->name() << " micro-batch " << b;
    }
  }
}

TEST(FusedMidLadderReference, FusedDefaultMatchesDirectReferenceViaBaseline) {
  // Anchor the fused schedule to ground truth (not only to its sibling):
  // the baseline pipeline computes through a completely different code path.
  const Spectral2dProblem p{2, 16, 12, 32, 64, 8, 16};
  const auto u = random_signal(p.input_elems(), 827u);
  const auto w = random_signal(p.weight_elems(), 829u);
  auto base = fused::make_pipeline2d(Variant::PyTorch, p);
  std::vector<c32> vb(p.output_elems());
  base->run(u, w, vb);
  for (const auto var : {Variant::FftOpt, Variant::FusedFftGemm, Variant::FusedGemmIfft,
                         Variant::FullyFused}) {
    auto pipe = fused::make_pipeline2d(var, p);
    std::vector<c32> vo(p.output_elems());
    pipe->run(u, w, vo);
    EXPECT_LT(testing::rel_err(vo, vb), 1e-4) << pipe->name();
  }
}

// ------------------------------------------------ FftPlan2d fused execute

fft::FftPlan2d make2d(std::size_t nx, std::size_t ny, fft::Direction dir, std::size_t kx = 0,
                      std::size_t ky = 0) {
  fft::Plan2dDesc d;
  d.nx = nx;
  d.ny = ny;
  d.dir = dir;
  d.keep_x = kx;
  d.keep_y = ky;
  return fft::FftPlan2d(d);
}

// FftPlan2d only takes the fused per-field path when the batch can feed the
// worker pool; pin one thread so small-batch cases deterministically
// exercise it regardless of the test host's core count.
struct OneThreadGuard {
  OneThreadGuard() { runtime::set_thread_count(1); }
  ~OneThreadGuard() { runtime::set_thread_count(0); }
};

TEST(FusedMidPlan2d, FusedBitwiseMatchesTwoPassBothDirections) {
  // The thread count selects the schedule: one thread takes the fused
  // per-field path (batch >= threads), batch+1 threads the two-pass one.
  const OneThreadGuard threads;
  struct Case {
    std::size_t nx, ny, kx, ky, batch;
  };
  for (const auto& [nx, ny, kx, ky, batch] :
       {Case{2, 2, 0, 0, 1}, Case{2, 64, 0, 0, 2}, Case{64, 2, 0, 0, 2},
        Case{32, 32, 8, 4, 3}, Case{16, 64, 4, 16, 2}, Case{128, 32, 32, 8, 1}}) {
    const std::size_t kxe = kx == 0 ? nx : kx;
    const std::size_t kye = ky == 0 ? ny : ky;
    const auto field = random_signal(batch * nx * ny, 831u + static_cast<unsigned>(nx + ny));
    const auto spec = random_signal(batch * kxe * kye, 833u + static_cast<unsigned>(nx + ny));
    const fft::FftPlan2d fwd = make2d(nx, ny, fft::Direction::Forward, kx, ky);
    const fft::FftPlan2d inv = make2d(nx, ny, fft::Direction::Inverse, kx, ky);

    std::vector<c32> f0(batch * kxe * kye), f1(batch * kxe * kye);
    std::vector<c32> i0(batch * nx * ny), i1(batch * nx * ny);
    runtime::set_thread_count(static_cast<int>(batch + 1));
    fwd.execute(field, f0, batch);
    inv.execute(spec, i0, batch);
    runtime::set_thread_count(1);
    fwd.execute(field, f1, batch);
    inv.execute(spec, i1, batch);
    EXPECT_TRUE(same_bits(f1, f0)) << nx << "x" << ny << " fwd";
    EXPECT_TRUE(same_bits(i1, i0)) << nx << "x" << ny << " inv";
  }
}

TEST(FusedMidPlan2d, FusedForwardMatchesReference) {
  const OneThreadGuard threads;
  const std::size_t nx = 16, ny = 32;
  const auto in = random_signal(nx * ny, 839u);
  std::vector<c32> out(nx * ny);
  make2d(nx, ny, fft::Direction::Forward).execute(in, out, 1);

  std::vector<c32> mid(nx * ny), col(nx), colf(nx), want(nx * ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) col[x] = in[x * ny + y];
    fft::reference_dft(col, colf, nx);
    for (std::size_t x = 0; x < nx; ++x) mid[x * ny + y] = colf[x];
  }
  for (std::size_t x = 0; x < nx; ++x) {
    fft::reference_dft(std::span<const c32>(mid.data() + x * ny, ny),
                       std::span<c32>(want.data() + x * ny, ny), ny);
  }
  EXPECT_LT(max_err(out, want), fft_tol(nx * ny));
}

// ------------------------------------------------------- arena steady state

TEST(FusedMidScratch, SteadyStateDoesNotGrowOnTheTilePath) {
  // The tile path must reach a zero-per-forward allocation steady state:
  // after one warm-up run, repeated forwards grow neither the calling
  // thread's arena nor (observably) anything else the run touches.
  const GroupGuard guard;
  fused::set_fused_mid_group(2);
  const Spectral2dProblem p{3, 8, 8, 32, 32, 8, 8};
  const auto u = random_signal(p.input_elems(), 841u);
  const auto w = random_signal(p.weight_elems(), 843u);
  std::vector<c32> v(p.output_elems());

  auto pipe = fused::make_pipeline2d(Variant::FullyFused, p);
  pipe->run(u, w, v);  // warm-up sizes the arena and the staging tiles
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int i = 0; i < 10; ++i) pipe->run(u, w, v);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());

  // FftPlan2d's fused execute shares the property.
  const OneThreadGuard threads;  // batch=1 must still take the fused path
  const fft::FftPlan2d plan = make2d(p.nx, p.ny, fft::Direction::Forward, 8, 8);
  std::vector<c32> spec(8 * 8);
  plan.execute(std::span<const c32>(u).first(p.nx * p.ny), spec, 1);
  const std::size_t reserved2 = runtime::tls_scratch().bytes_reserved();
  for (int i = 0; i < 10; ++i) {
    plan.execute(std::span<const c32>(u).first(p.nx * p.ny), spec, 1);
  }
  EXPECT_EQ(reserved2, runtime::tls_scratch().bytes_reserved());
}

}  // namespace
}  // namespace turbofno
