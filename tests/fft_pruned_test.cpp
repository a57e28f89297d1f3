// Pruned FFT plans: every truncated / zero-padded plan against the dense
// route and the double-precision reference, the executed-work counter, and
// the Figure 5 operation counts of the DIF model.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "fft/opcount.hpp"
#include "fft/plan.hpp"
#include "fft/reference.hpp"
#include "fft/stockham.hpp"
#include "fft/twiddle.hpp"
#include "test_util.hpp"

namespace turbofno::fft {
namespace {

using turbofno::testing::random_signal;
using turbofno::testing::rel_err;

// --------------------------------------------------------------- block_need

// Brute force: bins below m whose index lands in block b at depth d.
std::size_t block_need_brute(std::size_t b, std::size_t d, std::size_t m) {
  const std::size_t r = bit_reverse(b, d);
  const std::size_t stride = std::size_t{1} << d;
  std::size_t count = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (k % stride == r) ++count;
  }
  return count;
}

TEST(BlockNeed, MatchesBruteForceOverGrid) {
  for (std::size_t d = 0; d <= 5; ++d) {
    const std::size_t blocks = std::size_t{1} << d;
    for (std::size_t m = 1; m <= 64; ++m) {
      for (std::size_t b = 0; b < blocks; ++b) {
        EXPECT_EQ(block_need(b, d, m), block_need_brute(b, d, m))
            << "b=" << b << " d=" << d << " m=" << m;
      }
    }
  }
}

TEST(BlockNeed, ChildrenSplitCeilFloor) {
  // need(even child) == ceil(need/2), need(odd child) == floor(need/2).
  for (std::size_t d = 0; d <= 4; ++d) {
    const std::size_t blocks = std::size_t{1} << d;
    for (std::size_t m = 1; m <= 48; ++m) {
      for (std::size_t b = 0; b < blocks; ++b) {
        const std::size_t need = block_need(b, d, m);
        EXPECT_EQ(block_need(2 * b, d + 1, m), (need + 1) / 2);
        EXPECT_EQ(block_need(2 * b + 1, d + 1, m), need / 2);
      }
    }
  }
}

// ------------------------------------------------- pruned plan correctness

// keep / nonzero values swept per size: the edges, the quarter and half
// points and their neighbours (deduplicated, clamped to [1, n]); every value
// up to n = 32.
std::vector<std::size_t> filter_values(std::size_t n) {
  std::vector<std::size_t> v;
  if (n <= 32) {
    for (std::size_t k = 1; k <= n; ++k) v.push_back(k);
    return v;
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3}, n / 4 - 1, n / 4,
                              n / 4 + 1, n / 2, n - 1, n}) {
    v.push_back(std::clamp<std::size_t>(k, 1, n));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

FftPlan make_plan(std::size_t n, Direction dir, std::size_t keep, std::size_t nonzero) {
  PlanDesc d;
  d.n = n;
  d.dir = dir;
  d.keep = keep;
  d.nonzero = nonzero;
  return FftPlan(d);
}

// The dense route: the full Stockham transform of the zero-padded signal,
// cut to its first `keep` bins.
std::vector<c32> dense_route(std::span<const c32> stored, std::size_t n, std::size_t keep,
                             Direction dir) {
  std::vector<c32> buf(n, c32{});
  std::vector<c32> work(n);
  std::copy(stored.begin(), stored.end(), buf.begin());
  if (dir == Direction::Forward) {
    stockham_forward(buf, work, n);
  } else {
    stockham_inverse(buf, work, n, /*scale=*/true);
  }
  buf.resize(keep);
  return buf;
}

std::size_t mismatches(std::span<const c32> a, std::span<const c32> b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) bad += a[i] == b[i] ? 0 : 1;
  return bad;
}

class PrunedPlan : public ::testing::TestWithParam<Direction> {};

TEST_P(PrunedPlan, EqualsDenseRouteAndReferenceOverGrid) {
  const Direction dir = GetParam();
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    const auto signal = random_signal(n, 700u + static_cast<unsigned>(n));
    const auto values = filter_values(n);
    for (const std::size_t nonzero : values) {
      const std::span<const c32> stored(signal.data(), nonzero);
      std::vector<c32> ref(n);
      if (dir == Direction::Forward) {
        reference_dft(stored, ref, n);
      } else {
        reference_idft(stored, ref, n);
      }
      for (const std::size_t keep : values) {
        const FftPlan plan = make_plan(n, dir, keep, nonzero);
        std::vector<c32> got(keep);
        plan.execute(stored, got, 1);
        const auto dense = dense_route(stored, n, keep, dir);
        ASSERT_EQ(mismatches(got, dense), 0u)
            << "n=" << n << " keep=" << keep << " nonzero=" << nonzero;
        ASSERT_LT(rel_err(got, std::span<const c32>(ref.data(), keep)), 1e-5)
            << "n=" << n << " keep=" << keep << " nonzero=" << nonzero;
      }
    }
  }
}

TEST_P(PrunedPlan, StridedExecutionMatchesPacked) {
  // Non-unit element strides take the gather/scatter edges of the schedule
  // (the first pass reads the work buffer, the last pass writes it); the
  // bins must not change.
  const Direction dir = GetParam();
  const std::size_t batch = 3;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    for (const std::size_t nonzero : filter_values(n)) {
      for (const std::size_t keep : filter_values(n)) {
        const FftPlan plan = make_plan(n, dir, keep, nonzero);
        const auto packed_in = random_signal(batch * nonzero, 800u + static_cast<unsigned>(n));
        std::vector<c32> packed_out(batch * keep);
        plan.execute(packed_in, packed_out, batch);

        ExecLayout layout;
        layout.in_elem_stride = 3;
        layout.in_batch_stride = static_cast<std::ptrdiff_t>(3 * nonzero + 1);
        layout.out_elem_stride = 2;
        layout.out_batch_stride = static_cast<std::ptrdiff_t>(2 * keep + 5);
        std::vector<c32> in(batch * (3 * nonzero + 1), c32{9.0f, 9.0f});
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t j = 0; j < nonzero; ++j) {
            in[b * (3 * nonzero + 1) + 3 * j] = packed_in[b * nonzero + j];
          }
        }
        const c32 sentinel{-7.0f, 7.0f};
        std::vector<c32> out(batch * (2 * keep + 5), sentinel);
        plan.execute_strided(in.data(), out.data(), batch, layout);
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t k = 0; k < 2 * keep + 5; ++k) {
            const c32 v = out[b * (2 * keep + 5) + k];
            if (k % 2 == 0 && k / 2 < keep) {
              ASSERT_EQ(v, packed_out[b * keep + k / 2])
                  << "n=" << n << " keep=" << keep << " nonzero=" << nonzero << " b=" << b;
            } else {
              ASSERT_EQ(v, sentinel) << "wrote outside the strided output, n=" << n;
            }
          }
        }
      }
    }
  }
}

TEST_P(PrunedPlan, InPlaceMatchesOutOfPlace) {
  // n = 2 and 4 are single-pass schedules (the first pass is also the
  // last); 8 and 256 read the input in the first pass and write it back in
  // the last.
  const Direction dir = GetParam();
  for (const std::size_t n : {2u, 4u, 8u, 256u}) {
    for (const std::size_t nonzero : filter_values(n)) {
      for (const std::size_t keep : filter_values(n)) {
        if (keep > nonzero) continue;
        const FftPlan plan = make_plan(n, dir, keep, nonzero);
        const std::size_t batch = 2;
        std::vector<c32> buf = random_signal(batch * nonzero, 900u + static_cast<unsigned>(n));
        std::vector<c32> want(batch * keep);
        plan.execute(buf, want, batch);
        // In place, signals stay nonzero elements apart; outputs land at
        // the front of each signal's slot.
        ExecLayout layout;
        layout.in_batch_stride = static_cast<std::ptrdiff_t>(nonzero);
        layout.out_batch_stride = static_cast<std::ptrdiff_t>(nonzero);
        plan.execute_strided(buf.data(), buf.data(), batch, layout);
        for (std::size_t b = 0; b < batch; ++b) {
          ASSERT_EQ(mismatches({buf.data() + b * nonzero, keep}, {want.data() + b * keep, keep}),
                    0u)
              << "n=" << n << " keep=" << keep << " nonzero=" << nonzero;
        }
        if (keep == nonzero) {
          std::vector<c32> packed = random_signal(batch * nonzero, 901u);
          std::vector<c32> packed_want(batch * keep);
          plan.execute(packed, packed_want, batch);
          plan.execute(packed, packed, batch);
          ASSERT_EQ(mismatches(packed, packed_want), 0u) << "n=" << n << " keep=" << keep;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Directions, PrunedPlan,
                         ::testing::Values(Direction::Forward, Direction::Inverse),
                         [](const auto& info) {
                           return info.param == Direction::Forward ? "Forward" : "Inverse";
                         });

// ----------------------------------------------------------------- Figure 5

TEST(Figure5, FourPointTruncation25PercentIsThreeOps) {
  // Paper Fig 5(a): 4-point FFT keeping 1 of 4 outputs -> 3 ops (37.5%).
  EXPECT_EQ(count_pruned_ops(4, 1, 4).unit_ops, 3u);
  EXPECT_DOUBLE_EQ(pruned_fraction(4, 1, 4), 0.375);
}

TEST(Figure5, FourPointTruncation50PercentIsSixOps) {
  // Paper Fig 5(b): keeping 2 of 4 -> 6 ops (75%).
  EXPECT_EQ(count_pruned_ops(4, 2, 4).unit_ops, 6u);
  EXPECT_DOUBLE_EQ(pruned_fraction(4, 2, 4), 0.75);
}

TEST(Figure5, FourPointFullIsEightOps) {
  // Paper Fig 5(c): baseline two stages, 8 ops total.
  EXPECT_EQ(count_full_ops(4).unit_ops, 8u);
}

TEST(Figure5, ComputationReductionBandMatchesPaper) {
  // Section 5.1: "pruning reduces computation by 25%-67.5%".  The band
  // describes the combined forward-truncated + inverse-zero-padded pruning
  // at the per-thread FFT granularity the kernel uses (4..32 points, paper
  // Table 1: n1 = 8, n2 = 16) with 25% of the spectrum kept.
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const std::size_t m = n / 4;
    const auto fwd = count_pruned_ops(n, m, n).unit_ops;   // truncated FFT
    const auto inv = count_pruned_ops(n, n, m).unit_ops;   // zero-padded iFFT
    const auto full = 2 * count_full_ops(n).unit_ops;
    const double reduction = 1.0 - static_cast<double>(fwd + inv) / static_cast<double>(full);
    EXPECT_GE(reduction, 0.25) << "n=" << n;
    EXPECT_LE(reduction, 0.675) << "n=" << n;
  }
  // Known anchors: 4-pt/25% -> 62.5%, 32-pt/25% -> 25.0%.
  EXPECT_DOUBLE_EQ(
      1.0 - static_cast<double>(count_pruned_ops(4, 1, 4).unit_ops +
                                count_pruned_ops(4, 4, 1).unit_ops) /
                static_cast<double>(2 * count_full_ops(4).unit_ops),
      0.625);
}

TEST(Figure5, MoreTruncationPrunesMore) {
  for (std::size_t n : {64u, 256u}) {
    for (std::size_t m = 1; m < n; m *= 2) {
      EXPECT_LE(count_pruned_ops(n, m, n).unit_ops, count_pruned_ops(n, 2 * m, n).unit_ops)
          << "n=" << n << " m=" << m;
    }
  }
}

TEST(OpCount, FullCountMatchesClassicFormula) {
  // Unpruned: log2(n) stages x n unit ops (every butterfly output).
  for (std::size_t n : {2u, 4u, 8u, 16u, 64u, 256u, 1024u}) {
    EXPECT_EQ(count_full_ops(n).unit_ops, n * log2u(n));
  }
}

TEST(OpCount, MonotoneInKeep) {
  for (std::size_t m = 1; m <= 128; ++m) {
    EXPECT_LE(count_pruned_ops(128, m, 128).unit_ops,
              count_pruned_ops(128, std::min<std::size_t>(m + 1, 128), 128).unit_ops);
  }
}

TEST(OpCount, MonotoneInNonzeroPrefix) {
  for (std::size_t p = 1; p < 128; ++p) {
    EXPECT_LE(count_pruned_ops(128, 128, p).unit_ops,
              count_pruned_ops(128, 128, p + 1).unit_ops);
  }
}

TEST(OpCount, ZeroPadHalvesFirstStageMultiplies) {
  // With p <= n/2, stage one has no full butterflies at all: only copy +
  // twiddle-scale lanes, so cadd count drops by n/2 relative to full.
  const OpCount full = count_full_ops(64);
  const OpCount padded = count_pruned_ops(64, 64, 32);
  EXPECT_LT(padded.cadd, full.cadd);
  EXPECT_LT(padded.flops(), full.flops());
}

TEST(OpCount, FlopsOfPlanMatchCounter) {
  PlanDesc d;
  d.n = 256;
  d.keep = 64;
  const FftPlan plan(d);
  EXPECT_EQ(plan.flops_per_signal(), count_stockham_ops(256, 64, 256).flops());
  EXPECT_EQ(plan.unit_ops_per_signal(), count_pruned_ops(256, 64, 256).unit_ops);
}

TEST(StockhamOpCount, DenseCountMatchesPassStructure) {
  // Dense radix-4 pass: 8 adds per butterfly and 3 multiplies per p > 0
  // group; a radix-2 pass: 2 adds and 1 multiply.  n = 4: one p == 0
  // butterfly; n = 8: radix-4 over l = 2 (one twiddled group of s = 1),
  // then a radix-2 pass of 4 p == 0 butterflies.
  EXPECT_EQ(count_stockham_ops(4, 4, 4).cadd, 8u);
  EXPECT_EQ(count_stockham_ops(4, 4, 4).cmul, 0u);
  EXPECT_EQ(count_stockham_ops(8, 8, 8).cadd, 2u * 8u + 4u * 2u);
  EXPECT_EQ(count_stockham_ops(8, 8, 8).cmul, 3u);
  // Truncated to one bin, a 4-point transform is a pure 4-term sum; padded
  // to one nonzero input it is four copies.
  EXPECT_EQ(count_stockham_ops(4, 1, 4).cadd, 3u);
  EXPECT_EQ(count_stockham_ops(4, 4, 1).cadd, 0u);
  EXPECT_EQ(count_stockham_ops(4, 4, 1).flops(), 0u);
}

TEST(StockhamOpCount, PrunedNeverExceedsDense) {
  // A plan's executed FLOPs never exceed the dense plan's, and pruning at
  // least half the spectrum on either side strictly saves work.
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    PlanDesc dense_desc;
    dense_desc.n = n;
    const std::uint64_t dense = FftPlan(dense_desc).flops_per_signal();
    EXPECT_EQ(dense, count_stockham_ops(n, n, n).flops());
    for (const std::size_t keep : filter_values(n)) {
      for (const std::size_t nonzero : filter_values(n)) {
        const FftPlan plan = make_plan(n, Direction::Forward, keep, nonzero);
        const std::uint64_t flops = plan.flops_per_signal();
        EXPECT_LE(flops, dense) << "n=" << n << " keep=" << keep << " nonzero=" << nonzero;
        if (keep <= n / 2 || nonzero <= n / 2) {
          EXPECT_LT(flops, dense) << "n=" << n << " keep=" << keep << " nonzero=" << nonzero;
        }
      }
    }
  }
}

}  // namespace
}  // namespace turbofno::fft
