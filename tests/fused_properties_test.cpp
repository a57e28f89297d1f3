// Property suite over the fused pipeline ladder: the recorded traffic
// counters must equal the closed-form byte/FLOP formulas derived from the
// problem shape, for every variant over a shape grid.  These are the same
// identities the A100 predictions rest on, so drift here would silently
// corrupt every modeled figure.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "fft/opcount.hpp"
#include "fused/ladder.hpp"
#include "test_util.hpp"

namespace turbofno::fused {
namespace {

using baseline::Spectral1dProblem;
using baseline::Spectral2dProblem;
using turbofno::testing::random_signal;

class CounterLaws1d : public ::testing::TestWithParam<Spectral1dProblem> {};

trace::StageCounters run_total_1d(Variant var, const Spectral1dProblem& p) {
  const auto u = random_signal(p.input_elems(), 3001u);
  const auto w = random_signal(p.weight_elems(), 3003u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline1d(var, p);
  pipe->run(u, w, v);
  return pipe->counters().total();
}

TEST_P(CounterLaws1d, BaselineBytesFormula) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::PyTorch, p);
  const std::uint64_t e = sizeof(c32);
  // fft r/w full + trunc copy r/w + gemm (A=W once, B, C) + pad copy + ifft.
  const std::uint64_t expect_read =
      (p.batch * p.hidden * p.n) * e + (p.batch * p.hidden * p.modes) * e +
      (p.batch * p.hidden * p.modes + p.out_dim * p.hidden) * e +
      (p.batch * p.out_dim * p.modes) * e + (p.batch * p.out_dim * p.n) * e;
  const std::uint64_t expect_write =
      (p.batch * p.hidden * p.n) * e + (p.batch * p.hidden * p.modes) * e +
      (p.batch * p.out_dim * p.modes) * e + (p.batch * p.out_dim * p.n) * e +
      (p.batch * p.out_dim * p.n) * e;
  EXPECT_EQ(t.bytes_read, expect_read);
  EXPECT_EQ(t.bytes_written, expect_write);
  EXPECT_EQ(t.kernel_launches, 5u);
}

TEST_P(CounterLaws1d, FullyFusedBytesFormula) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::FullyFused, p);
  EXPECT_EQ(t.bytes_read, (p.input_elems() + p.weight_elems()) * sizeof(c32));
  EXPECT_EQ(t.bytes_written, p.output_elems() * sizeof(c32));
  EXPECT_EQ(t.kernel_launches, 1u);

  // The real lane moves float samples in and out; the weights stay complex.
  std::vector<float> ur(p.input_elems());
  for (std::size_t i = 0; i < ur.size(); ++i) ur[i] = static_cast<float>(i % 5) - 2.0f;
  const auto w = random_signal(p.weight_elems(), 3005u);
  std::vector<float> vr(p.output_elems());
  auto pipe = make_pipeline1d(Variant::FullyFused, p);
  pipe->run_batched_real(ur, w, vr, p.batch);
  const auto tr = pipe->counters().total();
  EXPECT_EQ(tr.bytes_read, p.input_elems() * sizeof(float) + p.weight_elems() * sizeof(c32));
  EXPECT_EQ(tr.bytes_written, p.output_elems() * sizeof(float));
  EXPECT_EQ(tr.kernel_launches, 1u);
}

TEST_P(CounterLaws1d, FusedFlopsDecomposition) {
  const auto& p = GetParam();
  const auto t = run_total_1d(Variant::FullyFused, p);
  const auto fwd = fft::count_stockham_ops(p.n, p.modes, p.n).flops();
  const auto inv = fft::count_stockham_ops(p.n, p.n, p.modes).flops();
  const std::uint64_t expect = p.batch * p.hidden * fwd +
                               trace::cgemm_flops(p.batch * p.modes, p.out_dim, p.hidden) +
                               p.batch * p.out_dim * inv;
  EXPECT_EQ(t.flops, expect);
}

TEST_P(CounterLaws1d, PartialFusionsBracketTheEndpoints) {
  const auto& p = GetParam();
  const auto base = run_total_1d(Variant::PyTorch, p).bytes_total();
  const auto a = run_total_1d(Variant::FftOpt, p).bytes_total();
  const auto b = run_total_1d(Variant::FusedFftGemm, p).bytes_total();
  const auto c = run_total_1d(Variant::FusedGemmIfft, p).bytes_total();
  const auto d = run_total_1d(Variant::FullyFused, p).bytes_total();
  EXPECT_GT(base, a);
  EXPECT_GE(a, b);
  EXPECT_GE(a, c);
  EXPECT_GE(b, d);
  EXPECT_GE(c, d);
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, CounterLaws1d,
                         ::testing::Values(Spectral1dProblem{1, 8, 8, 32, 8},
                                           Spectral1dProblem{3, 16, 8, 64, 16},
                                           Spectral1dProblem{2, 24, 32, 128, 64},
                                           Spectral1dProblem{5, 9, 7, 64, 64},
                                           Spectral1dProblem{4, 32, 32, 256, 64},
                                           Spectral1dProblem{2, 8, 8, 64, 1}));

class CounterLaws2d : public ::testing::TestWithParam<Spectral2dProblem> {};

TEST_P(CounterLaws2d, FullyFusedBytesFormula) {
  // The X spectra stay in staging tiles, so only the true global tensors
  // and the weights count as traffic.
  const auto& p = GetParam();
  const auto u = random_signal(p.input_elems(), 3011u);
  const auto w = random_signal(p.weight_elems(), 3013u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, p);
  const std::uint64_t e = sizeof(c32);
  pipe->run(u, w, v);
  const auto t = pipe->counters().total();
  EXPECT_EQ(t.bytes_read, (p.input_elems() + p.weight_elems()) * e);
  EXPECT_EQ(t.bytes_written, p.output_elems() * e);
  EXPECT_EQ(t.kernel_launches, 3u);
}

TEST_P(CounterLaws2d, FullyFusedRealLaneBytesFormula) {
  // The real lane's fields are floats; the weights stay complex and the
  // half-spectrum staging tiles count as on-chip, as on the complex lane.
  const auto& p = GetParam();
  std::vector<float> u(p.input_elems());
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<float>(i % 7) - 3.0f;
  const auto w = random_signal(p.weight_elems(), 3015u);
  std::vector<float> v(p.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, p);
  pipe->run_batched_real(u, w, v, p.batch);
  const auto t = pipe->counters().total();
  EXPECT_EQ(t.bytes_read, p.input_elems() * sizeof(float) + p.weight_elems() * sizeof(c32));
  EXPECT_EQ(t.bytes_written, p.output_elems() * sizeof(float));
  EXPECT_EQ(t.kernel_launches, 3u);
}

TEST_P(CounterLaws2d, TruncationShrinksTheMiddle) {
  // The fused middle stage must move strictly fewer bytes than the input
  // whenever modes_x < nx (the Figure 4 write saving).
  const auto& p = GetParam();
  if (p.modes_x == p.nx) GTEST_SKIP();
  const auto u = random_signal(p.input_elems(), 3017u);
  const auto w = random_signal(p.weight_elems(), 3019u);
  std::vector<c32> v(p.output_elems());
  auto pipe = make_pipeline2d(Variant::FullyFused, p);
  pipe->run(u, w, v);
  std::uint64_t mid_bytes = 0;
  for (const auto& s : pipe->counters().stages()) {
    if (s.name == "fused-fft-cgemm-ifft") mid_bytes = s.bytes_total();
  }
  EXPECT_LT(mid_bytes,
            pipe->counters().stages().front().bytes_total());
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, CounterLaws2d,
                         ::testing::Values(Spectral2dProblem{1, 8, 8, 16, 16, 4, 4},
                                           Spectral2dProblem{2, 16, 8, 32, 16, 8, 8},
                                           Spectral2dProblem{1, 8, 16, 16, 32, 16, 8},
                                           Spectral2dProblem{2, 8, 8, 16, 16, 16, 16}));

// ------------------------------------------------- batched serving entries
//
// The serving layer coalesces independent requests into micro-batches, so
// each request's output must be bitwise-invariant to (a) the size of the
// batch it rides in ("linearity in the batch dimension": running a prefix
// equals the prefix of a full run) and (b) its position in the batch.  Any
// cross-request state leak in a pipeline breaks one of these.

template <class T>
bool same_bits(std::span<const T> a, std::span<const T> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

std::vector<float> real_signal(std::size_t n, unsigned seed) {
  const auto z = random_signal(n, seed);
  std::vector<float> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = z[i].re;
  return x;
}

// Checks both invariances for one lane: `run(u, v, b)` runs the first b
// requests of u into v.
template <class T, class Run>
void expect_batch_invariant(const Run& run, std::span<const T> u, std::size_t batch,
                            std::size_t in_stride, std::size_t out_stride,
                            const std::string& what) {
  std::vector<T> full(batch * out_stride);
  run(u, std::span<T>(full), batch);

  // Prefix runs equal prefixes of the full run (batch-dimension linearity).
  for (std::size_t b = 1; b < batch; ++b) {
    std::vector<T> prefix(b * out_stride);
    run(u.first(b * in_stride), std::span<T>(prefix), b);
    EXPECT_TRUE(same_bits<T>(prefix, std::span<const T>(full).first(b * out_stride)))
        << what << " prefix batch " << b;
  }

  // Each request alone reproduces its slice (position invariance).
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<T> one(out_stride);
    run(u.subspan(b * in_stride, in_stride), std::span<T>(one), 1);
    EXPECT_TRUE(
        same_bits<T>(one, std::span<const T>(full).subspan(b * out_stride, out_stride)))
        << what << " request " << b;
  }
}

TEST(BatchedEntry1d, EachRequestBitwiseInvariantToBatchCompositionAllVariants) {
  const Spectral1dProblem p{4, 8, 6, 64, 16};
  const auto u = random_signal(p.input_elems(), 4001u);
  const auto ur = real_signal(p.input_elems(), 4002u);
  const auto w = random_signal(p.weight_elems(), 4003u);
  const std::size_t in_stride = p.hidden * p.n;
  const std::size_t out_stride = p.out_dim * p.n;

  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline1d(var, p);
    const std::string name(variant_name(var));
    expect_batch_invariant<c32>(
        [&](std::span<const c32> in, std::span<c32> out, std::size_t b) {
          pipe->run_batched(in, w, out, b);
        },
        u, p.batch, in_stride, out_stride, name);
    expect_batch_invariant<float>(
        [&](std::span<const float> in, std::span<float> out, std::size_t b) {
          pipe->run_batched_real(in, w, out, b);
        },
        ur, p.batch, in_stride, out_stride, name + " (real)");
  }
}

TEST(BatchedEntry1d, PermutedBatchPermutesOutputsBitwise) {
  const Spectral1dProblem p{3, 8, 8, 64, 16};
  const auto u = random_signal(p.input_elems(), 4011u);
  const auto w = random_signal(p.weight_elems(), 4013u);
  const std::size_t in_stride = p.hidden * p.n;
  const std::size_t out_stride = p.out_dim * p.n;
  const std::size_t perm[] = {2, 0, 1};

  auto pipe = make_pipeline1d(Variant::FullyFused, p);
  std::vector<c32> base(p.output_elems());
  pipe->run_batched(u, w, base, p.batch);

  std::vector<c32> u_perm(p.input_elems());
  for (std::size_t b = 0; b < p.batch; ++b) {
    std::memcpy(u_perm.data() + b * in_stride, u.data() + perm[b] * in_stride,
                in_stride * sizeof(c32));
  }
  std::vector<c32> out_perm(p.output_elems());
  pipe->run_batched(u_perm, w, out_perm, p.batch);
  for (std::size_t b = 0; b < p.batch; ++b) {
    EXPECT_TRUE(same_bits<c32>(
        std::span<const c32>(out_perm).subspan(b * out_stride, out_stride),
        std::span<const c32>(base).subspan(perm[b] * out_stride, out_stride)))
        << "slot " << b;
  }
}

TEST(BatchedEntry1d, OverCapacityThrowsAndZeroIsANoOp) {
  const Spectral1dProblem p{2, 8, 8, 32, 8};
  const auto u = random_signal(p.input_elems(), 4021u);
  const auto w = random_signal(p.weight_elems(), 4023u);
  std::vector<c32> v(p.output_elems());
  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline1d(var, p);
    EXPECT_THROW(pipe->run_batched(u, w, v, p.batch + 1), std::invalid_argument)
        << variant_name(var);
    pipe->run_batched(u, w, v, 0);  // must not touch v or crash
    EXPECT_TRUE(pipe->counters().stages().empty()) << variant_name(var);
  }
}

TEST(BatchedEntry2d, EachRequestBitwiseInvariantToBatchCompositionAllVariants) {
  const Spectral2dProblem p{3, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 4031u);
  const auto ur = real_signal(p.input_elems(), 4032u);
  const auto w = random_signal(p.weight_elems(), 4033u);
  const std::size_t in_stride = p.hidden * p.nx * p.ny;
  const std::size_t out_stride = p.out_dim * p.nx * p.ny;

  for (const auto var : kAllVariants) {
    auto pipe = make_pipeline2d(var, p);
    const std::string name(variant_name(var));
    expect_batch_invariant<c32>(
        [&](std::span<const c32> in, std::span<c32> out, std::size_t b) {
          pipe->run_batched(in, w, out, b);
        },
        u, p.batch, in_stride, out_stride, name);
    expect_batch_invariant<float>(
        [&](std::span<const float> in, std::span<float> out, std::size_t b) {
          pipe->run_batched_real(in, w, out, b);
        },
        ur, p.batch, in_stride, out_stride, name + " (real)");
  }
}

TEST(BatchedEntry2d, CountersScaleWithTheMicroBatch) {
  // The counter formulas must describe the micro-batch actually executed,
  // not the planned capacity, or serving telemetry over-reports traffic.
  const Spectral2dProblem p{4, 8, 8, 16, 16, 4, 4};
  const auto u = random_signal(p.input_elems(), 4041u);
  const auto w = random_signal(p.weight_elems(), 4043u);
  auto pipe = make_pipeline2d(Variant::FullyFused, p);

  std::vector<c32> v(p.output_elems());
  pipe->run_batched(u, w, v, p.batch);
  const auto full = pipe->counters().total();

  const std::size_t half = p.batch / 2;
  pipe->run_batched(std::span<const c32>(u).first(half * p.hidden * p.nx * p.ny), w,
                    std::span<c32>(v).first(half * p.out_dim * p.nx * p.ny), half);
  const auto part = pipe->counters().total();

  // Input/output traffic halves exactly; the shared weight read does not.
  const std::uint64_t w_bytes = p.weight_elems() * sizeof(c32);
  EXPECT_EQ(part.bytes_read - w_bytes, (full.bytes_read - w_bytes) / 2);
  EXPECT_EQ(part.bytes_written, full.bytes_written / 2);
  EXPECT_EQ(part.flops, full.flops / 2);
}

}  // namespace
}  // namespace turbofno::fused
