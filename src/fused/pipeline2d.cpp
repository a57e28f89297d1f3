#include "fused/pipeline2d.hpp"

#include <algorithm>
#include <atomic>

#include "fused/fft_variant.hpp"
#include "gemm/batched.hpp"
#include "gemm/config.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "runtime/timer.hpp"
#include "tensor/simd.hpp"
#include "tensor/transpose.hpp"

namespace turbofno::fused {

namespace {

constexpr std::size_t kTb = gemm::FusedTiles::Ktb;

// x-rows handled jointly by one fused middle task on the y-major staging
// layout: 8 c32 x-columns span one 64-byte cache line of a staging row, so
// the blocked SIMD transpose that feeds (or drains) the k-loop touches
// every staging line exactly once per block.  Row-by-row strided gathers
// would instead re-touch each k-tile's 8 channel tiles per x-row — a
// ~512 KiB working set that measurably thrashes.
constexpr std::size_t kXBlock = 8;

// Cache budget for one fused-middle batch group's staging tiles (input plus
// output planes together).  Groups sized under this stay resident between
// the X stage that fills them and the middle/inverse stages that drain
// them, which is where the skipped [B*K*mx*ny] intermediate round trip
// turns into wall-clock.
constexpr std::size_t kMidStagingBudgetBytes = 8u << 20;

std::atomic<std::size_t> g_mid_group_override{0};

}  // namespace

void set_fused_mid_group(std::size_t g) noexcept {
  g_mid_group_override.store(g, std::memory_order_relaxed);
}

Pipeline2dBase::Pipeline2dBase(baseline::Spectral2dProblem prob, const char* counters_name)
    : prob_(prob),
      x_complex_(ComplexLane::x_plans(prob.nx, prob.modes_x)),
      y_(ComplexLane::plans(prob.ny, prob.modes_y)),
      counters_(counters_name) {
  prob_.validate();
  // The staging tiles are sized lazily by run_mid (one batch group each).
}

void Pipeline2dBase::ensure_mid_buffers(std::size_t group) {
  const std::size_t MX = prob_.modes_x;
  const std::size_t NY = prob_.ny;
  const std::size_t bg = std::max<std::size_t>(group, 1);
  ensure(staging_in_, bg * prob_.hidden * NY * MX);
  ensure(staging_out_, bg * prob_.out_dim * NY * MX);
}

void Pipeline2dBase::reserve(std::size_t batch) {
  if (batch != 0) {
    // Pre-size the staging tiles so a batch this large triggers no
    // allocation on the run path (mid_group() caps them at one
    // cache-budget group).  Grow the buffers BEFORE bumping the capacity
    // mark: a bad_alloc here must not leave problem().batch claiming
    // workspaces that were never grown.
    ensure_mid_buffers(mid_group(batch));
  }
  if (batch > prob_.batch) prob_.batch = batch;
}

template <class Lane>
void Pipeline2dBase::check_spans(std::span<const typename Lane::Sample> u,
                                 std::span<typename Lane::Sample> v, std::size_t batch) const {
  const std::size_t field = prob_.nx * prob_.ny;
  baseline::check_batch_spans(u.size(), v.size(), prob_.hidden * field, prob_.out_dim * field,
                              batch, Lane::kWho2d);
}

template <class Lane>
const typename Lane::XPlans& Pipeline2dBase::x_plans() {
  auto& p = Lane::pick(x_complex_, x_real_);
  if (!p.fwd) p = Lane::x_plans(prob_.nx, Lane::kept(prob_.modes_x));
  return p;
}

std::size_t Pipeline2dBase::mid_group(std::size_t batch) const noexcept {
  if (batch == 0) return 1;
  const std::size_t ov = g_mid_group_override.load(std::memory_order_relaxed);
  if (ov > 0) return std::min(ov, batch);
  const std::size_t per_b =
      (prob_.hidden + prob_.out_dim) * prob_.modes_x * prob_.ny * sizeof(c32);
  const std::size_t bg = std::max<std::size_t>(kMidStagingBudgetBytes / per_b, 1);
  return std::min(bg, batch);
}

void Pipeline2dBase::gather_xblock(const MidView& mv, std::size_t bl, std::size_t k0,
                                   std::size_t kc, std::size_t x0, std::size_t xc,
                                   std::size_t xb, std::size_t ny, c32* gbuf) noexcept {
  // One line-efficient transpose per channel: staging columns [x0, x0+xc)
  // become contiguous rows of gbuf.
  for (std::size_t kk = 0; kk < kc; ++kk) {
    simd::transpose(mv.in_row(bl, k0 + kk, x0), mv.y, gbuf + kk * xb * ny, ny, ny, xc);
  }
}

void Pipeline2dBase::scatter_xblock(const MidView& mv, std::size_t bl, std::size_t o,
                                    std::size_t x0, std::size_t xc, std::size_t ny,
                                    const c32* sbuf) noexcept {
  // Contiguous rows back into staging columns, one transpose per output
  // channel block.
  simd::transpose(sbuf, ny, mv.out_row(bl, o, x0), mv.y, xc, ny);
}

void Pipeline2dBase::y_forward_rows(const fft::FftPlan& plan, const MidView& mv,
                                    std::size_t channels, std::size_t mx, std::size_t my,
                                    c32* spectra) {
  runtime::parallel_for(0, mv.count * channels * mx, 16,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(plan.scratch_elems());
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t bl = r / (channels * mx);
      const std::size_t c = (r / mx) % channels;
      const std::size_t x = r % mx;
      plan.execute_one(mv.in_row(bl, c, x), static_cast<std::ptrdiff_t>(mv.y),
                       spectra + ((bl * channels + c) * mx + x) * my, 1, work);
    }
    // tfno-hot-end
  });
}

void Pipeline2dBase::y_inverse_rows(const fft::FftPlan& plan, const MidView& mv,
                                    std::size_t channels, std::size_t mx, std::size_t my,
                                    const c32* spectra) {
  runtime::parallel_for(0, mv.count * channels * mx, 16,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(plan.scratch_elems());
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t bl = r / (channels * mx);
      const std::size_t c = (r / mx) % channels;
      const std::size_t x = r % mx;
      plan.execute_one(spectra + ((bl * channels + c) * mx + x) * my, 1,
                       mv.out_row(bl, c, x), static_cast<std::ptrdiff_t>(mv.y), work);
    }
    // tfno-hot-end
  });
}

template <class Lane>
void Pipeline2dBase::run_mid(std::span<const typename Lane::Sample> u,
                             std::span<typename Lane::Sample> v, std::size_t batch,
                             std::size_t group,
                             const std::function<void(const MidView&)>& middle) {
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NX = prob_.nx;
  const std::size_t NY = prob_.ny;
  const std::size_t MX = Lane::kept(prob_.modes_x);
  const auto& xp = x_plans<Lane>();

  // Stage one batch group of y-major X-spectra tiles at a time.  Each group
  // runs X -> middle -> inverse X back to back so the tiles are consumed
  // while still cache-resident; the parallel_for inside each phase keeps
  // the worker pool busy (group * K * slab tasks).  Column spectra are
  // packed MX apart; MX <= modes_x, so the staging covers both lanes.
  const std::size_t bg = std::max<std::size_t>(group, 1);
  ensure_mid_buffers(bg);

  for (std::size_t b0 = 0; b0 < B; b0 += bg) {
    const std::size_t g = std::min(bg, B - b0);
    {
      runtime::Timer t;
      Lane::x_to_tiles(xp, MX, u.data() + b0 * K * NX * NY, g * K, NY,
                       [this, MX, NY](std::size_t f, std::size_t y0, std::size_t) {
                         return staging_in_.data() + (f * NY + y0) * MX;
                       });
      counters_.stage("fft-x-trunc").seconds += t.seconds();
    }

    MidView mv;
    mv.in = staging_in_.data();
    mv.out = staging_out_.data();
    mv.count = g;
    mv.y = MX;
    mv.chan = NY * MX;
    mv.in_b = K * NY * MX;
    mv.out_b = O * NY * MX;
    middle(mv);

    {
      runtime::Timer t;
      Lane::x_from_tiles(
          xp, MX,
          [this, MX, NY](std::size_t f, std::size_t y0, std::size_t) {
            return static_cast<const c32*>(staging_out_.data() + (f * NY + y0) * MX);
          },
          v.data() + b0 * O * NX * NY, g * O, NY);
      counters_.stage("ifft-x-pad").seconds += t.seconds();
    }
  }

  // Closed-form per-run accounting.  The staging tiles are the CPU analogue
  // of the paper's shared-memory residency, so — like the fused kernels'
  // on-chip operands — they count zero global-memory traffic: the X stages
  // touch only the true global tensors u and v.
  const std::uint64_t e = sizeof(typename Lane::Sample);
  auto& sx = counters_.stage("fft-x-trunc");
  sx.bytes_read = B * K * NX * NY * e;
  sx.bytes_written = 0;
  sx.flops = B * K * Lane::x_flops_per_field(*xp.fwd, MX, NY);
  sx.kernel_launches = 1;
  auto& si = counters_.stage("ifft-x-pad");
  si.bytes_read = 0;
  si.bytes_written = B * O * NX * NY * e;
  si.flops = B * O * Lane::x_flops_per_field(*xp.inv, MX, NY);
  si.kernel_launches = 1;
}

// ---------------------------------------------------------------- FftOpt (A)

FftOptPipeline2d::FftOptPipeline2d(baseline::Spectral2dProblem prob)
    : Pipeline2dBase(prob, "fftopt-2d") {}

void FftOptPipeline2d::ensure_variant_buffers(std::size_t gcap) {
  const std::size_t modes = prob_.modes_x * prob_.modes_y;
  ensure(freq_, gcap * prob_.hidden * modes);
  ensure(mixed_, gcap * prob_.out_dim * modes);
}

void FftOptPipeline2d::reserve(std::size_t batch) {
  if (batch != 0) {
    ensure_variant_buffers(mid_group(batch));
  }
  Pipeline2dBase::reserve(batch);
}

void FftOptPipeline2d::middle_group(const MidView& mv, std::span<const c32> w,
                                    std::size_t mx) {
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MY = prob_.modes_y;
  const std::size_t modes = mx * MY;

  // Stage 2: truncated FFT along Y (unfused).
  {
    runtime::Timer t;
    y_forward_rows(*y_.fwd, mv, K, mx, MY, freq_.data());
    counters_.stage("fft-y-trunc").seconds += t.seconds();
  }

  // Stage 3: batched CGEMM over the group.
  {
    runtime::Timer t;
    gemm::BatchedStrides strides;
    strides.a = 0;
    strides.b = static_cast<std::ptrdiff_t>(K * modes);
    strides.c = static_cast<std::ptrdiff_t>(O * modes);
    gemm::cgemm_batched(O, modes, K, c32{1.0f, 0.0f}, w.data(), K, freq_.data(), modes,
                        c32{0.0f, 0.0f}, mixed_.data(), modes, mv.count, strides);
    counters_.stage("cgemm").seconds += t.seconds();
  }

  // Stage 4: zero-padded iFFT along Y (unfused).
  {
    runtime::Timer t;
    y_inverse_rows(*y_.inv, mv, O, mx, MY, mixed_.data());
    counters_.stage("ifft-y-pad").seconds += t.seconds();
  }
}

void FftOptPipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                  std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FftOptPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                       std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FftOptPipeline2d::run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                               std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MX = Lane::kept(prob_.modes_x);
  const std::size_t modes = MX * prob_.modes_y;

  const std::size_t gcap = mid_group(B);
  ensure_variant_buffers(gcap);
  run_mid<Lane>(u, v, B, gcap, [&](const MidView& mv) { middle_group(mv, w, MX); });

  const std::uint64_t e = sizeof(c32);
  auto& sy = counters_.stage("fft-y-trunc");
  sy.bytes_read = 0;
  sy.bytes_written = B * K * modes * e;
  sy.flops = B * K * MX * y_.fwd->flops_per_signal();
  sy.kernel_launches = 1;
  auto& sg = counters_.stage("cgemm");
  sg.bytes_read = (B * K * modes + O * K) * e;
  sg.bytes_written = B * O * modes * e;
  sg.flops = trace::cgemm_flops(B * modes, O, K);
  sg.kernel_launches = 1;
  auto& sp = counters_.stage("ifft-y-pad");
  sp.bytes_read = B * O * modes * e;
  sp.bytes_written = 0;
  sp.flops = B * O * MX * y_.inv->flops_per_signal();
  sp.kernel_launches = 1;
}

// --------------------------------------------------------- FusedFftGemm (B)

FusedFftGemmPipeline2d::FusedFftGemmPipeline2d(baseline::Spectral2dProblem prob)
    : Pipeline2dBase(prob, "fused-fft-gemm-2d") {}

void FusedFftGemmPipeline2d::ensure_variant_buffers(std::size_t gcap) {
  ensure(mixed_, gcap * prob_.out_dim * prob_.modes_x * prob_.modes_y);
}

void FusedFftGemmPipeline2d::reserve(std::size_t batch) {
  if (batch != 0) {
    ensure_variant_buffers(mid_group(batch));
  }
  Pipeline2dBase::reserve(batch);
}

void FusedFftGemmPipeline2d::middle_group(const MidView& mv, std::span<const c32> w,
                                          std::size_t mx) {
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NY = prob_.ny;
  const std::size_t MY = prob_.modes_y;

  // Fused FFT-Y + CGEMM: one task per (batch, x-block), iterating the
  // hidden dim like the GEMM k-loop (Figure 6(c)).  On the y-major
  // staging, each k-tile channel moves through one blocked SIMD
  // transpose so the k-loop streams contiguous rows (see kXBlock).
  {
    runtime::Timer t;
    const std::size_t ld = simd::round_up_lanes(MY);
    const std::size_t xb = std::min<std::size_t>(kXBlock, mx);
    const std::size_t nblk = (mx + xb - 1) / xb;
    runtime::parallel_for(0, mv.count * nblk, runtime::fused_grain(mv.count * nblk),
                          [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      const std::span<c32> row = arena.alloc<c32>(ld);  // one channel's Y spectrum
      const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);
      const std::span<float> acc = arena.alloc<float>(xb * 2 * O * ld);
      const std::span<c32> gbuf = arena.alloc<c32>(kTb * xb * NY);
      const std::span<c32> work = arena.alloc<c32>(y_.fwd->scratch_elems());
      // rank_update_split streams whole ld-wide rows, so the tile planes'
      // lane padding must be zero; the arena hands out raw storage.
      std::fill(tsplit.begin(), tsplit.end(), 0.0f);
      float* tre = tsplit.data();
      float* tim = tre + kTb * ld;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t bl = i / nblk;
        const std::size_t x0 = (i % nblk) * xb;
        const std::size_t xc = std::min(xb, mx - x0);
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          const std::size_t kc = std::min(kTb, K - k0);
          gather_xblock(mv, bl, k0, kc, x0, xc, xb, NY, gbuf.data());
          for (std::size_t xi = 0; xi < xc; ++xi) {
            float* are = acc.data() + xi * 2 * O * ld;
            float* aim = are + O * ld;
            for (std::size_t kk = 0; kk < kc; ++kk) {
              y_.fwd->execute_one(gbuf.data() + (kk * xb + xi) * NY, 1, row.data(), 1, work);
              simd::split_planes(row.data(), tre + kk * ld, tim + kk * ld, MY);
            }
            rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
          }
        }
        for (std::size_t xi = 0; xi < xc; ++xi) {
          const float* are = acc.data() + xi * 2 * O * ld;
          const float* aim = are + O * ld;
          for (std::size_t o = 0; o < O; ++o) {
            simd::interleave_planes(are + o * ld, aim + o * ld,
                                    mixed_.data() + ((bl * O + o) * mx + x0 + xi) * MY,
                                    MY);
          }
        }
      }
      // tfno-hot-end
    });
    counters_.stage("fused-fft-cgemm").seconds += t.seconds();
  }

  // Separate zero-padded iFFT along Y.
  {
    runtime::Timer t;
    y_inverse_rows(*y_.inv, mv, O, mx, MY, mixed_.data());
    counters_.stage("ifft-y-pad").seconds += t.seconds();
  }
}

void FusedFftGemmPipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                        std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FusedFftGemmPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                             std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FusedFftGemmPipeline2d::run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                                     std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MX = Lane::kept(prob_.modes_x);
  const std::size_t modes = MX * prob_.modes_y;

  const std::size_t gcap = mid_group(B);
  ensure_variant_buffers(gcap);
  run_mid<Lane>(u, v, B, gcap, [&](const MidView& mv) { middle_group(mv, w, MX); });

  const std::uint64_t e = sizeof(c32);
  auto& sf = counters_.stage("fused-fft-cgemm");
  sf.bytes_read = O * K * e;
  sf.bytes_written = B * O * modes * e;
  sf.flops = B * K * MX * y_.fwd->flops_per_signal() + trace::cgemm_flops(B * modes, O, K);
  sf.kernel_launches = 1;
  auto& sp = counters_.stage("ifft-y-pad");
  sp.bytes_read = B * O * modes * e;
  sp.bytes_written = 0;
  sp.flops = B * O * MX * y_.inv->flops_per_signal();
  sp.kernel_launches = 1;
}

// --------------------------------------------------------- FusedGemmIfft (C)

FusedGemmIfftPipeline2d::FusedGemmIfftPipeline2d(baseline::Spectral2dProblem prob)
    : Pipeline2dBase(prob, "fused-gemm-ifft-2d") {}

void FusedGemmIfftPipeline2d::ensure_variant_buffers(std::size_t gcap) {
  ensure(freq_, gcap * prob_.hidden * prob_.modes_x * prob_.modes_y);
}

void FusedGemmIfftPipeline2d::reserve(std::size_t batch) {
  if (batch != 0) {
    ensure_variant_buffers(mid_group(batch));
  }
  Pipeline2dBase::reserve(batch);
}

void FusedGemmIfftPipeline2d::middle_group(const MidView& mv, std::span<const c32> w,
                                           std::size_t mx) {
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NY = prob_.ny;
  const std::size_t MY = prob_.modes_y;

  // Separate truncated FFT along Y.
  {
    runtime::Timer t;
    y_forward_rows(*y_.fwd, mv, K, mx, MY, freq_.data());
    counters_.stage("fft-y-trunc").seconds += t.seconds();
  }

  // Fused CGEMM + iFFT-Y epilogue per (batch, x-block).  The gather side
  // reads freq_ rows contiguously; only the scatter into the y-major
  // staging needs the blocked transpose (see kXBlock).
  {
    runtime::Timer t;
    const std::size_t ld = simd::round_up_lanes(MY);
    const std::size_t xb = std::min<std::size_t>(kXBlock, mx);
    const std::size_t nblk = (mx + xb - 1) / xb;
    runtime::parallel_for(0, mv.count * nblk, runtime::fused_grain(mv.count * nblk),
                          [&](std::size_t lo, std::size_t hi) {
      auto& arena = runtime::tls_scratch();
      const auto scope = arena.scope();
      // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
      const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);
      const std::span<float> acc = arena.alloc<float>(xb * 2 * O * ld);
      const std::span<c32> row = arena.alloc<c32>(ld);
      const std::span<c32> sbuf = arena.alloc<c32>(xb * NY);
      const std::span<c32> work = arena.alloc<c32>(y_.inv->scratch_elems());
      std::fill(tsplit.begin(), tsplit.end(), 0.0f);
      float* tre = tsplit.data();
      float* tim = tre + kTb * ld;
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t bl = i / nblk;
        const std::size_t x0 = (i % nblk) * xb;
        const std::size_t xc = std::min(xb, mx - x0);
        std::fill(acc.begin(), acc.end(), 0.0f);
        for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
          const std::size_t kc = std::min(kTb, K - k0);
          for (std::size_t xi = 0; xi < xc; ++xi) {
            float* are = acc.data() + xi * 2 * O * ld;
            float* aim = are + O * ld;
            // Gather the k-major tile straight into SoA planes (rows are
            // MY apart within a channel, channels mx*MY apart) — the
            // split is the gather copy the seed already paid.
            for (std::size_t kk = 0; kk < kc; ++kk) {
              simd::split_planes(
                  freq_.data() + ((bl * K + k0 + kk) * mx + x0 + xi) * MY,
                  tre + kk * ld, tim + kk * ld, MY);
            }
            rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
          }
        }
        for (std::size_t o = 0; o < O; ++o) {
          for (std::size_t xi = 0; xi < xc; ++xi) {
            const float* are = acc.data() + xi * 2 * O * ld;
            const float* aim = are + O * ld;
            simd::interleave_planes(are + o * ld, aim + o * ld, row.data(), MY);
            y_.inv->execute_one(row.data(), 1, sbuf.data() + xi * NY, 1, work);
          }
          scatter_xblock(mv, bl, o, x0, xc, NY, sbuf.data());
        }
      }
      // tfno-hot-end
    });
    counters_.stage("fused-cgemm-ifft").seconds += t.seconds();
  }
}

void FusedGemmIfftPipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                         std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FusedGemmIfftPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                              std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FusedGemmIfftPipeline2d::run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                                      std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MX = Lane::kept(prob_.modes_x);
  const std::size_t modes = MX * prob_.modes_y;

  const std::size_t gcap = mid_group(B);
  ensure_variant_buffers(gcap);
  run_mid<Lane>(u, v, B, gcap, [&](const MidView& mv) { middle_group(mv, w, MX); });

  const std::uint64_t e = sizeof(c32);
  auto& sy = counters_.stage("fft-y-trunc");
  sy.bytes_read = 0;
  sy.bytes_written = B * K * modes * e;
  sy.flops = B * K * MX * y_.fwd->flops_per_signal();
  sy.kernel_launches = 1;
  auto& sf = counters_.stage("fused-cgemm-ifft");
  sf.bytes_read = (B * K * modes + O * K) * e;
  sf.bytes_written = 0;
  sf.flops = trace::cgemm_flops(B * modes, O, K) + B * O * MX * y_.inv->flops_per_signal();
  sf.kernel_launches = 1;
}

// ------------------------------------------------------------ FullyFused (D)

FullyFusedPipeline2d::FullyFusedPipeline2d(baseline::Spectral2dProblem prob)
    : Pipeline2dBase(prob, "fully-fused-2d") {}

void FullyFusedPipeline2d::middle_group(const MidView& mv, std::span<const c32> w,
                                        std::size_t mx) {
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t NY = prob_.ny;
  const std::size_t MY = prob_.modes_y;

  // Fused FFT-Y + CGEMM + iFFT-Y per (batch, x-block): the middle of the
  // pipeline never touches global memory (Figure 9's fused kernel).  On
  // the y-major staging, a block of kXBlock x-rows moves through one SIMD
  // transpose per k-tile channel (and back per output channel) so the
  // k-loop always streams contiguous rows.
  runtime::Timer t;
  const std::size_t ld = simd::round_up_lanes(MY);
  const std::size_t xb = std::min<std::size_t>(kXBlock, mx);
  const std::size_t nblk = (mx + xb - 1) / xb;
  runtime::parallel_for(0, mv.count * nblk, runtime::fused_grain(mv.count * nblk),
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<float> tsplit = arena.alloc<float>(2 * kTb * ld);
    const std::span<float> acc = arena.alloc<float>(xb * 2 * O * ld);
    const std::span<c32> row = arena.alloc<c32>(ld);
    const std::span<c32> gbuf = arena.alloc<c32>(kTb * xb * NY);
    const std::span<c32> sbuf = arena.alloc<c32>(xb * NY);
    const std::span<c32> work = arena.alloc<c32>(y_.fwd->scratch_elems());
    // rank_update_split streams whole ld-wide rows, so the tile planes'
    // lane padding must be zero; the arena hands out raw storage.
    std::fill(tsplit.begin(), tsplit.end(), 0.0f);
    float* tre = tsplit.data();
    float* tim = tre + kTb * ld;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t bl = i / nblk;
      const std::size_t x0 = (i % nblk) * xb;
      const std::size_t xc = std::min(xb, mx - x0);
      std::fill(acc.begin(), acc.end(), 0.0f);
      for (std::size_t k0 = 0; k0 < K; k0 += kTb) {
        const std::size_t kc = std::min(kTb, K - k0);
        gather_xblock(mv, bl, k0, kc, x0, xc, xb, NY, gbuf.data());
        for (std::size_t xi = 0; xi < xc; ++xi) {
          float* are = acc.data() + xi * 2 * O * ld;
          float* aim = are + O * ld;
          for (std::size_t kk = 0; kk < kc; ++kk) {
            y_.fwd->execute_one(gbuf.data() + (kk * xb + xi) * NY, 1, row.data(), 1, work);
            simd::split_planes(row.data(), tre + kk * ld, tim + kk * ld, MY);
          }
          rank_update_split(are, aim, w.data(), K, k0, tre, tim, ld, O, kc);
        }
      }
      for (std::size_t o = 0; o < O; ++o) {
        for (std::size_t xi = 0; xi < xc; ++xi) {
          const float* are = acc.data() + xi * 2 * O * ld;
          const float* aim = are + O * ld;
          simd::interleave_planes(are + o * ld, aim + o * ld, row.data(), MY);
          y_.inv->execute_one(row.data(), 1, sbuf.data() + xi * NY, 1, work);
        }
        scatter_xblock(mv, bl, o, x0, xc, NY, sbuf.data());
      }
    }
    // tfno-hot-end
  });
  counters_.stage("fused-fft-cgemm-ifft").seconds += t.seconds();
}

void FullyFusedPipeline2d::run_batched(std::span<const c32> u, std::span<const c32> w,
                                      std::span<c32> v, std::size_t batch) {
  run_lane<ComplexLane>(u, w, v, batch);
}

void FullyFusedPipeline2d::run_batched_real(std::span<const float> u, std::span<const c32> w,
                                           std::span<float> v, std::size_t batch) {
  run_lane<RealLane>(u, w, v, batch);
}

template <class Lane>
void FullyFusedPipeline2d::run_lane(std::span<const typename Lane::Sample> u, std::span<const c32> w,
                                   std::span<typename Lane::Sample> v, std::size_t batch) {
  check_spans<Lane>(u, v, batch);
  reserve(batch);
  counters_.clear();
  if (batch == 0) return;
  const std::size_t B = batch;
  const std::size_t K = prob_.hidden;
  const std::size_t O = prob_.out_dim;
  const std::size_t MX = Lane::kept(prob_.modes_x);
  const std::size_t modes = MX * prob_.modes_y;

  const std::size_t gcap = mid_group(B);
  run_mid<Lane>(u, v, B, gcap, [&](const MidView& mv) { middle_group(mv, w, MX); });

  const std::uint64_t e = sizeof(c32);
  auto& sf = counters_.stage("fused-fft-cgemm-ifft");
  sf.bytes_read = O * K * e;
  sf.bytes_written = 0;
  sf.flops = B * K * MX * y_.fwd->flops_per_signal() + trace::cgemm_flops(B * modes, O, K) +
             B * O * MX * y_.inv->flops_per_signal();
  sf.kernel_launches = 1;
}

}  // namespace turbofno::fused
