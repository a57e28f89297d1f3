#include "fft/plan.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fft/kernels.hpp"
#include "fft/opcount.hpp"
#include "fft/stockham.hpp"
#include "fft/twiddle.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/simd.hpp"

namespace turbofno::fft {

namespace {

using Backend = simd::Active;
static_assert(kKeepQuantum % Backend::planes == 0,
              "pruned q-runs must start on the dense pass's vector boundaries");

// The last pass always runs the output-pruned kernel (keep == n writes every
// output), which also applies the inverse's 1/n scale as it stores.
template <std::size_t R, bool Inverse>
void run_pass(const StockhamPass& ps, const c32* src, c32* dst, std::span<const c32> w,
              float scale) {
  if (ps.truncated() || ps.last()) {
    kernels::pass_truncated<Backend, R, Inverse>(src, dst, ps.l, ps.s, w, ps.keep, ps.legs,
                                                 ps.last() ? scale : 1.0f);
  } else if (ps.padded()) {
    kernels::pass_padded<Backend, R, Inverse>(src, dst, ps.l, ps.s, w, ps.legs);
  } else if constexpr (R == 4) {
    kernels::pass_radix4<Backend, Inverse>(src, dst, ps.l, ps.s, w);
  } else {
    kernels::pass_radix2<Backend, Inverse>(src, dst, ps.l, ps.s, w);
  }
}

// One signal through the pruned schedule.  The passes ping-pong between the
// two halves of `work`; the first reads the caller's prefix in place when it
// is contiguous and covers every leg the pass reads, the last writes the
// keep bins straight to a contiguous `out`.
template <bool Inverse>
void run_schedule(const PlanDesc& d, const TwiddleTable& tw, const c32* in,
                  std::ptrdiff_t in_stride, c32* out, std::ptrdiff_t out_stride,
                  std::span<c32> work) {
  const std::size_t n = d.n;
  const std::size_t keep = d.keep_or_n();
  const std::size_t nonzero = d.nonzero_or_n();
  c32* const w0 = work.data();
  c32* const w1 = work.data() + n;
  const float scale = Inverse && d.scale_inverse ? 1.0f / static_cast<float>(n) : 1.0f;

  const c32* src = in;
  bool first = true;
  for_each_pass(n, keep, nonzero, [&](const StockhamPass& ps) {
    if (first) {
      first = false;
      // Legs j < ps.legs span [0, legs*l); past `nonzero` that is the zero
      // part of the last leg read, never the rest of the zero tail.
      const std::size_t span = ps.legs * ps.l;
      if (in_stride != 1 || span > nonzero) {
        for (std::size_t j = 0; j < nonzero; ++j) {
          w0[j] = in[static_cast<std::ptrdiff_t>(j) * in_stride];
        }
        std::fill(w0 + nonzero, w0 + span, c32{});
        src = w0;
      }
    }
    c32* dst = src == w0 ? w1 : w0;
    if (ps.last() && out_stride == 1) dst = out;
    const std::size_t len = ps.radix * ps.l;
    const std::span<const c32> w = Inverse ? tw.inverse(len) : tw.forward(len);
    if (ps.radix == 4) {
      run_pass<4, Inverse>(ps, src, dst, w, scale);
    } else {
      run_pass<2, Inverse>(ps, src, dst, w, scale);
    }
    src = dst;
  });

  if (out_stride != 1) {
    for (std::size_t k = 0; k < keep; ++k) {
      out[static_cast<std::ptrdiff_t>(k) * out_stride] = src[k];
    }
  }
}

}  // namespace

FftPlan::FftPlan(PlanDesc desc) : desc_(desc) {
  if (!is_pow2(desc_.n)) throw std::invalid_argument("FftPlan: n must be a power of two >= 2");
  if (desc_.keep > desc_.n) throw std::invalid_argument("FftPlan: keep > n");
  if (desc_.nonzero > desc_.n) throw std::invalid_argument("FftPlan: nonzero > n");
  const std::size_t m = desc_.keep_or_n();
  const std::size_t p = desc_.nonzero_or_n();
  pruned_ = (m != desc_.n) || (p != desc_.n);
  unit_ops_ = count_pruned_ops(desc_.n, m, p).unit_ops;
  flops_ = count_stockham_ops(desc_.n, m, p).flops();
  // Resolve the twiddle table once so execution never takes the cache lock.
  tw_ = &twiddles_for(desc_.n);
}

std::uint64_t FftPlan::bytes_read_per_signal() const noexcept {
  return desc_.nonzero_or_n() * sizeof(c32);
}

std::uint64_t FftPlan::bytes_written_per_signal() const noexcept {
  return desc_.keep_or_n() * sizeof(c32);
}

void FftPlan::execute_one(const c32* in, std::ptrdiff_t in_elem_stride, c32* out,
                          std::ptrdiff_t out_elem_stride, std::span<c32> work) const {
  assert(work.size() >= scratch_elems());
  if (desc_.dir == Direction::Inverse) {
    run_schedule<true>(desc_, *tw_, in, in_elem_stride, out, out_elem_stride, work);
  } else {
    run_schedule<false>(desc_, *tw_, in, in_elem_stride, out, out_elem_stride, work);
  }
}

void FftPlan::execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const {
  ExecLayout layout;
  layout.in_batch_stride = static_cast<std::ptrdiff_t>(desc_.nonzero_or_n());
  layout.out_batch_stride = static_cast<std::ptrdiff_t>(desc_.keep_or_n());
  if (in.size() < batch * desc_.nonzero_or_n() || out.size() < batch * desc_.keep_or_n()) {
    throw std::invalid_argument("FftPlan::execute: spans too small for batch");
  }
  if (in.data() == out.data() && desc_.keep_or_n() > desc_.nonzero_or_n()) {
    throw std::invalid_argument("FftPlan::execute: in-place requires keep <= nonzero");
  }
  execute_strided(in.data(), out.data(), batch, layout);
}

void FftPlan::execute_strided(const c32* in, c32* out, std::size_t batch,
                              const ExecLayout& layout) const {
  const std::ptrdiff_t ibs = layout.in_batch_stride != 0
                                 ? layout.in_batch_stride
                                 : static_cast<std::ptrdiff_t>(desc_.nonzero_or_n());
  const std::ptrdiff_t obs = layout.out_batch_stride != 0
                                 ? layout.out_batch_stride
                                 : static_cast<std::ptrdiff_t>(desc_.keep_or_n());
  const std::size_t n = desc_.n;

  // Grain: keep each task >= ~64k elements of butterfly work to amortize the
  // fork; a signal is n log n work so a handful of signals per chunk is fine.
  const std::size_t grain = std::max<std::size_t>(1, 65536 / (n == 0 ? 1 : n));
  runtime::parallel_for(0, batch, grain, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> work = arena.alloc<c32>(scratch_elems());
    for (std::size_t b = lo; b < hi; ++b) {
      execute_one(in + static_cast<std::ptrdiff_t>(b) * ibs, layout.in_elem_stride,
                  out + static_cast<std::ptrdiff_t>(b) * obs, layout.out_elem_stride,
                  work);
    }
    // tfno-hot-end
  });
}

}  // namespace turbofno::fft
