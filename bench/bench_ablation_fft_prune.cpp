// Ablation: what each FFT feature buys — full FFT + truncate-copy (the
// baseline's plan), truncation without butterfly pruning, and the full
// truncation + pruning path.
#include <cstdio>

#include "bench_common.hpp"
#include "core/workload.hpp"
#include "fft/opcount.hpp"
#include "fft/plan.hpp"
#include "fft/stockham.hpp"
#include "runtime/parallel.hpp"
#include "runtime/timer.hpp"
#include "tensor/aligned_buffer.hpp"
#include "trace/table.hpp"

namespace {

using namespace turbofno;

// Truncation WITHOUT pruning: run the full butterfly network, then write
// only the kept bins (what a library could do if it merely fused the copy).
void full_fft_then_slice(std::span<const c32> in, std::span<c32> out, std::size_t batch,
                         std::size_t n, std::size_t keep) {
  runtime::parallel_for(0, batch, 8, [&](std::size_t lo, std::size_t hi) {
    AlignedBuffer<c32> work(2 * n);
    for (std::size_t b = lo; b < hi; ++b) {
      std::copy_n(in.data() + b * n, n, work.data());
      fft::stockham_forward({work.data(), n}, {work.data() + n, n}, n);
      std::copy_n(work.data(), keep, out.data() + b * keep);
    }
  });
}

}  // namespace

int main(int argc, char** argv) {
  const auto opt = turbofno::bench::Options::parse(argc, argv);
  std::printf("== Ablation: FFT truncation vs truncation+pruning ==\n\n");

  const std::size_t batch = opt.full ? (1u << 17) : (1u << 15);
  trace::TextTable t({"n", "keep", "full+slice ms", "trunc+pruned ms", "speedup",
                      "ops retained"});
  for (const std::size_t n : {128u, 256u, 1024u}) {
    for (const std::size_t div : {4u, 2u}) {
      const std::size_t keep = n / div;
      AlignedBuffer<c32> in(batch * n);
      AlignedBuffer<c32> out(batch * keep);
      core::fill_random(in.span(), 7u);

      const double t_slice = runtime::time_best_of(
          opt.reps, [&] { full_fft_then_slice(in.span(), out.span(), batch, n, keep); });

      fft::PlanDesc d;
      d.n = n;
      d.keep = keep;
      const fft::FftPlan plan(d);
      const double t_pruned =
          runtime::time_best_of(opt.reps, [&] { plan.execute(in.span(), out.span(), batch); });

      t.add_row({std::to_string(n), std::to_string(keep),
                 trace::TextTable::fmt(t_slice * 1e3, 2),
                 trace::TextTable::fmt(t_pruned * 1e3, 2),
                 trace::TextTable::fmt(t_slice / t_pruned, 2) + "x",
                 trace::TextTable::fmt(100.0 * fft::pruned_fraction(n, keep, n), 1) + "%"});
    }
  }
  std::printf("%s", t.str().c_str());
  std::printf("\n(batch = %zu signals; 'ops retained' is the pruned butterfly fraction)\n",
              batch);
  return 0;
}
