#include "fft/fft2d.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/twiddle.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/transpose.hpp"

namespace turbofno::fft {

namespace {

PlanDesc make_x_desc(const Plan2dDesc& d) {
  PlanDesc p;
  p.n = d.nx;
  p.dir = d.dir;
  p.scale_inverse = d.scale_inverse;
  if (d.dir == Direction::Forward) {
    p.keep = d.keep_x_or_nx();
    p.nonzero = d.nx;
  } else {
    p.keep = d.nx;
    p.nonzero = d.keep_x_or_nx();
  }
  return p;
}

PlanDesc make_y_desc(const Plan2dDesc& d) {
  PlanDesc p;
  p.n = d.ny;
  p.dir = d.dir;
  p.scale_inverse = d.scale_inverse;
  if (d.dir == Direction::Forward) {
    p.keep = d.keep_y_or_ny();
    p.nonzero = d.ny;
  } else {
    p.keep = d.ny;
    p.nonzero = d.keep_y_or_ny();
  }
  return p;
}

Plan2dDesc validated_2d(Plan2dDesc d) {
  if (!is_pow2(d.nx) || !is_pow2(d.ny)) {
    throw std::invalid_argument("FftPlan2d: nx and ny must be powers of two >= 2");
  }
  if (d.keep_x > d.nx || d.keep_y > d.ny) {
    throw std::invalid_argument("FftPlan2d: keep exceeds dimension");
  }
  return d;
}

// Columns gathered per transpose slab: 16 complexes = two cache lines per
// field row, so the gather side of the transpose consumes whole lines, and
// a slab of 16 rows x nx=1024 stays within 128 KiB of scratch.
constexpr std::size_t kSlabCols = 16;

// FftPlan2d's fused middle pays strided Y-stage gathers against the
// per-field staging tile; that trade wins only while the tile stays
// L2-resident.  Dense full-size fields at >= 512^2 (2 MiB tiles) thrash
// and measure slower than the two-pass schedule, so they keep it.  The
// FNO-shaped truncated plans (tile = ny * modes_x) are far below this.
constexpr std::size_t kFusedFieldBudgetBytes = 1u << 20;

// Shared slab-task geometry of the tile-granular stages: tasks enumerate
// (field, column slab) pairs so each task touches one contiguous block.
struct SlabGrid {
  std::size_t cols = 0;             // columns per slab (<= kSlabCols)
  std::size_t slabs_per_field = 0;  // ceil(ny / cols)
  std::size_t grain = 0;            // tasks per parallel chunk
};

SlabGrid slab_grid(std::size_t ny) noexcept {
  SlabGrid g;
  g.cols = std::min<std::size_t>(kSlabCols, ny);
  g.slabs_per_field = (ny + g.cols - 1) / g.cols;
  g.grain = std::max<std::size_t>(1, 64 / g.cols);
  return g;
}

// The two per-slab transform bodies, single-sourced for every consumer
// (fft2d_x_stage, the tile-granular stages, and FftPlan2d::execute_fused).
// `rows_in`/`rows_out` are the plan's nonzero_or_n()/keep_or_n().

// Columns [y0, y0+g) of `field` are gathered into `slab_in` (needs
// cols*rows_in elements) with the SIMD tile transpose, then become y-major
// rows at dst (row r contiguous, packed rows_out apart).
void x_slab_to_rows(const FftPlan& plan, const c32* field, std::size_t ny, std::size_t y0,
                    std::size_t g, std::size_t rows_in, std::size_t rows_out, c32* dst,
                    std::span<c32> slab_in, std::span<c32> work) {
  simd::transpose(field + y0, ny, slab_in.data(), rows_in, rows_in, g);
  for (std::size_t r = 0; r < g; ++r) {
    plan.execute_one(slab_in.data() + r * rows_in, 1, dst + r * rows_out, 1, work);
  }
}

// Inverse of the above: y-major rows at src (packed rows_in apart) are
// transformed into `slab_out` (needs cols*rows_out elements) and transposed
// into columns [y0, y0+g) of `field`.
void x_rows_to_slab(const FftPlan& plan, const c32* src, c32* field, std::size_t ny,
                    std::size_t y0, std::size_t g, std::size_t rows_in, std::size_t rows_out,
                    std::span<c32> slab_out, std::span<c32> work) {
  for (std::size_t r = 0; r < g; ++r) {
    plan.execute_one(src + r * rows_in, 1, slab_out.data() + r * rows_out, 1, work);
  }
  simd::transpose(slab_out.data(), rows_out, field + y0, ny, g, rows_out);
}

}  // namespace

void fft2d_x_stage(const FftPlan& plan, const c32* in, c32* out, std::size_t fields,
                   std::size_t ny) {
  if (fields == 0 || ny == 0) return;
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  const std::size_t rows_out = plan.desc().keep_or_n();

  // Per task, gather a column slab into row-major scratch, transform
  // contiguous rows, and transpose back only the rows the plan actually
  // produces (keep_x on forward; on inverse the input slab is just the
  // nonzero prefix and the transform scatters the zero-padded columns
  // itself).
  const SlabGrid grid = slab_grid(ny);
  runtime::parallel_for(0, fields * grid.slabs_per_field, grid.grain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> slab_in = arena.alloc<c32>(grid.cols * rows_in);
    const std::span<c32> slab_out = arena.alloc<c32>(grid.cols * rows_out);
    const std::span<c32> work = arena.alloc<c32>(plan.scratch_elems());
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t f = t / grid.slabs_per_field;
      const std::size_t y0 = (t % grid.slabs_per_field) * grid.cols;
      const std::size_t g = std::min(grid.cols, ny - y0);
      x_slab_to_rows(plan, in + f * rows_in * ny, ny, y0, g, rows_in, rows_out,
                     slab_out.data(), slab_in, work);
      simd::transpose(slab_out.data(), rows_out, out + f * rows_out * ny + y0, ny, g,
                      rows_out);
    }
    // tfno-hot-end
  });
}

void fft2d_x_stage_to_tiles(const FftPlan& plan, const c32* in, std::size_t fields,
                            std::size_t ny, const XStageTileDst& dst) {
  if (fields == 0 || ny == 0) return;
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  const std::size_t rows_out = plan.desc().keep_or_n();
  const SlabGrid grid = slab_grid(ny);

  runtime::parallel_for(0, fields * grid.slabs_per_field, grid.grain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    // No slab_out: transformed rows land straight in the caller's block.
    const std::span<c32> slab_in = arena.alloc<c32>(grid.cols * rows_in);
    const std::span<c32> work = arena.alloc<c32>(plan.scratch_elems());
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t f = t / grid.slabs_per_field;
      const std::size_t y0 = (t % grid.slabs_per_field) * grid.cols;
      const std::size_t g = std::min(grid.cols, ny - y0);
      x_slab_to_rows(plan, in + f * rows_in * ny, ny, y0, g, rows_in, rows_out, dst(f, y0, g),
                     slab_in, work);
    }
    // tfno-hot-end
  });
}

void fft2d_x_stage_from_tiles(const FftPlan& plan, const XStageTileSrc& src, c32* out,
                              std::size_t fields, std::size_t ny) {
  if (fields == 0 || ny == 0) return;
  const std::size_t rows_in = plan.desc().nonzero_or_n();
  const std::size_t rows_out = plan.desc().keep_or_n();
  const SlabGrid grid = slab_grid(ny);

  runtime::parallel_for(0, fields * grid.slabs_per_field, grid.grain,
                        [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> slab_out = arena.alloc<c32>(grid.cols * rows_out);
    const std::span<c32> work = arena.alloc<c32>(plan.scratch_elems());
    for (std::size_t t = lo; t < hi; ++t) {
      const std::size_t f = t / grid.slabs_per_field;
      const std::size_t y0 = (t % grid.slabs_per_field) * grid.cols;
      const std::size_t g = std::min(grid.cols, ny - y0);
      x_rows_to_slab(plan, src(f, y0, g), out + f * rows_out * ny, ny, y0, g, rows_in,
                     rows_out, slab_out, work);
    }
    // tfno-hot-end
  });
}

FftPlan2d::FftPlan2d(Plan2dDesc desc)
    : desc_(validated_2d(desc)), along_x_(make_x_desc(desc_)), along_y_(make_y_desc(desc_)) {}

std::size_t FftPlan2d::in_field_elems() const noexcept {
  return desc_.dir == Direction::Forward ? desc_.nx * desc_.ny
                                         : desc_.keep_x_or_nx() * desc_.keep_y_or_ny();
}

std::size_t FftPlan2d::out_field_elems() const noexcept {
  return desc_.dir == Direction::Forward ? desc_.keep_x_or_nx() * desc_.keep_y_or_ny()
                                         : desc_.nx * desc_.ny;
}

std::uint64_t FftPlan2d::flops_per_field() const noexcept {
  if (desc_.dir == Direction::Forward) {
    // Stage 1 along X: ny columns; stage 2 along Y: keep_x rows.
    return along_x_.flops_per_signal() * desc_.ny +
           along_y_.flops_per_signal() * desc_.keep_x_or_nx();
  }
  // Inverse: stage 1 along Y on keep_x rows, stage 2 along X on ny columns.
  return along_y_.flops_per_signal() * desc_.keep_x_or_nx() +
         along_x_.flops_per_signal() * desc_.ny;
}

void FftPlan2d::execute_fused(std::span<const c32> in, std::span<c32> out,
                              std::size_t batch) const {
  // Fused middle stage: one task per field keeps that field's X spectra in a
  // y-major arena tile ([ny, kx], row y holds the kx surviving X modes of
  // column y) and runs the Y stage straight out of / into it.  The x-major
  // [kx, ny] intermediate of the unfused path never exists, and the second
  // transpose of the X stage disappears; the Y stage pays strided (stride
  // kx) gathers instead, against scratch that stays cache-resident.
  // Bitwise-identical to the unfused path: every 1D transform still gathers
  // the same values into the same contiguous work buffer.
  const std::size_t ny = desc_.ny;
  const std::size_t kx = desc_.keep_x_or_nx();
  const std::size_t in_f = in_field_elems();
  const std::size_t out_f = out_field_elems();
  const SlabGrid grid = slab_grid(ny);
  const std::size_t work_elems =
      std::max(along_x_.scratch_elems(), along_y_.scratch_elems());
  const std::size_t y_in_len = along_y_.desc().nonzero_or_n();
  const std::size_t y_out_len = along_y_.desc().keep_or_n();

  runtime::parallel_for(0, batch, 1, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    // tfno-hot-begin: arena-scoped worker body (heap allocation forbidden)
    const std::span<c32> staging = arena.alloc<c32>(ny * kx);
    const std::span<c32> slab = arena.alloc<c32>(grid.cols * desc_.nx);
    const std::span<c32> work = arena.alloc<c32>(work_elems);

    for (std::size_t f = lo; f < hi; ++f) {
      if (desc_.dir == Direction::Forward) {
        // X stage into the y-major tile, slab by slab (serial within the
        // task; parallelism comes from the field loop).
        const c32* field = in.data() + f * in_f;
        for (std::size_t y0 = 0; y0 < ny; y0 += grid.cols) {
          const std::size_t g = std::min(grid.cols, ny - y0);
          x_slab_to_rows(along_x_, field, ny, y0, g, desc_.nx, kx, staging.data() + y0 * kx,
                         slab, work);
        }
        // Y stage: row x of the output gathers column x of the tile.
        for (std::size_t x = 0; x < kx; ++x) {
          along_y_.execute_one(staging.data() + x, static_cast<std::ptrdiff_t>(kx),
                               out.data() + f * out_f + x * y_out_len, 1, work);
        }
      } else {
        // Inverse: Y stage scatters into the y-major tile, then the X stage
        // consumes tile rows directly (no gather transpose).
        for (std::size_t x = 0; x < kx; ++x) {
          along_y_.execute_one(in.data() + f * in_f + x * y_in_len, 1,
                               staging.data() + x, static_cast<std::ptrdiff_t>(kx), work);
        }
        c32* field = out.data() + f * out_f;
        for (std::size_t y0 = 0; y0 < ny; y0 += grid.cols) {
          const std::size_t g = std::min(grid.cols, ny - y0);
          x_rows_to_slab(along_x_, staging.data() + y0 * kx, field, ny, y0, g, kx, desc_.nx,
                         slab, work);
        }
      }
    }
    // tfno-hot-end
  });
}

void FftPlan2d::execute(std::span<const c32> in, std::span<c32> out, std::size_t batch) const {
  const std::size_t ny = desc_.ny;
  const std::size_t kx = desc_.keep_x_or_nx();
  if (in.size() < batch * in_field_elems() || out.size() < batch * out_field_elems()) {
    throw std::invalid_argument("FftPlan2d::execute: spans too small for batch");
  }
  if (batch == 0) return;

  // The fused middle parallelizes across fields only, so it also needs
  // enough fields to feed the worker pool; small batches keep the two-pass
  // schedule, whose fields*slabs / per-row loops split further (the two are
  // bitwise-identical, so this is purely a scheduling choice).
  if (ny * kx * sizeof(c32) <= kFusedFieldBudgetBytes &&
      batch >= static_cast<std::size_t>(runtime::thread_count())) {
    execute_fused(in, out, batch);
    return;
  }

  // Intermediate between the stages: [keep_x, ny] per field.  One heap
  // allocation per execute call (amortized over a whole 2D transform) —
  // deliberately NOT arena-held: the grow-only thread-local arena would
  // retain this O(batch * kx * ny) block per calling thread forever.  The
  // per-chunk hot-loop buffers below do come from the arena.  (The fused
  // path above avoids this block entirely.)
  AlignedBuffer<c32> mid(batch * kx * ny);

  // Y stage: contiguous transforms over the batch * keep_x surviving rows.
  // Explicit grain of 16 rows per chunk — FftPlan::execute's 64k-element
  // grain policy would put all rows of a typical (keep_x * batch) count in
  // one chunk and serialize the stage on many-core hosts.
  const auto y_stage = [&](const c32* src, c32* dst) {
    const std::size_t in_len = along_y_.desc().nonzero_or_n();
    const std::size_t out_len = along_y_.desc().keep_or_n();
    runtime::parallel_for(0, batch * kx, 16, [&](std::size_t lo, std::size_t hi) {
      auto& a = runtime::tls_scratch();
      const auto s = a.scope();
      const std::span<c32> work = a.alloc<c32>(along_y_.scratch_elems());
      for (std::size_t r = lo; r < hi; ++r) {
        along_y_.execute_one(src + r * in_len, 1, dst + r * out_len, 1, work);
      }
    });
  };

  if (desc_.dir == Direction::Forward) {
    fft2d_x_stage(along_x_, in.data(), mid.data(), batch, ny);
    y_stage(mid.data(), out.data());
    return;
  }
  // Inverse: stage 1 along Y (zero-padded ky -> ny) on keep_x rows, then
  // stage 2 along X (zero-padded kx -> nx) over all ny columns.
  y_stage(in.data(), mid.data());
  fft2d_x_stage(along_x_, mid.data(), out.data(), batch, ny);
}

}  // namespace turbofno::fft
