// The SIMD 4x4 complex transpose, the cache-blocked transpose built on it,
// and the transpose-based 2D FFT schedule: parity against the naive
// transpose / reference DFT on both backends (every batch element, at the
// shapes where the 4x4 tiles and column slabs degenerate), and the
// steady-state no-allocation property of the scratch arena they share.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fft/fft2d.hpp"
#include "fft/reference.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/transpose.hpp"
#include "test_util.hpp"

namespace turbofno {
namespace {

using testing::fft_tol;
using testing::max_err;
using testing::random_signal;
using testing::rel_err;

// Restores the default runtime thread count even when a test fails
// mid-flight.
struct ThreadCountGuard {
  ~ThreadCountGuard() { runtime::set_thread_count(0); }
};

// ------------------------------------------------------------- transpose ops

template <class B>
void check_transpose(std::size_t rows, std::size_t cols, std::size_t src_pad,
                     std::size_t dst_pad) {
  const std::size_t ss = cols + src_pad;
  const std::size_t ds = rows + dst_pad;
  const auto src = random_signal(rows * ss, 501u + static_cast<unsigned>(rows * 31 + cols));
  const c32 sentinel{1e30f, -1e30f};
  std::vector<c32> dst(cols * ds, sentinel);

  simd::transpose<B>(src.data(), ss, dst.data(), ds, rows, cols);

  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const c32 got = dst[j * ds + i];
      const c32 want = src[i * ss + j];
      ASSERT_EQ(got.re, want.re) << "rows=" << rows << " cols=" << cols << " @" << i << "," << j;
      ASSERT_EQ(got.im, want.im) << "rows=" << rows << " cols=" << cols << " @" << i << "," << j;
    }
  }
  // Stride padding must be untouched (the 2D scatter writes into live
  // neighboring columns of the output field).
  for (std::size_t j = 0; j < cols; ++j) {
    for (std::size_t i = rows; i < ds; ++i) {
      ASSERT_EQ(dst[j * ds + i].re, sentinel.re) << "padding clobbered at " << i << "," << j;
    }
  }
}

template <class B>
void check_transpose_shapes() {
  for (const auto& [rows, cols] :
       std::vector<std::pair<std::size_t, std::size_t>>{{1, 1},
                                                        {2, 2},
                                                        {2, 7},
                                                        {3, 5},
                                                        {4, 4},
                                                        {5, 4},
                                                        {8, 8},
                                                        {13, 4},
                                                        {4, 13},
                                                        {16, 16},
                                                        {33, 17},
                                                        {64, 33},
                                                        {40, 72}}) {
    check_transpose<B>(rows, cols, 0, 0);
    check_transpose<B>(rows, cols, 3, 5);  // strides beyond the dense dims
  }
}

TEST(Transpose, ScalarBackendAllShapes) { check_transpose_shapes<simd::ScalarBackend>(); }

TEST(Transpose, ActiveBackendAllShapes) { check_transpose_shapes<simd::Active>(); }

#if TURBOFNO_SIMD_HAVE_AVX2
TEST(Transpose, Avx2TileMatchesScalarTile) {
  const auto src = random_signal(16, 601u);
  std::vector<c32> scalar_dst(16), simd_dst(16);
  simd::transpose4x4<simd::ScalarBackend>(src.data(), 4, scalar_dst.data(), 4);
  simd::transpose4x4<simd::Avx2Backend>(src.data(), 4, simd_dst.data(), 4);
  EXPECT_EQ(0, std::memcmp(scalar_dst.data(), simd_dst.data(), 16 * sizeof(c32)));
}

TEST(Transpose, Avx2ZipPrimitives) {
  using B = simd::Avx2Backend;
  const auto in = random_signal(8, 602u);
  const auto a = B::pload(in.data());
  const auto b = B::pload(in.data() + 4);
  c32 out[4];

  const auto expect = [&out](c32 e0, c32 e1, c32 e2, c32 e3) {
    const c32 want[4] = {e0, e1, e2, e3};
    EXPECT_EQ(0, std::memcmp(out, want, sizeof want));
  };
  B::pstore(out, B::pzip_lo(a, b));
  expect(in[0], in[4], in[1], in[5]);
  B::pstore(out, B::pzip_hi(a, b));
  expect(in[2], in[6], in[3], in[7]);
  B::pstore(out, B::pzip_pair_lo(a, b));
  expect(in[0], in[1], in[4], in[5]);
  B::pstore(out, B::pzip_pair_hi(a, b));
  expect(in[2], in[3], in[6], in[7]);
  B::pstore(out, B::pset4(in[3], in[1], in[7], in[2]));
  expect(in[3], in[1], in[7], in[2]);
}
#endif  // TURBOFNO_SIMD_HAVE_AVX2

// ------------------------------------------------- 2D schedule equivalence

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

struct SchedCase {
  std::size_t nx, ny, kx, ky, batch;
};

class TransposedSchedule : public ::testing::TestWithParam<SchedCase> {};

// Double-precision oracle of a truncated forward 2D transform of one
// [nx, ny] field: column DFTs keeping kx bins, then row DFTs keeping ky.
std::vector<c32> reference_fwd2d(const c32* field, std::size_t nx, std::size_t ny,
                                 std::size_t kx, std::size_t ky) {
  std::vector<c32> mid(kx * ny), col(nx), colf(kx), want(kx * ky);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) col[x] = field[x * ny + y];
    fft::reference_dft(col, colf, nx);
    for (std::size_t x = 0; x < kx; ++x) mid[x * ny + y] = colf[x];
  }
  for (std::size_t x = 0; x < kx; ++x) {
    fft::reference_dft(std::span<const c32>(mid.data() + x * ny, ny),
                       std::span<c32>(want.data() + x * ky, ky), ny);
  }
  return want;
}

// Oracle of the zero-padded inverse: a [kx, ky] spectrum -> [nx, ny] field
// (row iDFTs padding ky -> ny, then column iDFTs padding kx -> nx).
std::vector<c32> reference_inv2d(const c32* spec, std::size_t nx, std::size_t ny,
                                 std::size_t kx, std::size_t ky) {
  std::vector<c32> mid(kx * ny), col(kx), colf(nx), want(nx * ny);
  for (std::size_t x = 0; x < kx; ++x) {
    fft::reference_idft(std::span<const c32>(spec + x * ky, ky),
                        std::span<c32>(mid.data() + x * ny, ny), ny);
  }
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < kx; ++x) col[x] = mid[x * ny + y];
    fft::reference_idft(col, colf, nx);
    for (std::size_t x = 0; x < nx; ++x) want[x * ny + y] = colf[x];
  }
  return want;
}

TEST_P(TransposedSchedule, MatchesReferenceBothDirections) {
  // Every batch element of the truncated forward and the zero-padded
  // inverse against the double-precision DFT, under both FftPlan2d
  // schedules: one runtime thread takes the fused per-field middle
  // (batch >= threads), batch+1 threads the two-pass schedule.
  const ThreadCountGuard guard;
  const auto [nx, ny, kx, ky, batch] = GetParam();
  const std::size_t kxe = kx == 0 ? nx : kx;
  const std::size_t kye = ky == 0 ? ny : ky;

  const auto field = random_signal(batch * nx * ny, 701u + static_cast<unsigned>(nx + ny));
  const auto spec = random_signal(batch * kxe * kye, 703u + static_cast<unsigned>(nx + ny));

  const fft::FftPlan2d fwd = make2d(nx, ny, fft::Direction::Forward, kx, ky);
  const fft::FftPlan2d inv = make2d(nx, ny, fft::Direction::Inverse, kx, ky);

  for (const std::size_t threads : {std::size_t{1}, batch + 1}) {
    runtime::set_thread_count(static_cast<int>(threads));
    std::vector<c32> got_fwd(batch * kxe * kye), got_inv(batch * nx * ny);
    fwd.execute(field, got_fwd, batch);
    inv.execute(spec, got_inv, batch);

    for (std::size_t b = 0; b < batch; ++b) {
      const auto want_fwd = reference_fwd2d(field.data() + b * nx * ny, nx, ny, kxe, kye);
      const auto want_inv = reference_inv2d(spec.data() + b * kxe * kye, nx, ny, kxe, kye);
      // Relative (not absolute) error: the scaled inverse outputs are small.
      EXPECT_LT(rel_err(std::span<const c32>(got_fwd.data() + b * kxe * kye, kxe * kye),
                        want_fwd),
                1e-5)
          << "fwd " << nx << "x" << ny << " keep " << kxe << "x" << kye << " b=" << b
          << " threads=" << threads;
      EXPECT_LT(rel_err(std::span<const c32>(got_inv.data() + b * nx * ny, nx * ny), want_inv),
                1e-5)
          << "inv " << nx << "x" << ny << " keep " << kxe << "x" << kye << " b=" << b
          << " threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposedSchedule,
    ::testing::Values(SchedCase{2, 2, 0, 0, 1},        // below one 4x4 tile
                      SchedCase{2, 64, 0, 0, 2},       // nx not a tile multiple
                      SchedCase{64, 2, 0, 0, 2},       // ny not a tile multiple
                      SchedCase{8, 8, 0, 0, 3},
                      SchedCase{32, 32, 8, 4, 1},      // asymmetric keep
                      SchedCase{16, 64, 4, 16, 3},     // keep + batch
                      SchedCase{64, 16, 16, 4, 2},
                      SchedCase{64, 64, 16, 16, 2},
                      SchedCase{128, 32, 32, 8, 1}));  // ny spans two slabs

TEST(TransposedSchedule, ForwardMatchesReferenceAtTileEdges) {
  // Direct reference check (not just schedule equivalence) at the shapes
  // where the 4x4 tiles degenerate: nx or ny == 2.
  for (const auto& [nx, ny] :
       std::vector<std::pair<std::size_t, std::size_t>>{{2, 2}, {2, 16}, {16, 2}, {4, 32}}) {
    const auto in = random_signal(nx * ny, 709u + static_cast<unsigned>(nx * ny));
    std::vector<c32> out(nx * ny);
    make2d(nx, ny, fft::Direction::Forward).execute(in, out, 1);

    // Reference: column DFTs then row DFTs (double precision inside).
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
    EXPECT_LT(max_err(out, want), fft_tol(nx * ny)) << nx << "x" << ny;
  }
}

TEST(TransposedSchedule, RoundTripWithKeepAndBatch) {
  const std::size_t nx = 32, ny = 64, batch = 3;
  const auto in = random_signal(batch * nx * ny, 719u);
  const fft::FftPlan2d fwd = make2d(nx, ny, fft::Direction::Forward);
  const fft::FftPlan2d inv = make2d(nx, ny, fft::Direction::Inverse);
  std::vector<c32> freq(batch * nx * ny), back(batch * nx * ny);
  fwd.execute(in, freq, batch);
  inv.execute(freq, back, batch);
  EXPECT_LT(max_err(back, in), fft_tol(nx * ny));

  // Truncated fwd + padded inv applied twice is the idempotent low-pass
  // projector, per field in the batch.
  const fft::FftPlan2d fwd_t = make2d(nx, ny, fft::Direction::Forward, 8, 12);
  const fft::FftPlan2d inv_t = make2d(nx, ny, fft::Direction::Inverse, 8, 12);
  std::vector<c32> spec(batch * 8 * 12), once(batch * nx * ny), twice(batch * nx * ny);
  fwd_t.execute(in, spec, batch);
  inv_t.execute(spec, once, batch);
  fwd_t.execute(once, spec, batch);
  inv_t.execute(spec, twice, batch);
  EXPECT_LT(max_err(twice, once), 5.0 * fft_tol(nx * ny));
}

// --------------------------------------------------------------- scratch use

TEST(ScratchArena, SteadyStateDoesNotGrow) {
  const std::size_t nx = 64, ny = 64, batch = 2;
  const auto in = random_signal(batch * nx * ny, 727u);
  std::vector<c32> out(batch * 16 * 16);
  const fft::FftPlan2d plan = make2d(nx, ny, fft::Direction::Forward, 16, 16);

  plan.execute(in, out, batch);  // warm-up sizes the calling thread's arena
  const std::size_t reserved = runtime::tls_scratch().bytes_reserved();
  EXPECT_GT(reserved, 0u);
  for (int i = 0; i < 10; ++i) plan.execute(in, out, batch);
  EXPECT_EQ(reserved, runtime::tls_scratch().bytes_reserved());
}

TEST(ScratchArena, NestedScopesRewind) {
  auto& arena = runtime::tls_scratch();
  const std::size_t before = arena.bytes_reserved();
  {
    const auto outer = arena.scope();
    const auto a = arena.alloc<c32>(1024);
    a[0] = c32{1.0f, 2.0f};
    {
      const auto inner = arena.scope();
      const auto b = arena.alloc<float>(4096);
      b[0] = 3.0f;
    }
    // Inner scope rewound: the next inner-sized alloc reuses the same bytes.
    const auto c = arena.alloc<float>(4096);
    c[0] = 4.0f;
    EXPECT_EQ(a[0].re, 1.0f);  // outer allocation untouched by the rewind
    EXPECT_EQ(a[0].im, 2.0f);
  }
  EXPECT_GE(arena.bytes_reserved(), before);
}

}  // namespace
}  // namespace turbofno
