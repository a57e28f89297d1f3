#include "gemm/cgemm.hpp"

#include <algorithm>

#include "gemm/batched.hpp"
#include "gemm/micro_kernel.hpp"
#include "gemm/pack.hpp"
#include "runtime/parallel.hpp"
#include "runtime/scratch.hpp"
#include "tensor/aligned_buffer.hpp"
#include "tensor/simd.hpp"

namespace turbofno::gemm {

namespace {

/// One GEMM's arguments (batch item 0 of a batched call).
template <class T>
struct Operands {
  std::size_t M, N, K;
  T alpha;
  const T* A;
  std::size_t lda;
  const T* B;
  std::size_t ldb;
  T beta;
  T* C;
  std::size_t ldc;
  Act act;
};

// Epilogue: C[mi x nj] = act(alpha * acc + beta * C), re-interleaving the
// accumulator planes of a c32 tile.  alpha = 1 skips the multiply and
// beta = 1 adds C, so the residual form act(acc + C) rounds exactly as a
// separate add and activation would.
template <class B, class P, class T>
void store_tile(const float* acc, std::size_t plane, std::size_t ld_acc, std::size_t mi,
                std::size_t nj, const Operands<T>& g, T* C) {
  using V = typename P::V;
  const bool scale = !(g.alpha == T{1.0f});
  const bool beta_zero = g.beta == T{};
  const bool beta_one = g.beta == T{1.0f};
  const V alpha_v = B::broadcast(g.alpha);
  const V beta_v = B::broadcast(g.beta);
  const auto finish = [&](V r, auto&& load_c) {
    if (scale) r = P::mul(alpha_v, r);
    if (!beta_zero) {
      const V c = load_c();
      r = beta_one ? B::add(r, c) : P::madd(r, beta_v, c);
    }
    return g.act == Act::Relu ? B::relu(r) : r;
  };
  for (std::size_t i = 0; i < mi; ++i) {
    T* crow = C + i * g.ldc;
    const float* arow = acc + i * ld_acc;
    std::size_t j = 0;
    for (; j + B::lanes <= nj; j += B::lanes) {
      B::store(crow + j, finish(P::load(arow + j, plane), [&] { return B::load(crow + j); }));
    }
    if (j < nj) {
      const std::size_t rem = nj - j;
      B::store_partial(crow + j, finish(P::load(arow + j, plane),
                                        [&] { return B::load_partial(crow + j, rem); }),
                       rem);
    }
  }
}

// One Mtb x Ntb tile of C: packed panels per k block, the register-block
// micro-kernel over the accumulator planes, then the epilogue.
template <class Cfg, class B, class T>
void tile_task(std::size_t ti, std::size_t tj, const Operands<T>& g, float* Apack,
               float* Bpack) {
  using P = Planes<B, T>;
  constexpr std::size_t Mtb = Cfg::Mtb;
  constexpr std::size_t Ntb = Cfg::Ntb;
  constexpr std::size_t Ktb = Cfg::Ktb;
  constexpr std::size_t Mt = Cfg::Mt;
  constexpr std::size_t JW = P::template jblock<Cfg::Nt>;
  static_assert(Ntb % JW == 0, "j-block must divide the tile width");
  constexpr std::size_t plane = Mtb * Ntb;

  const std::size_t i0 = ti * Mtb;
  const std::size_t j0 = tj * Ntb;
  const std::size_t mi = std::min(Mtb, g.M - i0);
  const std::size_t nj = std::min(Ntb, g.N - j0);
  // An edge tile runs only the register blocks holding a valid row and
  // column: a one-row projection is one Mt block row, not Mtb / Mt of them.
  const std::size_t m_run = (mi + Mt - 1) / Mt * Mt;
  const std::size_t n_run = (nj + JW - 1) / JW * JW;

  alignas(kBufferAlignment) float acc[P::count * plane];
  for (std::size_t p = 0; p < P::count; ++p) {
    std::fill(acc + p * plane, acc + p * plane + m_run * Ntb, 0.0f);
  }

  for (std::size_t k0 = 0; k0 < g.K; k0 += Ktb) {
    const std::size_t kc = std::min(Ktb, g.K - k0);
    pack_a_tile<P, Mtb, Ktb>(Apack, g.A, g.lda, i0, k0, mi, kc);
    pack_b_tile<P, Ntb, Ktb>(Bpack, g.B, g.ldb, k0, j0, kc, nj);
    for (std::size_t ii = 0; ii < m_run; ii += Mt) {
      for (std::size_t jj = 0; jj < n_run; jj += JW) {
        micro_accumulate<P, Mt, JW, Mtb, Ntb>(acc, Apack, Bpack, kc, ii, jj);
      }
    }
  }

  store_tile<B, P>(acc, plane, Ntb, mi, nj, g, g.C + i0 * g.ldc + j0);
}

// Every tile of every batch item as one parallel sweep.  Each task owns its
// C tile, so the partition never changes a result.
template <class Cfg, class B, class T>
void run_tiles(const Operands<T>& g, std::size_t batch, const BatchedStrides& strides) {
  if (batch == 0 || g.M == 0 || g.N == 0) return;
  using P = Planes<B, T>;
  const std::size_t tiles_n = (g.N + Cfg::Ntb - 1) / Cfg::Ntb;
  const std::size_t tiles = (g.M + Cfg::Mtb - 1) / Cfg::Mtb * tiles_n;

  runtime::parallel_for(0, batch * tiles, 1, [&](std::size_t lo, std::size_t hi) {
    auto& arena = runtime::tls_scratch();
    const auto scope = arena.scope();
    float* Apack = arena.alloc<float>(P::count * Cfg::Mtb * Cfg::Ktb).data();
    float* Bpack = arena.alloc<float>(P::count * Cfg::Ntb * Cfg::Ktb).data();
    // tfno-hot-begin: tile bodies
    for (std::size_t t = lo; t < hi; ++t) {
      const auto item = static_cast<std::ptrdiff_t>(t / tiles);
      Operands<T> gi = g;
      gi.A += item * strides.a;
      gi.B += item * strides.b;
      gi.C += item * strides.c;
      tile_task<Cfg, B>(t % tiles / tiles_n, t % tiles_n, gi, Apack, Bpack);
    }
    // tfno-hot-end
  });
}

// The FNO GEMM is tall-and-skinny (huge M, moderate N/K); the standalone
// 64x64 tile amortizes packing best for large M, while the 32x32 fused
// shape wins when N is small.
template <class T>
void dispatch(const Operands<T>& g, std::size_t batch, const BatchedStrides& strides) {
  if (g.N >= 48) {
    run_tiles<StandaloneTiles, simd::Active>(g, batch, strides);
  } else {
    run_tiles<FusedTiles, simd::Active>(g, batch, strides);
  }
}

}  // namespace

template <class Cfg, class B>
void cgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                         std::size_t lda, const c32* Bm, std::size_t ldb, c32 beta, c32* C,
                         std::size_t ldc, Act act) {
  run_tiles<Cfg, B>(Operands<c32>{M, N, K, alpha, A, lda, Bm, ldb, beta, C, ldc, act}, 1, {});
}

template <class Cfg, class B>
void sgemm_tiled_backend(std::size_t M, std::size_t N, std::size_t K, float alpha,
                         const float* A, std::size_t lda, const float* Bm, std::size_t ldb,
                         float beta, float* C, std::size_t ldc, Act act) {
  run_tiles<Cfg, B>(Operands<float>{M, N, K, alpha, A, lda, Bm, ldb, beta, C, ldc, act}, 1, {});
}

template <class Cfg>
void cgemm_tiled(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                 std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                 std::size_t ldc) {
  cgemm_tiled_backend<Cfg, simd::Active>(M, N, K, alpha, A, lda, B, ldb, beta, C, ldc);
}

// Instantiations for the public shapes + ablation sweep.
template void cgemm_tiled<FusedTiles>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                      std::size_t, const c32*, std::size_t, c32, c32*,
                                      std::size_t);
template void cgemm_tiled<StandaloneTiles>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                           std::size_t, const c32*, std::size_t, c32, c32*,
                                           std::size_t);
template void cgemm_tiled<AblTilesSmall>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesWideN>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesTallM>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesDeepK>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                         std::size_t, const c32*, std::size_t, c32, c32*,
                                         std::size_t);
template void cgemm_tiled<AblTilesReg2>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                        std::size_t, const c32*, std::size_t, c32, c32*,
                                        std::size_t);
template void cgemm_tiled<AblTilesReg8>(std::size_t, std::size_t, std::size_t, c32, const c32*,
                                        std::size_t, const c32*, std::size_t, c32, c32*,
                                        std::size_t);

// Explicit-backend instantiations for the parity tests and the SIMD micro
// bench.  The scalar ones always exist; the Active ones collapse onto them
// in a scalar-only build.
#define TURBOFNO_GEMM_BACKEND_INSTANCES(Cfg, B)                                                 \
  template void cgemm_tiled_backend<Cfg, B>(std::size_t, std::size_t, std::size_t, c32,        \
                                            const c32*, std::size_t, const c32*, std::size_t,  \
                                            c32, c32*, std::size_t, Act);                      \
  template void sgemm_tiled_backend<Cfg, B>(std::size_t, std::size_t, std::size_t, float,      \
                                            const float*, std::size_t, const float*,           \
                                            std::size_t, float, float*, std::size_t, Act);
TURBOFNO_GEMM_BACKEND_INSTANCES(FusedTiles, simd::ScalarBackend)
TURBOFNO_GEMM_BACKEND_INSTANCES(StandaloneTiles, simd::ScalarBackend)
#if TURBOFNO_SIMD_HAVE_AVX2
TURBOFNO_GEMM_BACKEND_INSTANCES(FusedTiles, simd::Avx2Backend)
TURBOFNO_GEMM_BACKEND_INSTANCES(StandaloneTiles, simd::Avx2Backend)
#endif
#undef TURBOFNO_GEMM_BACKEND_INSTANCES

void cgemm(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A, std::size_t lda,
           const c32* B, std::size_t ldb, c32 beta, c32* C, std::size_t ldc, Act act) {
  dispatch(Operands<c32>{M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, act}, 1, {});
}

void cgemm_batched(std::size_t M, std::size_t N, std::size_t K, c32 alpha, const c32* A,
                   std::size_t lda, const c32* B, std::size_t ldb, c32 beta, c32* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides, Act act) {
  dispatch(Operands<c32>{M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, act}, batch, strides);
}

void sgemm_batched(std::size_t M, std::size_t N, std::size_t K, float alpha, const float* A,
                   std::size_t lda, const float* B, std::size_t ldb, float beta, float* C,
                   std::size_t ldc, std::size_t batch, const BatchedStrides& strides, Act act) {
  dispatch(Operands<float>{M, N, K, alpha, A, lda, B, ldb, beta, C, ldc, act}, batch, strides);
}

std::uint64_t cgemm_bytes(std::size_t M, std::size_t N, std::size_t K, const TileShape& tiles,
                          bool beta_nonzero) noexcept {
  const std::uint64_t tiles_m = (M + tiles.mtb - 1) / tiles.mtb;
  const std::uint64_t tiles_n = (N + tiles.ntb - 1) / tiles.ntb;
  // Each C tile reads its A panel row and B panel column once.
  const std::uint64_t a_reads = tiles_n * (static_cast<std::uint64_t>(M) * K);
  const std::uint64_t b_reads = tiles_m * (static_cast<std::uint64_t>(K) * N);
  const std::uint64_t c_write = static_cast<std::uint64_t>(M) * N;
  const std::uint64_t c_read = beta_nonzero ? c_write : 0;
  return (a_reads + b_reads + c_read + c_write) * sizeof(c32);
}

}  // namespace turbofno::gemm
