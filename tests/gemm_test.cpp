// Blocked GEMM vs the naive reference over a shape grid, alpha/beta cases,
// and every instantiated tile configuration; the float path against a
// double reference; the activation epilogue on both paths and backends.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "gemm/batched.hpp"
#include "gemm/cgemm.hpp"
#include "gemm/reference.hpp"
#include "test_util.hpp"

namespace turbofno::gemm {
namespace {

using turbofno::testing::max_err;
using turbofno::testing::random_reals;
using turbofno::testing::random_signal;

struct GemmCase {
  std::size_t m, n, k;
};

double gemm_tol(std::size_t k) { return 4e-5 * std::sqrt(static_cast<double>(k) + 1.0); }

class CgemmShapes : public ::testing::TestWithParam<GemmCase> {};

TEST_P(CgemmShapes, MatchesReference) {
  const auto [M, N, K] = GetParam();
  const auto A = random_signal(M * K, 301u + static_cast<unsigned>(M));
  const auto B = random_signal(K * N, 307u + static_cast<unsigned>(N));
  std::vector<c32> C(M * N, c32{});
  std::vector<c32> Cref(M * N, c32{});
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, C.data(), N);
  cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f},
                  Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K)) << "M=" << M << " N=" << N << " K=" << K;
}

TEST_P(CgemmShapes, ComplexAlphaBetaAccumulate) {
  const auto [M, N, K] = GetParam();
  const auto A = random_signal(M * K, 311u);
  const auto B = random_signal(K * N, 313u);
  const auto C0 = random_signal(M * N, 317u);
  const c32 alpha{0.5f, -1.25f};
  const c32 beta{-0.75f, 0.25f};
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  cgemm(M, N, K, alpha, A.data(), K, B.data(), N, beta, C.data(), N);
  cgemm_reference(M, N, K, alpha, A.data(), K, B.data(), N, beta, Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K));
}

// ---------------------------------------------------------- float path

// C = alpha * A B + beta * C0 in double (row-major, tight leading dims).
std::vector<double> sgemm_double(std::size_t M, std::size_t N, std::size_t K, double alpha,
                                 const std::vector<float>& A, const std::vector<float>& B,
                                 double beta, const std::vector<float>& C0) {
  std::vector<double> C(M * N);
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      double acc = 0.0;
      for (std::size_t k = 0; k < K; ++k) acc += static_cast<double>(A[i * K + k]) * B[k * N + j];
      C[i * N + j] = alpha * acc + beta * C0[i * N + j];
    }
  }
  return C;
}

double max_err_d(const std::vector<float>& got, const std::vector<double>& want) {
  double e = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    e = std::max(e, std::abs(static_cast<double>(got[i]) - want[i]));
  }
  return e;
}

TEST_P(CgemmShapes, FloatPathMatchesDoubleReference) {
  const auto [M, N, K] = GetParam();
  const auto A = random_reals(M * K, 401u + static_cast<unsigned>(M));
  const auto B = random_reals(K * N, 409u + static_cast<unsigned>(N));
  const std::vector<float> C0(M * N, 0.0f);
  std::vector<float> C(C0);
  sgemm_batched(M, N, K, 1.0f, A.data(), K, B.data(), N, 0.0f, C.data(), N, 1, {});
  EXPECT_LT(max_err_d(C, sgemm_double(M, N, K, 1.0, A, B, 0.0, C0)), gemm_tol(K))
      << "M=" << M << " N=" << N << " K=" << K;
}

TEST_P(CgemmShapes, FloatPathAlphaBetaAccumulate) {
  const auto [M, N, K] = GetParam();
  const auto A = random_reals(M * K, 419u);
  const auto B = random_reals(K * N, 421u);
  const auto C0 = random_reals(M * N, 431u);
  // beta = 1 is the residual add; the general pair exercises the FMA form.
  for (const auto [alpha, beta] : {std::pair{1.0f, 1.0f}, std::pair{-1.25f, 0.75f}}) {
    std::vector<float> C(C0);
    sgemm_batched(M, N, K, alpha, A.data(), K, B.data(), N, beta, C.data(), N, 1, {});
    EXPECT_LT(max_err_d(C, sgemm_double(M, N, K, alpha, A, B, beta, C0)), gemm_tol(K))
        << "alpha=" << alpha << " beta=" << beta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CgemmShapes,
    ::testing::Values(GemmCase{1, 1, 1}, GemmCase{4, 4, 4}, GemmCase{7, 5, 3},
                      GemmCase{16, 16, 16}, GemmCase{31, 33, 17}, GemmCase{32, 32, 8},
                      GemmCase{64, 64, 8}, GemmCase{64, 64, 64}, GemmCase{65, 63, 9},
                      GemmCase{128, 32, 8}, GemmCase{33, 128, 130}, GemmCase{256, 16, 16},
                      GemmCase{512, 64, 128},  // tall-and-skinny (the FNO shape)
                      GemmCase{1000, 48, 72}, GemmCase{100, 1, 100}, GemmCase{1, 100, 100},
                      GemmCase{37, 129, 1}));

// Each explicit backend instantiation of the float path against the double
// reference: M = 1 (a projection), N = 1, K = 1 and a shape that is not a
// multiple of any tile dimension, at beta 0, 1 and a general value.
template <class Cfg, class B>
void check_float_backend() {
  const std::size_t dims[][3] = {{1, 70, 19}, {45, 1, 19}, {45, 37, 1}, {45, 37, 19},
                                 {70, 130, 33}};
  unsigned seed = 500;
  for (const auto& d : dims) {
    const std::size_t M = d[0];
    const std::size_t N = d[1];
    const std::size_t K = d[2];
    const auto A = random_reals(M * K, ++seed);
    const auto Bm = random_reals(K * N, ++seed);
    const auto C0 = random_reals(M * N, ++seed);
    for (const auto [alpha, beta] :
         {std::pair{1.0f, 0.0f}, std::pair{1.0f, 1.0f}, std::pair{0.5f, -0.75f}}) {
      std::vector<float> C(C0);
      sgemm_tiled_backend<Cfg, B>(M, N, K, alpha, A.data(), K, Bm.data(), N, beta, C.data(), N);
      EXPECT_LT(max_err_d(C, sgemm_double(M, N, K, alpha, A, Bm, beta, C0)), gemm_tol(K))
          << B::name() << " M=" << M << " N=" << N << " K=" << K << " beta=" << beta;
    }
  }
}

float relu(float x) { return x > 0.0f ? x : 0.0f; }

// The ReLU epilogue with beta = 1 (the FNO residual layer) is bitwise the
// same GEMM with beta = 0 followed by a separate add and clamp, on the
// complex path (re and im clamped independently) and the float path.
template <class Cfg, class B>
void check_relu_epilogue() {
  const std::size_t M = 45;
  const std::size_t N = 37;
  const std::size_t K = 19;

  const auto A = random_signal(M * K, 601u);
  const auto Bm = random_signal(K * N, 607u);
  const auto C0 = random_signal(M * N, 613u);
  std::vector<c32> fused(C0);
  cgemm_tiled_backend<Cfg, B>(M, N, K, c32{1.0f}, A.data(), K, Bm.data(), N, c32{1.0f},
                              fused.data(), N, Act::Relu);
  std::vector<c32> want(M * N, c32{});
  cgemm_tiled_backend<Cfg, B>(M, N, K, c32{1.0f}, A.data(), K, Bm.data(), N, c32{}, want.data(),
                              N);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const c32 s = want[i] + C0[i];
    want[i] = {relu(s.re), relu(s.im)};
  }
  EXPECT_EQ(std::memcmp(fused.data(), want.data(), want.size() * sizeof(c32)), 0)
      << B::name() << " complex";

  const auto Ar = random_reals(M * K, 617u);
  const auto Br = random_reals(K * N, 619u);
  const auto Cr = random_reals(M * N, 631u);
  std::vector<float> fused_r(Cr);
  sgemm_tiled_backend<Cfg, B>(M, N, K, 1.0f, Ar.data(), K, Br.data(), N, 1.0f, fused_r.data(),
                              N, Act::Relu);
  std::vector<float> want_r(M * N, 0.0f);
  sgemm_tiled_backend<Cfg, B>(M, N, K, 1.0f, Ar.data(), K, Br.data(), N, 0.0f, want_r.data(),
                              N);
  std::size_t clamped = 0;
  for (std::size_t i = 0; i < want_r.size(); ++i) {
    const float s = want_r[i] + Cr[i];
    clamped += s < 0.0f;
    want_r[i] = relu(s);
  }
  EXPECT_GT(clamped, 0u) << "the case must exercise the clamp";
  EXPECT_EQ(std::memcmp(fused_r.data(), want_r.data(), want_r.size() * sizeof(float)), 0)
      << B::name() << " float";
}

TEST(GemmFloatPath, ScalarFusedTiles) { check_float_backend<FusedTiles, simd::ScalarBackend>(); }
TEST(GemmFloatPath, ScalarStandaloneTiles) {
  check_float_backend<StandaloneTiles, simd::ScalarBackend>();
}
TEST(GemmEpilogue, ScalarReluIsAddThenClamp) {
  check_relu_epilogue<FusedTiles, simd::ScalarBackend>();
  check_relu_epilogue<StandaloneTiles, simd::ScalarBackend>();
}
#if TURBOFNO_SIMD_HAVE_AVX2
TEST(GemmFloatPath, Avx2FusedTiles) { check_float_backend<FusedTiles, simd::Avx2Backend>(); }
TEST(GemmFloatPath, Avx2StandaloneTiles) {
  check_float_backend<StandaloneTiles, simd::Avx2Backend>();
}
TEST(GemmEpilogue, Avx2ReluIsAddThenClamp) {
  check_relu_epilogue<FusedTiles, simd::Avx2Backend>();
  check_relu_epilogue<StandaloneTiles, simd::Avx2Backend>();
}
#endif

// Every instantiated tile configuration must agree with the reference on an
// edge-stressing shape (not a multiple of any tile dim).
template <class Cfg>
void check_tiles() {
  const std::size_t M = 45;
  const std::size_t N = 37;
  const std::size_t K = 19;
  const auto A = random_signal(M * K, 331u);
  const auto B = random_signal(K * N, 337u);
  const auto C0 = random_signal(M * N, 347u);
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  const c32 alpha{1.5f, 0.5f};
  const c32 beta{0.25f, -0.5f};
  cgemm_tiled<Cfg>(M, N, K, alpha, A.data(), K, B.data(), N, beta, C.data(), N);
  cgemm_reference(M, N, K, alpha, A.data(), K, B.data(), N, beta, Cref.data(), N);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K))
      << "tiles " << Cfg::Mtb << "x" << Cfg::Ntb << "x" << Cfg::Ktb;
}

TEST(CgemmTiles, FusedTableOneShape) { check_tiles<FusedTiles>(); }
TEST(CgemmTiles, StandaloneShape) { check_tiles<StandaloneTiles>(); }
TEST(CgemmTiles, SmallTiles) { check_tiles<AblTilesSmall>(); }
TEST(CgemmTiles, WideN) { check_tiles<AblTilesWideN>(); }
TEST(CgemmTiles, TallM) { check_tiles<AblTilesTallM>(); }
TEST(CgemmTiles, DeepK) { check_tiles<AblTilesDeepK>(); }
TEST(CgemmTiles, SmallRegisterTile) { check_tiles<AblTilesReg2>(); }
TEST(CgemmTiles, LargeRegisterTile) { check_tiles<AblTilesReg8>(); }

TEST(Cgemm, ZeroSizedProblemsAreNoOps) {
  std::vector<c32> C(4, c32{7.0f, 7.0f});
  cgemm(0, 2, 2, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{0.0f, 0.0f}, C.data(), 2);
  EXPECT_EQ(C[0].re, 7.0f);  // untouched
  cgemm(2, 0, 2, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{0.0f, 0.0f}, C.data(), 2);
  EXPECT_EQ(C[1].re, 7.0f);
}

TEST(Cgemm, KZeroScalesByBeta) {
  const std::size_t M = 8;
  const std::size_t N = 8;
  const auto C0 = random_signal(M * N, 353u);
  std::vector<c32> C(C0);
  // K == 0: C = beta * C exactly.
  cgemm(M, N, 0, c32{1.0f, 0.0f}, nullptr, 1, nullptr, 1, c32{2.0f, 0.0f}, C.data(), N);
  for (std::size_t i = 0; i < M * N; ++i) {
    EXPECT_NEAR(C[i].re, 2.0f * C0[i].re, 1e-6);
    EXPECT_NEAR(C[i].im, 2.0f * C0[i].im, 1e-6);
  }
}

TEST(Cgemm, IdentityBIsACopy) {
  const std::size_t n = 24;
  const auto A = random_signal(n * n, 359u);
  std::vector<c32> I(n * n, c32{});
  for (std::size_t i = 0; i < n; ++i) I[i * n + i] = {1.0f, 0.0f};
  std::vector<c32> C(n * n, c32{});
  cgemm(n, n, n, c32{1.0f, 0.0f}, A.data(), n, I.data(), n, c32{0.0f, 0.0f}, C.data(), n);
  EXPECT_LT(max_err(C, A), 1e-5);
}

TEST(Cgemm, PureImaginaryAlphaRotates) {
  // alpha = i must rotate every output by 90 degrees: C_i = i * (A B).
  const std::size_t M = 12;
  const std::size_t N = 10;
  const std::size_t K = 8;
  const auto A = random_signal(M * K, 367u);
  const auto B = random_signal(K * N, 373u);
  std::vector<c32> C1(M * N, c32{});
  std::vector<c32> Ci(M * N, c32{});
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, C1.data(), N);
  cgemm(M, N, K, c32{0.0f, 1.0f}, A.data(), K, B.data(), N, c32{0.0f, 0.0f}, Ci.data(), N);
  for (std::size_t i = 0; i < M * N; ++i) {
    EXPECT_NEAR(Ci[i].re, -C1[i].im, 1e-4);
    EXPECT_NEAR(Ci[i].im, C1[i].re, 1e-4);
  }
}

TEST(Cgemm, LeadingDimensionsLargerThanWidth) {
  const std::size_t M = 10;
  const std::size_t N = 6;
  const std::size_t K = 5;
  const std::size_t lda = K + 3;
  const std::size_t ldb = N + 2;
  const std::size_t ldc = N + 4;
  const auto A = random_signal(M * lda, 379u);
  const auto B = random_signal(K * ldb, 383u);
  const auto C0 = random_signal(M * ldc, 389u);
  std::vector<c32> C(C0);
  std::vector<c32> Cref(C0);
  cgemm(M, N, K, c32{1.0f, 0.0f}, A.data(), lda, B.data(), ldb, c32{1.0f, 0.0f}, C.data(), ldc);
  cgemm_reference(M, N, K, c32{1.0f, 0.0f}, A.data(), lda, B.data(), ldb, c32{1.0f, 0.0f},
                  Cref.data(), ldc);
  EXPECT_LT(max_err(C, Cref), gemm_tol(K));
  // Padding columns must be untouched.
  for (std::size_t i = 0; i < M; ++i) {
    for (std::size_t j = N; j < ldc; ++j) {
      EXPECT_EQ(C[i * ldc + j].re, C0[i * ldc + j].re);
    }
  }
}

TEST(CgemmBytes, TileShapeDrivesTrafficModel) {
  const TileShape small{32, 32, 8, 4, 4};
  const TileShape big{64, 64, 8, 4, 4};
  // Larger tiles -> fewer panel re-reads -> fewer modeled bytes.
  EXPECT_LT(cgemm_bytes(1024, 256, 64, big, false), cgemm_bytes(1024, 256, 64, small, false));
  EXPECT_GT(cgemm_bytes(64, 64, 64, small, true), cgemm_bytes(64, 64, 64, small, false));
}

}  // namespace
}  // namespace turbofno::gemm
