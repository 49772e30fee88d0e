// AVX2 micro-kernels.  This translation unit is the only one compiled with
// -mavx2 (and -ffp-contract=off so mul+add never fuses into FMA); callers
// reach it through kernels::active_gemm_rows() after a runtime CPU check.
//
// Register tile: kRegM C rows x kRegN C columns (2 x 32 = 8 ymm
// accumulators), so every B vector loaded for a k-step feeds kRegM rows.
// K is blocked at kBlockK; C is stored at the end of a block and reloaded
// at the start of the next, and a float's round trip through memory is
// exact.  Column tails run 8-wide, then scalar.
//
// Bit-exactness with the scalar reference: the j-axis lanes never
// interact — each C element still sees its k-terms in ascending order, one
// _mm256_mul_ps then one _mm256_add_ps per term, which round exactly like
// the scalar `crow[j] += av * brow[j]`.  The zero-skip is per (row, k):
// a row whose alpha*A value is zero gets no add for that k even when the
// other row of its tile does.  Scalar tails use the identical expression.
#include "nn/gemm_kernels.h"

#if defined(RRP_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>

namespace rrp::nn::kernels {

namespace {

constexpr int kRegM = 2;
constexpr int kRegN = 32;
constexpr std::int64_t kBlockK = 256;
static_assert(kTileRows % kRegM == 0);

// rrp-frame-path: C = beta*C prologue of the AVX2 kernels.
void scale_rows(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) std::fill(crow, crow + n, 0.0f);
    else if (beta != 1.0f)
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
  }
}

// A element (row r of the tile, column kk) sits at a[r * a_rs + kk * a_ks]:
// row-major A has (a_rs, a_ks) = (lda, 1), A-transposed has (1, lda).  The
// same tile body therefore serves both public kernels.

// rrp-frame-path: R rows x 8V columns register tile over k in [k0, kmax).
template <int R, int V>
void vec_tile(std::int64_t k0, std::int64_t kmax, float alpha,
              const float* a, std::int64_t a_rs, std::int64_t a_ks,
              const float* b, std::int64_t ldb, float* c, std::int64_t ldc) {
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v)
      acc[r][v] = _mm256_loadu_ps(c + r * ldc + v * 8);
  for (std::int64_t kk = k0; kk < kmax; ++kk) {
    const float* brow = b + kk * ldb;
    __m256 bv[V];
    for (int v = 0; v < V; ++v) bv[v] = _mm256_loadu_ps(brow + v * 8);
    for (int r = 0; r < R; ++r) {
      const float av = alpha * a[r * a_rs + kk * a_ks];
      if (av == 0.0f) continue;  // pruned weights short-circuit
      const __m256 va = _mm256_set1_ps(av);
      for (int v = 0; v < V; ++v)
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
    }
  }
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v)
      _mm256_storeu_ps(c + r * ldc + v * 8, acc[r][v]);
}

// rrp-frame-path: scalar column tail (jn < 8) of an R-row tile.
template <int R>
void scalar_tile(std::int64_t jn, std::int64_t k0, std::int64_t kmax,
                 float alpha, const float* a, std::int64_t a_rs,
                 std::int64_t a_ks, const float* b, std::int64_t ldb,
                 float* c, std::int64_t ldc) {
  for (int r = 0; r < R; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t kk = k0; kk < kmax; ++kk) {
      const float av = alpha * a[r * a_rs + kk * a_ks];
      if (av == 0.0f) continue;  // pruned weights short-circuit
      const float* brow = b + kk * ldb;
      for (std::int64_t j = 0; j < jn; ++j) crow[j] += av * brow[j];
    }
  }
}

// rrp-frame-path: R rows x all n columns over one k block.
template <int R>
void row_panel(std::int64_t n, std::int64_t k0, std::int64_t kmax,
               float alpha, const float* a, std::int64_t a_rs,
               std::int64_t a_ks, const float* b, std::int64_t ldb, float* c,
               std::int64_t ldc) {
  std::int64_t j = 0;
  for (; j + kRegN <= n; j += kRegN)
    vec_tile<R, kRegN / 8>(k0, kmax, alpha, a, a_rs, a_ks, b + j, ldb, c + j,
                           ldc);
  for (; j + 8 <= n; j += 8)
    vec_tile<R, 1>(k0, kmax, alpha, a, a_rs, a_ks, b + j, ldb, c + j, ldc);
  if (j < n)
    scalar_tile<R>(n - j, k0, kmax, alpha, a, a_rs, a_ks, b + j, ldb, c + j,
                   ldc);
}

// rrp-frame-path: shared body of both public kernels.
void gemm_rows_strided(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t a_rs, std::int64_t a_ks,
                       const float* b, std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
    const std::int64_t kmax = std::min(k0 + kBlockK, k);
    std::int64_t i = i_begin;
    for (; i + kRegM <= i_end; i += kRegM)
      row_panel<kRegM>(n, k0, kmax, alpha, a + i * a_rs, a_rs, a_ks, b, ldb,
                       c + i * ldc, ldc);
    for (; i < i_end; ++i)
      row_panel<1>(n, k0, kmax, alpha, a + i * a_rs, a_rs, a_ks, b, ldb,
                   c + i * ldc, ldc);
  }
}

}  // namespace

// rrp-frame-path: hand-vectorized AVX2 micro-kernel (runtime-dispatched).
void gemm_rows_avx2(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const float* b, std::int64_t ldb,
                    float beta, float* c, std::int64_t ldc) {
  gemm_rows_strided(i_begin, i_end, n, k, alpha, a, lda, 1, b, ldb, beta, c,
                    ldc);
}

// rrp-frame-path: hand-vectorized AVX2 micro-kernel, A-transposed.
void gemm_at_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc) {
  // A is [K, M]: A elements for row i sit at a[kk * lda + i].
  gemm_rows_strided(i_begin, i_end, n, k, alpha, a, 1, lda, b, ldb, beta, c,
                    ldc);
}

}  // namespace rrp::nn::kernels

#endif  // RRP_HAVE_AVX2
