// AVX2 micro-kernels.  This translation unit is the only one compiled with
// -mavx2 (and -ffp-contract=off so mul+add never fuses into FMA); callers
// reach it through the kernels::active_* dispatch after a runtime CPU
// check.
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
#include <cstring>

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

// ---------------------------------------------------------------------------
// Implicit-GEMM conv.  The same 2 x 32 register tile, over the K of the
// live channel runs (the padded sample B is read from is small enough to
// stay in cache, so there is no K block and each tile is stored once,
// through the epilogue).  A tile's R rows are R consecutive entries of the
// live-row list, not necessarily adjacent rows of A.  An 8-lane group of
// B is one unaligned load when its columns are unit-stride in the padded
// plane (stride 1, one output row); otherwise it is loaded lane by lane.
// Either way each lane holds the value im2col would have written, so the
// arithmetic is the explicit tile's.
// ---------------------------------------------------------------------------

// rrp-frame-path: stores R rows x 8V columns of accumulators through the
// conv epilogue, with conv_epilogue's operation order.
template <int R, int V>
void conv_store(const ConvGemm& g, const std::int64_t (&rows)[R],
                std::int64_t j, __m256 (&acc)[R][V]) {
  const __m256 zero = _mm256_setzero_ps();
  for (int r = 0; r < R; ++r) {
    const std::int64_t row = rows[r];
    for (int v = 0; v < V; ++v) {
      __m256 y = acc[r][v];
      if (g.bias != nullptr) y = _mm256_add_ps(y, _mm256_set1_ps(g.bias[row]));
      if (g.scale != nullptr)
        y = _mm256_add_ps(_mm256_mul_ps(y, _mm256_set1_ps(g.scale[row])),
                          _mm256_set1_ps(g.shift[row]));
      // max(0, y) returns y unless 0 > y: NaN and -0 pass through, as
      // with std::max(y, 0.0f).
      if (g.relu) y = _mm256_max_ps(zero, y);
      _mm256_storeu_ps(g.c + row * g.ldc + j + v * 8, y);
    }
  }
}

// rrp-frame-path: R rows x 8V columns of the implicit conv from column j.
template <int R, int V, bool kUnitStride>
void conv_vec_tile(const ConvGemm& g, const std::int64_t (&rows)[R],
                   std::int64_t j, const std::int64_t (&first)[V]) {
  // Per 8-lane group: its first column's offset (unit-stride groups) or
  // every lane's offset.
  constexpr int kLanes = kUnitStride ? 1 : 8;
  std::int64_t lane[V][kLanes];
  for (int v = 0; v < V; ++v) {
    lane[v][0] = first[v];
    for (int l = 1; l < kLanes; ++l)
      lane[v][l] = conv_col_offset(g, j + v * 8 + l);
  }
  __m256 acc[R][V];
  for (int r = 0; r < R; ++r)
    for (int v = 0; v < V; ++v) acc[r][v] = _mm256_setzero_ps();
  // Row r's weights start at arow + roff[r]: one base pointer keeps every
  // weight load base + index addressed, as for adjacent rows.
  const float* arow = g.a + rows[0] * g.lda;
  std::int64_t roff[R];
  for (int r = 0; r < R; ++r) roff[r] = (rows[r] - rows[0]) * g.lda;
  const std::int64_t plane = static_cast<std::int64_t>(g.hp) * g.wp;
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  for (int q = 0; q < g.chan_runs; ++q) {
    const std::int64_t c_end = conv_index(g.chans, 2 * q + 1);
    std::int64_t c = conv_index(g.chans, 2 * q);
    std::int64_t kk = c * taps;
    for (; c < c_end; ++c)
      for (int ki = 0; ki < g.kernel; ++ki) {
        const float* bbase = g.xp + c * plane + ki * g.wp;
        for (int kj = 0; kj < g.kernel; ++kj, ++kk) {
          const float* brow = bbase + kj;
          __m256 bv[V];
          for (int v = 0; v < V; ++v) {
            const std::int64_t* o = lane[v];
            if constexpr (kUnitStride)
              bv[v] = _mm256_loadu_ps(brow + o[0]);
            else
              bv[v] = _mm256_setr_ps(brow[o[0]], brow[o[1]], brow[o[2]],
                                     brow[o[3]], brow[o[4]], brow[o[5]],
                                     brow[o[6]], brow[o[7]]);
          }
          for (int r = 0; r < R; ++r) {
            const float av = arow[roff[r] + kk];
            if (av == 0.0f) continue;  // pruned weights short-circuit
            const __m256 va = _mm256_set1_ps(av);
            for (int v = 0; v < V; ++v)
              acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
          }
        }
      }
  }
  conv_store<R, V>(g, rows, j, acc);
}

// rrp-frame-path: picks the unit-stride or lane-by-lane load for a tile.
template <int R, int V>
void conv_tile(const ConvGemm& g, const std::int64_t (&rows)[R],
               std::int64_t j) {
  // One division per tile (a per-group j / ow, j % ow cost small convs
  // more than their MACs): group v starts 8v output columns after j.
  std::int64_t oi = j / g.ow, oj = j % g.ow;
  std::int64_t first[V];
  bool unit = g.stride == 1;
  for (int v = 0; v < V; ++v) {
    first[v] = (oi * g.wp + oj) * g.stride;
    unit = unit && oj + 8 <= g.ow;
    for (oj += 8; oj >= g.ow; oj -= g.ow) ++oi;
  }
  if (unit) conv_vec_tile<R, V, true>(g, rows, j, first);
  else conv_vec_tile<R, V, false>(g, rows, j, first);
}

// rrp-frame-path: scalar column tail [j, n) of an R-row conv tile.
template <int R>
void conv_scalar_tile(const ConvGemm& g, const std::int64_t (&rows)[R],
                      std::int64_t j, std::int64_t n) {
  const std::int64_t plane = static_cast<std::int64_t>(g.hp) * g.wp;
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  for (int r = 0; r < R; ++r) {
    const float* arow = g.a + rows[r] * g.lda;
    float* crow = g.c + rows[r] * g.ldc;
    for (std::int64_t jj = j; jj < n; ++jj) {
      const std::int64_t col = conv_col_offset(g, jj);
      crow[jj] = 0.0f;
      for (int q = 0; q < g.chan_runs; ++q) {
        const std::int64_t c_end = conv_index(g.chans, 2 * q + 1);
        std::int64_t c = conv_index(g.chans, 2 * q);
        std::int64_t kk = c * taps;
        for (; c < c_end; ++c)
          for (int ki = 0; ki < g.kernel; ++ki)
            for (int kj = 0; kj < g.kernel; ++kj, ++kk) {
              const float av = arow[kk];
              if (av == 0.0f) continue;  // pruned weights short-circuit
              crow[jj] += av * g.xp[c * plane + ki * g.wp + kj + col];
            }
      }
      crow[jj] = conv_epilogue(g, rows[r], crow[jj]);
    }
  }
}

// rrp-frame-path: R listed rows x all N columns of the implicit conv.
template <int R>
void conv_panel(const ConvGemm& g, const std::int64_t (&rows)[R]) {
  const std::int64_t n = static_cast<std::int64_t>(g.oh) * g.ow;
  std::int64_t j = 0;
  for (; j + kRegN <= n; j += kRegN) conv_tile<R, kRegN / 8>(g, rows, j);
  for (; j + 8 <= n; j += 8) conv_tile<R, 1>(g, rows, j);
  if (j < n) conv_scalar_tile<R>(g, rows, j, n);
}

// ---------------------------------------------------------------------------
// B-transposed rows under gemm_bt's double contract.  Each double lane is
// one output column j and keeps that column's k-ascending chain: a
// float x float product is exact in double, so _mm256_mul_pd then
// _mm256_add_pd rounds exactly like the scalar
// `acc += double(a[k]) * b[j][k]`, and lanes never interact.  A tile is
// R rows of A x 8 rows of B: per 4 k, each B row's 4 floats are widened
// to doubles and two 4 x 4 transposes turn them into one ymm per (k, lane
// half), which every tile row reuses.  The k tail continues each lane's
// chain in scalar code; the column tail is the scalar reference.
// A lane that comes out NaN is settled by the scalar rule (bt_settle), so
// the operand order the compiler picks for the vector ops cannot show.
// ---------------------------------------------------------------------------

// rrp-frame-path: B[l][0..3] for l < 8 as doubles, transposed so that
// out[s] holds k-step s of lanes 0..3 and out[4 + s] of lanes 4..7.
[[gnu::always_inline]] inline void bt_load4(const float* b, std::int64_t ldb,
                                            __m256d (&out)[8]) {
  for (int h = 0; h < 2; ++h) {
    const float* p = b + 4 * h * ldb;
    const __m256d r0 = _mm256_cvtps_pd(_mm_loadu_ps(p));
    const __m256d r1 = _mm256_cvtps_pd(_mm_loadu_ps(p + ldb));
    const __m256d r2 = _mm256_cvtps_pd(_mm_loadu_ps(p + 2 * ldb));
    const __m256d r3 = _mm256_cvtps_pd(_mm_loadu_ps(p + 3 * ldb));
    const __m256d t0 = _mm256_unpacklo_pd(r0, r1);  // r0[0] r1[0] r0[2] r1[2]
    const __m256d t1 = _mm256_unpackhi_pd(r0, r1);  // r0[1] r1[1] r0[3] r1[3]
    const __m256d t2 = _mm256_unpacklo_pd(r2, r3);
    const __m256d t3 = _mm256_unpackhi_pd(r2, r3);
    out[4 * h + 0] = _mm256_permute2f128_pd(t0, t2, 0x20);
    out[4 * h + 1] = _mm256_permute2f128_pd(t1, t3, 0x20);
    out[4 * h + 2] = _mm256_permute2f128_pd(t0, t2, 0x31);
    out[4 * h + 3] = _mm256_permute2f128_pd(t1, t3, 0x31);
  }
}

// rrp-frame-path: R rows of A x 8 rows of B (C columns j..j+7), stored
// through bt_store.
template <int R>
void bt_tile(std::int64_t k, float alpha, const float* a, std::int64_t lda,
             const float* b, std::int64_t ldb, float beta, float* c,
             std::int64_t ldc, const float* bias, std::int64_t j, bool relu) {
  __m256d lo[R], hi[R];  // lanes 0..3 and 4..7 of each row
  for (int r = 0; r < R; ++r) lo[r] = hi[r] = _mm256_setzero_pd();
  std::int64_t kk = 0;
  for (; kk + 4 <= k; kk += 4) {
    __m256d bv[8];
    bt_load4(b + kk, ldb, bv);
    // A's 4 values as doubles in memory, so each broadcast is a load.
    alignas(32) double ad[R][4];
    for (int r = 0; r < R; ++r)
      _mm256_store_pd(ad[r], _mm256_cvtps_pd(_mm_loadu_ps(a + r * lda + kk)));
    for (int r = 0; r < R; ++r)
      for (int s = 0; s < 4; ++s) {
        const __m256d av = _mm256_broadcast_sd(&ad[r][s]);
        lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(av, bv[s]));
        hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(av, bv[4 + s]));
      }
  }
  double acc[R][8];
  for (int r = 0; r < R; ++r) {
    _mm256_storeu_pd(acc[r], lo[r]);
    _mm256_storeu_pd(acc[r] + 4, hi[r]);
  }
  for (int r = 0; r < R; ++r) {
    const float* arow = a + r * lda;
    float* crow = c + r * ldc;
    for (int l = 0; l < 8; ++l) {
      const float* brow = b + l * ldb;
      for (std::int64_t t = kk; t < k; ++t)
        acc[r][l] += static_cast<double>(arow[t]) * brow[t];
      crow[l] = bt_store(bt_settle(acc[r][l], arow, brow, k), alpha, beta,
                         crow + l, bias, j + l, relu);
    }
  }
}

// rrp-frame-path: R rows of A x all n columns of C.
template <int R>
void bt_panel(std::int64_t n, std::int64_t k, float alpha, const float* a,
              std::int64_t lda, const float* b, std::int64_t ldb, float beta,
              float* c, std::int64_t ldc, const float* bias, bool relu) {
  std::int64_t j = 0;
  for (; j + 8 <= n; j += 8)
    bt_tile<R>(k, alpha, a, lda, b + j * ldb, ldb, beta, c + j, ldc, bias, j,
               relu);
  if (j < n)
    gemm_bt_rows_reference(0, R, n - j, k, alpha, a, lda, b + j * ldb, ldb,
                           beta, c + j, ldc,
                           bias != nullptr ? bias + j : nullptr, relu);
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

// rrp-frame-path: hand-vectorized AVX2 B-transposed rows (double lanes).
void gemm_bt_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc, const float* bias, bool relu) {
  std::int64_t i = i_begin;
  for (; i + kRegM <= i_end; i += kRegM)
    bt_panel<kRegM>(n, k, alpha, a + i * lda, lda, b, ldb, beta, c + i * ldc,
                    ldc, bias, relu);
  for (; i < i_end; ++i)
    bt_panel<1>(n, k, alpha, a + i * lda, lda, b, ldb, beta, c + i * ldc, ldc,
                bias, relu);
}

// rrp-frame-path: hand-vectorized AVX2 implicit-GEMM conv rows.
void conv_rows_avx2(std::int64_t t_begin, std::int64_t t_end,
                    const ConvGemm& g) {
  std::int64_t t = t_begin;
  for (; t + kRegM <= t_end; t += kRegM) {
    std::int64_t rows[kRegM];
    for (int r = 0; r < kRegM; ++r) rows[r] = conv_index(g.rows, t + r);
    conv_panel<kRegM>(g, rows);
  }
  for (; t < t_end; ++t) {
    const std::int64_t rows[1] = {conv_index(g.rows, t)};
    conv_panel<1>(g, rows);
  }
}

namespace {

// rrp-frame-path: -1 in each lane of the 8 floats at p that holds a ±0
// (its bits without the sign bit are all zero), 0 elsewhere.
__m256i zero_lanes(const float* p) {
  const __m256i bits =
      _mm256_and_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)),
                       _mm256_set1_epi32(0x7fffffff));
  return _mm256_cmpeq_epi32(bits, _mm256_setzero_si256());
}

}  // namespace

// rrp-frame-path: count_nonzero 32 floats per step.  Each zero_lanes
// compare adds -1 per ±0 to a 32-bit lane count, so the result is n minus
// the zeros.  Lane counts are folded every kZeroBlock floats, far below
// where a 32-bit lane could wrap.
std::int64_t count_nonzero_avx2(const float* x, std::int64_t n) {
  constexpr std::int64_t kStep = 32;
  constexpr std::int64_t kZeroBlock = std::int64_t{1} << 20;
  const __m256i zero = _mm256_setzero_si256();
  std::int64_t zeros = 0;
  std::int64_t i = 0;
  while (n - i >= 8) {
    const std::int64_t block_end = i + std::min(kZeroBlock, (n - i) / 8 * 8);
    __m256i acc0 = zero, acc1 = zero, acc2 = zero, acc3 = zero;
    for (; i + kStep <= block_end; i += kStep) {
      acc0 = _mm256_add_epi32(acc0, zero_lanes(x + i));
      acc1 = _mm256_add_epi32(acc1, zero_lanes(x + i + 8));
      acc2 = _mm256_add_epi32(acc2, zero_lanes(x + i + 16));
      acc3 = _mm256_add_epi32(acc3, zero_lanes(x + i + 24));
    }
    for (; i < block_end; i += 8) acc0 = _mm256_add_epi32(acc0, zero_lanes(x + i));
    const __m256i acc = _mm256_add_epi32(_mm256_add_epi32(acc0, acc1),
                                         _mm256_add_epi32(acc2, acc3));
    alignas(32) std::int32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
    for (const std::int32_t lane : lanes) zeros -= lane;
  }
  std::int64_t count = i - zeros;
  for (; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, x + i, sizeof bits);
    count += (bits & 0x7fffffffu) != 0 ? 1 : 0;
  }
  return count;
}

namespace {

// One pixel of 8 channels (v) into the sum and sum-of-squares chains:
// lo holds channels 0-3, hi channels 4-7.
inline void moments_step(__m256 v, __m256d& s_lo, __m256d& s_hi,
                         __m256d& q_lo, __m256d& q_hi) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  s_lo = _mm256_add_pd(s_lo, lo);
  s_hi = _mm256_add_pd(s_hi, hi);
  q_lo = _mm256_add_pd(q_lo, _mm256_mul_pd(lo, lo));
  q_hi = _mm256_add_pd(q_hi, _mm256_mul_pd(hi, hi));
}

}  // namespace

// BatchNorm batch statistics, 4 pixels of 8 channels per step: channels l
// and l + 4 share a ymm (one 128-bit half each), a 4x4 transpose in both
// halves turns the 4 rows into one 8-channel vector per pixel, and the
// pixels go into the chains in order.  Pixels past the last multiple of 4
// are gathered one at a time.
void channel_moments_avx2(const float* x, std::int64_t n,
                          std::int64_t sample_stride, std::int64_t hw,
                          double* sum, double* sq) {
  __m256d s_lo = _mm256_setzero_pd(), s_hi = s_lo, q_lo = s_lo, q_hi = s_lo;
  for (std::int64_t smp = 0; smp < n; ++smp) {
    const float* p = x + smp * sample_stride;
    std::int64_t i = 0;
    for (; i + 4 <= hw; i += 4) {
      const __m256 r0 = _mm256_set_m128(_mm_loadu_ps(p + 4 * hw + i),
                                        _mm_loadu_ps(p + i));
      const __m256 r1 = _mm256_set_m128(_mm_loadu_ps(p + 5 * hw + i),
                                        _mm_loadu_ps(p + hw + i));
      const __m256 r2 = _mm256_set_m128(_mm_loadu_ps(p + 6 * hw + i),
                                        _mm_loadu_ps(p + 2 * hw + i));
      const __m256 r3 = _mm256_set_m128(_mm_loadu_ps(p + 7 * hw + i),
                                        _mm_loadu_ps(p + 3 * hw + i));
      const __m256 t0 = _mm256_unpacklo_ps(r0, r1);  // px 0,1 of ch 0,1
      const __m256 t1 = _mm256_unpackhi_ps(r0, r1);  // px 2,3 of ch 0,1
      const __m256 t2 = _mm256_unpacklo_ps(r2, r3);  // px 0,1 of ch 2,3
      const __m256 t3 = _mm256_unpackhi_ps(r2, r3);  // px 2,3 of ch 2,3
      moments_step(_mm256_shuffle_ps(t0, t2, 0x44), s_lo, s_hi, q_lo, q_hi);
      moments_step(_mm256_shuffle_ps(t0, t2, 0xEE), s_lo, s_hi, q_lo, q_hi);
      moments_step(_mm256_shuffle_ps(t1, t3, 0x44), s_lo, s_hi, q_lo, q_hi);
      moments_step(_mm256_shuffle_ps(t1, t3, 0xEE), s_lo, s_hi, q_lo, q_hi);
    }
    for (; i < hw; ++i)
      moments_step(_mm256_set_ps(p[7 * hw + i], p[6 * hw + i], p[5 * hw + i],
                                 p[4 * hw + i], p[3 * hw + i], p[2 * hw + i],
                                 p[hw + i], p[i]),
                   s_lo, s_hi, q_lo, q_hi);
  }
  _mm256_storeu_pd(sum, s_lo);
  _mm256_storeu_pd(sum + 4, s_hi);
  _mm256_storeu_pd(sq, q_lo);
  _mm256_storeu_pd(sq + 4, q_hi);
}

}  // namespace rrp::nn::kernels

#endif  // RRP_HAVE_AVX2
