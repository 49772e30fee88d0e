#include "nn/gemm_kernels.h"

#include <algorithm>
#include <cstring>

namespace rrp::nn::kernels {

namespace {

// Cache-blocking tile sizes; modest because models here are small.  The
// bit-exactness argument never depends on them (each C element's k-terms
// are added in ascending order no matter how the tiles cut the loops), so
// the variants are free to tile differently.
constexpr std::int64_t kTileM = 64;
constexpr std::int64_t kTileN = 64;
constexpr std::int64_t kTileK = 64;

// Register tile of the blocked kernels: kRegM C-rows x kRegN C-columns
// accumulate in a local array across one k-tile before being stored back.
// A float's round trip through the array is exact, so the store/reload at
// k-tile boundaries is invisible in the result.
constexpr std::int64_t kRegM = 4;
constexpr std::int64_t kRegN = 16;
static_assert(kTileRows % kRegM == 0);

// Columns of C (rows of B) one blocked gemm_bt step accumulates at once.
constexpr std::int64_t kBtLanes = 8;

void scale_rows(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    float* crow = c + i * ldc;
    if (beta == 0.0f) std::fill(crow, crow + n, 0.0f);
    else if (beta != 1.0f)
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// reference — the original scalar loops from nn/gemm.cpp, kept verbatim as
// the oracle the optimized variants are compared against bit-for-bit.
// ---------------------------------------------------------------------------

// rrp-frame-path: scalar reference micro-kernel (the bit-exactness oracle).
void gemm_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                         std::int64_t n, std::int64_t k, float alpha,
                         const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, float beta, float* c,
                         std::int64_t ldc) {
  // Scale C by beta first so the accumulation loop is pure multiply-add.
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  for (std::int64_t i0 = i_begin; i0 < i_end; i0 += kTileM) {
    const std::int64_t imax = std::min(i0 + kTileM, i_end);
    for (std::int64_t k0 = 0; k0 < k; k0 += kTileK) {
      const std::int64_t kmax = std::min(k0 + kTileK, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const std::int64_t jmax = std::min(j0 + kTileN, n);
        for (std::int64_t i = i0; i < imax; ++i) {
          const float* arow = a + i * lda;
          float* crow = c + i * ldc;
          for (std::int64_t kk = k0; kk < kmax; ++kk) {
            const float av = alpha * arow[kk];
            if (av == 0.0f) continue;  // pruned weights short-circuit
            const float* brow = b + kk * ldb;
            for (std::int64_t j = j0; j < jmax; ++j) crow[j] += av * brow[j];
          }
        }
      }
    }
  }
}

// rrp-frame-path: scalar reference micro-kernel, A-transposed.
void gemm_at_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  // A is [K, M]; traverse K-major so both A and B rows stream.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * lda;
    const float* brow = b + kk * ldb;
    for (std::int64_t i = i_begin; i < i_end; ++i) {
      const float av = alpha * arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * ldc;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// rrp-frame-path: scalar B-transposed rows (the gemm_bt oracle): one
// double dot product per C element, k ascending, rounded once in the store.
void gemm_bt_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc, const float* bias, bool relu) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;  // B is [N, K]
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) * brow[kk];
      crow[j] = bt_store(bt_settle(acc, arow, brow, k), alpha, beta, crow + j,
                         bias, j, relu);
    }
  }
}

// rrp-frame-path: scalar implicit-GEMM conv rows (the conv oracle).  It
// walks the listed rows over EVERY input channel, so tests comparing the
// tiles against it prove the live-channel skip exact.
void conv_rows_reference(std::int64_t t_begin, std::int64_t t_end,
                         const ConvGemm& g) {
  const std::int64_t n = static_cast<std::int64_t>(g.oh) * g.ow;
  const std::int64_t plane = static_cast<std::int64_t>(g.hp) * g.wp;
  for (std::int64_t t = t_begin; t < t_end; ++t) {
    const std::int64_t i = conv_index(g.rows, t);
    const float* arow = g.a + i * g.lda;
    float* crow = g.c + i * g.ldc;
    std::fill(crow, crow + n, 0.0f);
    std::int64_t kk = 0;
    for (int c = 0; c < g.cin; ++c)
      for (int ki = 0; ki < g.kernel; ++ki)
        for (int kj = 0; kj < g.kernel; ++kj, ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;  // pruned weights short-circuit
          const float* brow = g.xp + c * plane + ki * g.wp + kj;
          for (std::int64_t j = 0; j < n; ++j)
            crow[j] += av * brow[conv_col_offset(g, j)];
        }
    for (std::int64_t j = 0; j < n; ++j) crow[j] = conv_epilogue(g, i, crow[j]);
  }
}

// ---------------------------------------------------------------------------
// blocked — register-tiled portable micro-kernels.  The accumulator tile
// acc[kRegM][kRegN] stays in registers (or baseline vector lanes) across a
// whole k-tile, so C is loaded and stored once per tile instead of once
// per k-step; the per-element arithmetic sequence is unchanged.
// ---------------------------------------------------------------------------

namespace {

void micro_tile(std::int64_t i, std::int64_t ri, std::int64_t j,
                std::int64_t jn, std::int64_t k0, std::int64_t kmax,
                float alpha, const float* a, std::int64_t lda, const float* b,
                std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[kRegM][kRegN];
  for (std::int64_t r = 0; r < ri; ++r)
    for (std::int64_t jj = 0; jj < jn; ++jj)
      acc[r][jj] = c[(i + r) * ldc + j + jj];
  for (std::int64_t kk = k0; kk < kmax; ++kk) {
    const float* brow = b + kk * ldb + j;
    for (std::int64_t r = 0; r < ri; ++r) {
      const float av = alpha * a[(i + r) * lda + kk];
      if (av == 0.0f) continue;  // pruned weights short-circuit
      for (std::int64_t jj = 0; jj < jn; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (std::int64_t r = 0; r < ri; ++r)
    for (std::int64_t jj = 0; jj < jn; ++jj)
      c[(i + r) * ldc + j + jj] = acc[r][jj];
}

// Same register tile for the A-transposed layout (A is [K, M]); only the
// A-element addressing differs.
void micro_tile_at(std::int64_t i, std::int64_t ri, std::int64_t j,
                   std::int64_t jn, std::int64_t k, float alpha,
                   const float* a, std::int64_t lda, const float* b,
                   std::int64_t ldb, float* c, std::int64_t ldc) {
  float acc[kRegM][kRegN];
  for (std::int64_t r = 0; r < ri; ++r)
    for (std::int64_t jj = 0; jj < jn; ++jj)
      acc[r][jj] = c[(i + r) * ldc + j + jj];
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float* arow = a + kk * lda;
    const float* brow = b + kk * ldb + j;
    for (std::int64_t r = 0; r < ri; ++r) {
      const float av = alpha * arow[i + r];
      if (av == 0.0f) continue;
      for (std::int64_t jj = 0; jj < jn; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (std::int64_t r = 0; r < ri; ++r)
    for (std::int64_t jj = 0; jj < jn; ++jj)
      c[(i + r) * ldc + j + jj] = acc[r][jj];
}

// The blocked register tile for the implicit-GEMM conv: the ri listed
// rows `row` x columns [j, j+jn) over the live channel runs' K, B read
// through per-column offsets.
void conv_micro_tile(const ConvGemm& g, const std::int64_t* row,
                     std::int64_t ri, std::int64_t j, std::int64_t jn) {
  float acc[kRegM][kRegN] = {};
  std::int64_t col[kRegN];
  for (std::int64_t jj = 0; jj < jn; ++jj) col[jj] = conv_col_offset(g, j + jj);
  const std::int64_t plane = static_cast<std::int64_t>(g.hp) * g.wp;
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  for (int q = 0; q < g.chan_runs; ++q) {
    const std::int64_t c_end = conv_index(g.chans, 2 * q + 1);
    std::int64_t c = conv_index(g.chans, 2 * q);
    std::int64_t kk = c * taps;
    for (; c < c_end; ++c)
      for (int ki = 0; ki < g.kernel; ++ki)
        for (int kj = 0; kj < g.kernel; ++kj, ++kk) {
          const float* brow = g.xp + c * plane + ki * g.wp + kj;
          for (std::int64_t r = 0; r < ri; ++r) {
            const float av = g.a[row[r] * g.lda + kk];
            if (av == 0.0f) continue;  // pruned weights short-circuit
            for (std::int64_t jj = 0; jj < jn; ++jj)
              acc[r][jj] += av * brow[col[jj]];
          }
        }
  }
  for (std::int64_t r = 0; r < ri; ++r)
    for (std::int64_t jj = 0; jj < jn; ++jj)
      g.c[row[r] * g.ldc + j + jj] = conv_epilogue(g, row[r], acc[r][jj]);
}

}  // namespace

// rrp-frame-path: register-tiled cache-blocked micro-kernel.
void gemm_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  for (std::int64_t i0 = i_begin; i0 < i_end; i0 += kTileM) {
    const std::int64_t imax = std::min(i0 + kTileM, i_end);
    for (std::int64_t k0 = 0; k0 < k; k0 += kTileK) {
      const std::int64_t kmax = std::min(k0 + kTileK, k);
      for (std::int64_t j0 = 0; j0 < n; j0 += kTileN) {
        const std::int64_t jmax = std::min(j0 + kTileN, n);
        for (std::int64_t i = i0; i < imax; i += kRegM) {
          const std::int64_t ri = std::min(kRegM, imax - i);
          for (std::int64_t j = j0; j < jmax; j += kRegN) {
            const std::int64_t jn = std::min(kRegN, jmax - j);
            micro_tile(i, ri, j, jn, k0, kmax, alpha, a, lda, b, ldb, c,
                       ldc);
          }
        }
      }
    }
  }
}

// rrp-frame-path: register-tiled cache-blocked micro-kernel, A-transposed.
void gemm_at_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc) {
  scale_rows(i_begin, i_end, n, beta, c, ldc);
  // Register tile across the FULL k extent (no k-tiling: A is walked
  // column-wise here, so the win is keeping C resident, not A reuse).
  for (std::int64_t i = i_begin; i < i_end; i += kRegM) {
    const std::int64_t ri = std::min(kRegM, i_end - i);
    for (std::int64_t j = 0; j < n; j += kRegN) {
      const std::int64_t jn = std::min(kRegN, n - j);
      micro_tile_at(i, ri, j, jn, k, alpha, a, lda, b, ldb, c, ldc);
    }
  }
}

// rrp-frame-path: B-transposed rows with kBtLanes independent per-column
// double accumulators, each its column's k-ascending chain (the scalar
// dot product is one latency-bound chain); the column tail is the
// reference loop.
void gemm_bt_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc, const float* bias, bool relu) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    std::int64_t j = 0;
    for (; j + kBtLanes <= n; j += kBtLanes) {
      const float* bblock = b + j * ldb;
      double acc[kBtLanes] = {};
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const double av = arow[kk];
        for (std::int64_t l = 0; l < kBtLanes; ++l)
          acc[l] += av * bblock[l * ldb + kk];
      }
      for (std::int64_t l = 0; l < kBtLanes; ++l)
        crow[j + l] = bt_store(bt_settle(acc[l], arow, bblock + l * ldb, k),
                               alpha, beta, crow + j + l, bias, j + l, relu);
    }
    if (j < n)
      gemm_bt_rows_reference(0, 1, n - j, k, alpha, arow, lda, b + j * ldb,
                             ldb, beta, crow + j, ldc,
                             bias != nullptr ? bias + j : nullptr, relu);
  }
}

// rrp-frame-path: register-tiled implicit-GEMM conv rows.
void conv_rows_blocked(std::int64_t t_begin, std::int64_t t_end,
                       const ConvGemm& g) {
  const std::int64_t n = static_cast<std::int64_t>(g.oh) * g.ow;
  for (std::int64_t t = t_begin; t < t_end; t += kRegM) {
    const std::int64_t ri = std::min(kRegM, t_end - t);
    std::int64_t row[kRegM];
    for (std::int64_t r = 0; r < ri; ++r) row[r] = conv_index(g.rows, t + r);
    for (std::int64_t j = 0; j < n; j += kRegN)
      conv_micro_tile(g, row, ri, j, std::min(kRegN, n - j));
  }
}

// The channel_moments oracle: kMomentLanes independent double chains per
// pixel, which the compiler runs in baseline vector lanes.
void channel_moments_reference(const float* x, std::int64_t n,
                               std::int64_t sample_stride, std::int64_t hw,
                               double* sum, double* sq) {
  double s[kMomentLanes] = {}, q[kMomentLanes] = {};
  for (std::int64_t smp = 0; smp < n; ++smp) {
    const float* base = x + smp * sample_stride;
    for (std::int64_t i = 0; i < hw; ++i) {
      for (int l = 0; l < kMomentLanes; ++l) {
        const double e = base[l * hw + i];
        s[l] += e;
        q[l] += e * e;
      }
    }
  }
  std::copy(s, s + kMomentLanes, sum);
  std::copy(q, q + kMomentLanes, sq);
}

// rrp-frame-path: scalar nonzero count (the count_nonzero oracle).
std::int64_t count_nonzero_reference(const float* x, std::int64_t n) {
  // Without its sign bit a ±0 is all zero bits and every other value is
  // not, so each float adds (magnitude != 0).  The per-block count is
  // 32-bit so the compiler keeps it in full vector lanes.
  constexpr std::int64_t kBlock = 1024;
  constexpr std::uint32_t kMagnitude = 0x7fffffffu;
  std::int64_t total = 0;
  for (std::int64_t i = 0; i < n; i += kBlock) {
    const std::int64_t end = std::min(n, i + kBlock);
    std::uint32_t count = 0;
    for (std::int64_t t = i; t < end; ++t) {
      std::uint32_t bits = 0;
      std::memcpy(&bits, x + t, sizeof bits);
      count += (bits & kMagnitude) != 0 ? 1u : 0u;
    }
    total += count;
  }
  return total;
}

// ---------------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------------

GemmRowsFn active_gemm_rows() {
#if defined(RRP_SIMD)
#if defined(RRP_HAVE_AVX2)
  static const GemmRowsFn fn =
      avx2_usable() ? &gemm_rows_avx2 : &gemm_rows_blocked;
#else
  static const GemmRowsFn fn = &gemm_rows_blocked;
#endif
  return fn;
#else
  return &gemm_rows_reference;
#endif
}

GemmRowsFn active_gemm_at_rows() {
#if defined(RRP_SIMD)
#if defined(RRP_HAVE_AVX2)
  static const GemmRowsFn fn =
      avx2_usable() ? &gemm_at_rows_avx2 : &gemm_at_rows_blocked;
#else
  static const GemmRowsFn fn = &gemm_at_rows_blocked;
#endif
  return fn;
#else
  return &gemm_at_rows_reference;
#endif
}

GemmBtRowsFn active_gemm_bt_rows() {
#if defined(RRP_SIMD)
#if defined(RRP_HAVE_AVX2)
  static const GemmBtRowsFn fn =
      avx2_usable() ? &gemm_bt_rows_avx2 : &gemm_bt_rows_blocked;
#else
  static const GemmBtRowsFn fn = &gemm_bt_rows_blocked;
#endif
  return fn;
#else
  return &gemm_bt_rows_reference;
#endif
}

ConvRowsFn active_conv_rows() {
#if defined(RRP_SIMD)
#if defined(RRP_HAVE_AVX2)
  static const ConvRowsFn fn =
      avx2_usable() ? &conv_rows_avx2 : &conv_rows_blocked;
#else
  static const ConvRowsFn fn = &conv_rows_blocked;
#endif
  return fn;
#else
  return &conv_rows_reference;
#endif
}

ChannelMomentsFn active_channel_moments() {
#if defined(RRP_SIMD) && defined(RRP_HAVE_AVX2)
  static const ChannelMomentsFn fn =
      avx2_usable() ? &channel_moments_avx2 : &channel_moments_reference;
  return fn;
#else
  return &channel_moments_reference;
#endif
}

CountNonzeroFn active_count_nonzero() {
#if defined(RRP_SIMD) && defined(RRP_HAVE_AVX2)
  static const CountNonzeroFn fn =
      avx2_usable() ? &count_nonzero_avx2 : &count_nonzero_reference;
  return fn;
#else
  return &count_nonzero_reference;
#endif
}

const char* active_variant() {
#if defined(RRP_SIMD)
  return avx2_usable() ? "avx2" : "blocked";
#else
  return "scalar";
#endif
}

}  // namespace rrp::nn::kernels
