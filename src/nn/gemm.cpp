#include "nn/gemm.h"

#include <algorithm>

#include "nn/gemm_kernels.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp::nn {

namespace {

// Shared entry bookkeeping for the three variants: one span carrying the
// FMA count, plus the process-wide op counters.  Counter totals are
// commutative adds, so they stay byte-exact when GEMMs run inside pool
// chunks; the span is suppressed there (util/trace.h).
struct GemmScope {
  GemmScope(const char* name, std::int64_t m, std::int64_t n, std::int64_t k)
      : span(name) {
    static metrics::Counter& calls = metrics::counter("gemm.calls");
    static metrics::Counter& flops = metrics::counter("gemm.flops");
    const std::int64_t fma = m * n * k;
    calls.add(1);
    flops.add(fma);
    span.add_items(fma);
  }
  trace::Span span;
};

// Minimum FMAs per parallel chunk: below this the dispatch overhead beats
// the win.  Row-block grain is derived from it so small GEMMs stay on the
// calling thread while detnet-shaped ones fan out.  The grain is rounded up
// to a whole number of register tiles so a chunk never splits one.
constexpr std::int64_t kMinFlopsPerChunk = 1 << 15;

std::int64_t row_grain(std::int64_t n, std::int64_t k) {
  const std::int64_t flops_per_row = std::max<std::int64_t>(1, n * k);
  const std::int64_t rows = kMinFlopsPerChunk / flops_per_row;
  const std::int64_t tiles =
      std::max<std::int64_t>(1, (rows + kernels::kTileRows - 1) /
                                    kernels::kTileRows);
  return tiles * kernels::kTileRows;
}

// Rows [i_begin, i_end) of the B-transposed kernel; rows are fully
// independent dot-product sweeps.  Stays scalar in every RRP_SIMD
// configuration: its contract accumulates each dot product in DOUBLE and
// rounds once, which a j-lane float vectorization cannot reproduce.
void gemm_bt_rows(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                  std::int64_t k, float alpha, const float* a,
                  std::int64_t lda, const float* b, std::int64_t ldb,
                  float beta, float* c, std::int64_t ldc) {
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;  // B is [N, K]
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(arow[kk]) * brow[kk];
      crow[j] = alpha * static_cast<float>(acc) +
                (beta == 0.0f ? 0.0f : beta * crow[j]);
    }
  }
}

// Everything a GEMM row chunk reads: the parallel_for bodies capture one
// pointer to it, so their std::function stays in the small-object buffer
// (a by-reference capture of every argument would heap-allocate per call).
struct GemmArgs {
  kernels::GemmRowsFn rows;  // nullptr: gemm_bt_rows
  std::int64_t n, k;
  float alpha;
  const float* a;
  std::int64_t lda;
  const float* b;
  std::int64_t ldb;
  float beta;
  float* c;
  std::int64_t ldc;
};

// What a conv_gemm row chunk reads, behind one captured pointer.
struct ConvArgs {
  kernels::ConvRowsFn rows;
  const ConvGemm* g;
};

}  // namespace

// rrp-frame-path: row-major GEMM entry point.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc) {
  GemmScope scope("gemm", m, n, k);
  // Row-range micro-kernel selected once by the RRP_SIMD configuration;
  // every variant is bit-identical (nn/gemm_kernels.h), so the choice is
  // invisible to traces, goldens and bench baselines.
  const GemmArgs args{kernels::active_gemm_rows(), n, k, alpha, a, lda, b,
                      ldb, beta, c, ldc};
  parallel_for(0, m, row_grain(n, k),
               [g = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::GemmRowsFn rows = g->rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated gemm_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, g->n, g->k, g->alpha, g->a, g->lda, g->b,
                      g->ldb, g->beta, g->c, g->ldc);
               });
}

// rrp-frame-path: A-transposed variant of the per-frame GEMM.
void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  GemmScope scope("gemm_at", m, n, k);
  const GemmArgs args{kernels::active_gemm_at_rows(), n, k, alpha, a, lda, b,
                      ldb, beta, c, ldc};
  parallel_for(0, m, row_grain(n, k),
               [g = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::GemmRowsFn rows = g->rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated gemm_at_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, g->n, g->k, g->alpha, g->a, g->lda, g->b,
                      g->ldb, g->beta, g->c, g->ldc);
               });
}

// rrp-frame-path: B-transposed variant of the per-frame GEMM.
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc) {
  GemmScope scope("gemm_bt", m, n, k);
  const GemmArgs args{nullptr, n, k, alpha, a, lda, b, ldb, beta, c, ldc};
  parallel_for(0, m, row_grain(n, k),
               [g = &args](std::int64_t i_begin, std::int64_t i_end) {
                 gemm_bt_rows(i_begin, i_end, g->n, g->k, g->alpha, g->a,
                              g->lda, g->b, g->ldb, g->beta, g->c, g->ldc);
               });
}

// rrp-frame-path: every per-frame conv lands here (Conv2D eval forward).
void conv_gemm(std::int64_t m, const ConvGemm& g) {
  const std::int64_t n = static_cast<std::int64_t>(g.oh) * g.ow;
  const std::int64_t k = static_cast<std::int64_t>(g.cin) * g.kernel *
                         g.kernel;
  GemmScope scope("gemm", m, n, k);
  const ConvArgs args{kernels::active_conv_rows(), &g};
  parallel_for(0, m, row_grain(n, k),
               [c = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::ConvRowsFn rows = c->rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated conv_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, *c->g);
               });
}

}  // namespace rrp::nn
