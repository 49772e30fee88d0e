#include "nn/gemm.h"

#include <algorithm>
#include <cstring>

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

// Everything a GEMM row chunk reads: the parallel_for bodies capture one
// pointer to it, so their std::function stays in the small-object buffer
// (a by-reference capture of every argument would heap-allocate per call).
struct GemmArgs {
  kernels::GemmRowsFn rows;       // gemm, gemm_at
  kernels::GemmBtRowsFn bt_rows;  // gemm_bt
  std::int64_t n, k;
  float alpha;
  const float* a;
  std::int64_t lda;
  const float* b;
  std::int64_t ldb;
  float beta;
  float* c;
  std::int64_t ldc;
  const float* bias;  // gemm_bt's store epilogue
  bool relu;
};

// What a conv_gemm row chunk reads, behind one captured pointer.
struct ConvArgs {
  kernels::ConvRowsFn rows;
  const ConvGemm* g;
};

// Sign bits of two floats in one 64-bit word: without them a ±0 is all
// zero bits.
constexpr std::uint64_t kMagnitude2 = 0x7fffffff7fffffffull;

// rrp-frame-path: the bits of the n floats at w OR-ed as 64-bit words (an
// odd last float in the low half), sign bits included.
[[gnu::always_inline]] inline std::uint64_t or_bits(const float* w,
                                                    std::int64_t n) {
  std::uint64_t any = 0;
  std::int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    std::uint64_t b = 0;
    std::memcpy(&b, w + i, sizeof b);
    any |= b;
  }
  if (i < n) {
    std::uint32_t b = 0;
    std::memcpy(&b, w + i, sizeof b);
    any |= b;
  }
  return any;
}

// rrp-frame-path: true when any of n weights is not ±0 (NaN and Inf are
// nonzero).  The first weight is tested alone, so a dense row costs one
// compare.  After it, blocks of 64 floats are OR-ed branch-free (the
// compiler vectorizes it) and the scan stops at the first block holding a
// nonzero.
bool any_nonzero(const float* w, std::int64_t n) {
  constexpr std::int64_t kBlock = 64;
  if (n > 0 && !(w[0] == 0.0f)) return true;
  std::int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock)
    if ((or_bits(w + i, kBlock) & kMagnitude2) != 0) return true;
  return (or_bits(w + i, n - i) & kMagnitude2) != 0;
}

// rrp-frame-path: true when any live row has a weight in input channel c
// that is not ±0.  Each row's taps are OR-ed in line and the scan stops at
// the first row holding a nonzero, so a dead channel costs one pass over
// its live-row weights and no call per row.  kTaps > 0 fixes the tap
// count at compile time (0: `taps`); a fixed 3x3 runs ~20% faster.
template <int kTaps>
bool channel_live(const ConvGemm& g, const float* rows, std::int64_t live,
                  int c, std::int64_t taps) {
  const std::int64_t n = kTaps > 0 ? kTaps : taps;
  const float* col = g.a + c * n;
  for (std::int64_t t = 0; t < live; ++t)
    if ((or_bits(col + conv_index(rows, t) * g.lda, n) & kMagnitude2) != 0)
      return true;
  return false;
}

}  // namespace

// rrp-frame-path: row-major GEMM entry point.
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc) {
  GemmScope scope("gemm", m, n, k);
  // Row-range micro-kernel selected once by the RRP_SIMD configuration;
  // every variant is bit-identical (nn/gemm_kernels.h), so the choice is
  // invisible to traces, goldens and bench baselines.
  const GemmArgs args{kernels::active_gemm_rows(), nullptr, n, k, alpha, a,
                      lda, b, ldb, beta, c, ldc, nullptr, false};
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
  const GemmArgs args{kernels::active_gemm_at_rows(), nullptr, n, k, alpha,
                      a, lda, b, ldb, beta, c, ldc, nullptr, false};
  parallel_for(0, m, row_grain(n, k),
               [g = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::GemmRowsFn rows = g->rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated gemm_at_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, g->n, g->k, g->alpha, g->a, g->lda, g->b,
                      g->ldb, g->beta, g->c, g->ldc);
               });
}

// rrp-frame-path: B-transposed GEMM — every eval Linear lands here.
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc,
             const float* bias, bool relu) {
  GemmScope scope("gemm_bt", m, n, k);
  const GemmArgs args{nullptr, kernels::active_gemm_bt_rows(), n, k, alpha,
                      a, lda, b, ldb, beta, c, ldc, bias, relu};
  parallel_for(0, m, row_grain(n, k),
               [g = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::GemmBtRowsFn rows = g->bt_rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated gemm_bt_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, g->n, g->k, g->alpha, g->a, g->lda, g->b,
                      g->ldb, g->beta, g->c, g->ldc, g->bias, g->relu);
               });
}

// rrp-frame-path: live rows and input channels of a conv, once per call.
void conv_liveness(std::int64_t m, ConvGemm& g, float* rows, float* chans) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  std::int64_t live = 0, dead = m;
  for (std::int64_t i = 0; i < m; ++i) {
    const bool on = any_nonzero(g.a + i * g.lda, g.cin * taps);
    rows[on ? live++ : --dead] = static_cast<float>(i);
  }
  int runs = 0, run_end = -1, live_chans = 0;
  for (int c = 0; c < g.cin; ++c) {
    const bool on = taps == 9 ? channel_live<9>(g, rows, live, c, taps)
                              : channel_live<0>(g, rows, live, c, taps);
    if (!on) continue;
    // A live channel right after the last run extends it.
    if (c != run_end) chans[2 * runs++] = static_cast<float>(c);
    run_end = c + 1;
    chans[2 * runs - 1] = static_cast<float>(run_end);
    ++live_chans;
  }
  g.rows = rows;
  g.live_rows = live;
  g.chans = chans;
  g.chan_runs = runs;
  g.live_chans = live_chans;
}

// rrp-frame-path: every per-frame conv lands here (Conv2D eval forward).
void conv_gemm(std::int64_t m, const ConvGemm& g) {
  const std::int64_t n = static_cast<std::int64_t>(g.oh) * g.ow;
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  GemmScope scope("gemm", m, n, g.cin * taps);
  for (std::int64_t t = g.live_rows; t < m; ++t) {
    const std::int64_t i = conv_index(g.rows, t);
    std::fill_n(g.c + i * g.ldc, n, kernels::conv_epilogue(g, i, 0.0f));
  }
  // The grain comes from the live work, as for the compacted twin.
  const ConvArgs args{kernels::active_conv_rows(), &g};
  parallel_for(0, g.live_rows, row_grain(n, g.live_chans * taps),
               [c = &args](std::int64_t i_begin, std::int64_t i_end) {
                 const kernels::ConvRowsFn rows = c->rows;
                 // rrp-lint-allow(frame-path-unresolved): 'rows' resolves at provision time to one of the annotated conv_rows_* variants in nn/gemm_kernels*.cpp, each certified.
                 rows(i_begin, i_end, *c->g);
               });
}

}  // namespace rrp::nn
