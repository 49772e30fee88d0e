// gemm.h — single-precision matrix multiply kernels.
//
// All heavy layers (Conv2D as an implicit GEMM, Linear) lower to these
// routines, so the engine's latency-vs-pruning behaviour is concentrated in
// one place that the platform model can reason about (cost ∝ M·N·K).
//
// Threading: every variant parallelizes over disjoint blocks of C rows on
// the process-wide ThreadPool (util/thread_pool.h).  Each row of C is
// computed with exactly the same per-element accumulation order as the
// serial engine regardless of the thread count, so results are bit-exact
// and independent of RRP_THREADS (DESIGN.md §2, "Threading").
//
// Accumulation contract (intentional, relied on by tests/test_gemm.cpp):
//   * `gemm` and `gemm_at` accumulate C in float, adding scaled A-values
//     into the output row in k-ascending order (one rounded multiply, then
//     one rounded add per term — never FMA-contracted).
//   * `gemm_bt` accumulates each dot product in double, k ascending, then
//     rounds once to float.  The double accumulator buys precision for the
//     gradient (dW += g · colᵀ) reductions among its call sites.  A float x
//     float product is exact in double, so a vectorization with one double
//     lane per output column j — each lane its column's own k-ascending
//     chain — reproduces the scalar loop bit for bit; every gemm_bt variant
//     does (nn/gemm_kernels.h).  There is no zero-skip: a NaN or Inf in B
//     reaches C even where A is 0.  Where two NaNs meet in a multiply or
//     an add, the first operand's propagates (A's before B's, the
//     accumulator's before the product's): x86's rule, written out
//     (kernels::bt_settle) so no compiler's operand order changes a NaN's
//     bits.
// Consequently gemm/gemm_at and gemm_bt agree only to float rounding
// tolerance (~1e-4 relative for the sizes used here), never bitwise;
// cross-routine consistency is covered by tolerance-bounded tests, while
// bit-exactness guarantees apply per routine across kernel variants and
// thread counts.
#pragma once

#include <cstdint>

namespace rrp::nn {

/// C[M,N] = alpha * A[M,K] * B[K,N] + beta * C[M,N]   (row-major, no trans)
void gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
          const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
          float beta, float* c, std::int64_t ldc);

/// C[M,N] = alpha * A^T (A is [K,M]) * B[K,N] + beta * C  (row-major)
void gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc);

/// C[M,N] = alpha * A[M,K] * B^T (B is [N,K]) + beta * C  (row-major),
/// then, in the same store, + bias[j] when `bias` is given ([N]) and
/// std::max(v, 0.0f) when `relu` (Linear's bias and a fused ReLU).
void gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
             const float* a, std::int64_t lda, const float* b,
             std::int64_t ldb, float beta, float* c, std::int64_t ldc,
             const float* bias = nullptr, bool relu = false);

/// One sample of a convolution as an implicit GEMM, C = epilogue(A * B):
///   * A is the weight [M, K], K = cin * kernel * kernel, row stride lda;
///   * B [K, N], N = oh * ow, is never materialized: B(kk = (c, ki, kj),
///     j = (oi, oj)) is read from the zero-padded input `xp` [cin, hp, wp]
///     at xp[c*hp*wp + ki*wp + kj + (oi*wp + oj) * stride];
///   * every stored element of row i is epilogue(acc) =
///     max(0, (acc + bias[i]) * scale[i] + shift[i]), where a null `bias`
///     or `scale` drops its term (`shift` goes with `scale`) and `relu`
///     false drops the max, which is std::max(v, 0.0f).
/// It accumulates like gemm with alpha = 1 and beta = 0, so it equals
/// im2col + gemm + the epilogue's separate passes bit for bit.
///
/// Liveness (conv_liveness, once per call from the weights as they are):
/// a row is live when any of its weights is not ±0, an input channel when
/// any live row has a weight in it that is not ±0 (NaN and Inf are live).
/// The tiles walk only the live rows and, inside them, only the live
/// channels; every term they drop has a ±0 weight, which the per-(row, k)
/// zero-skip already drops, so a dead row's accumulator stays +0 and its
/// plane is stored as epilogue(+0).  The live channels come as runs of
/// consecutive channels, so a tile walks each run's K range the way it
/// walks a dense conv's (a dense conv has one run, [0, cin)).  The lists
/// are float arrays holding exact integer indices (they live in a plan's
/// float scratch).
struct ConvGemm {
  const float* a = nullptr;
  std::int64_t lda = 0;
  const float* xp = nullptr;
  int cin = 0, kernel = 0, stride = 1;
  int hp = 0, wp = 0;  ///< padded plane extents
  int oh = 0, ow = 0;  ///< output plane extents
  const float* bias = nullptr;
  const float* scale = nullptr;
  const float* shift = nullptr;
  bool relu = false;
  float* c = nullptr;
  std::int64_t ldc = 0;
  /// The M rows, live ones first (ascending), then the dead ones.
  const float* rows = nullptr;
  std::int64_t live_rows = 0;
  /// The live input channels as `chan_runs` runs [chans[2q], chans[2q+1])
  /// of consecutive channels, ascending; `live_chans` counts them.
  const float* chans = nullptr;
  int chan_runs = 0;
  int live_chans = 0;
};

/// Entry t of a ConvGemm row or channel list.
inline std::int64_t conv_index(const float* list, std::int64_t t) {
  return static_cast<std::int64_t>(list[t]);
}

/// Finds the live rows of the m-row weight g.a and the live input
/// channels, writes them to `rows` (m floats) and `chans` (g.cin + 1
/// floats: runs are separated by a dead channel, so there are at most
/// (cin + 1) / 2) and points g at them.  Each scan stops at its first
/// nonzero weight, so a dense conv pays O(m + cin).
void conv_liveness(std::int64_t m, ConvGemm& g, float* rows, float* chans);

/// Every row of the m-row conv `g`: the live ones on the pool, the dead
/// ones stored as epilogue(+0), with gemm's bookkeeping: one "gemm" span
/// and the gemm.calls / gemm.flops counters (dense M·N·K FMAs).
void conv_gemm(std::int64_t m, const ConvGemm& g);

}  // namespace rrp::nn
