// gemm_kernels.h — row-range GEMM micro-kernels behind nn/gemm.cpp.
//
// Three interchangeable implementations of one row-range contract:
//
//   * reference — the original scalar tile loops (the bit-exactness
//     oracle every other variant is tested against);
//   * blocked   — register-tiled, cache-blocked portable C++ (a 4 x 16
//     accumulator tile lives in a local array the compiler keeps in
//     registers / baseline vector lanes);
//   * avx2      — hand-vectorized: a 2-row x 32-column tile in 8 ymm
//     accumulators (each B vector load feeds both rows), K blocked at 256,
//     column tails 8-wide then scalar.  Only compiled when the toolchain
//     accepts -mavx2 and only selected at runtime on hardware that
//     reports AVX2.
//
// All variants produce BIT-IDENTICAL output: every C element accumulates
// its k-terms in ascending-k order, one rounded multiply then one rounded
// add per term (never FMA-contracted — the AVX2 translation unit is built
// without FMA codegen), and a zero alpha*A value skips its add for that
// (row, k) alone, in every variant and every tile row.
// Variant choice, tile shape and row partition are therefore invisible in
// the result (DESIGN.md invariant 13), which keeps golden traces and
// bench baselines independent of the RRP_SIMD build configuration.
//
// Each variant also has an implicit-GEMM conv row function (ConvRowsFn,
// nn/gemm.h ConvGemm) under the same contract: it reads B from the padded
// input instead of an im2col buffer, and applies the conv epilogue as it
// stores each tile.  It walks the conv's live-row list and, in the blocked
// and avx2 tiles, only its live input channels; the scalar reference
// walks every channel of the listed rows, so it stays the oracle for the
// channel skip.
//
// count_nonzero (the effective-MAC weight count) has a reference and an
// avx2 variant.  A count is exact integer arithmetic, so they agree on
// every input, NaN, Inf and denormal bits included.
//
// channel_moments (BatchNorm's batch statistics) has a reference and an
// avx2 variant too.  Each of its kMomentLanes channels keeps one double
// sum and one double sum of squares, adding its values in (sample, pixel)
// order: a float widens to double exactly and its square is exact in
// double, so each chain equals the one-channel loop bit for bit in any
// variant.  The lanes run across channels: the reference lets the
// compiler vectorize its 8-channel step, the avx2 one loads 4 pixels of
// each channel and transposes them into one 8-channel vector per pixel.
//
// Each variant also has a gemm_bt row function (GemmBtRowsFn, C = A*B^T,
// B [N, K]) under gemm_bt's own contract (nn/gemm.h): every C element is
// one double dot product, k ascending, no zero-skip, rounded once in the
// store (bt_store: alpha, beta, then an optional bias and ReLU).  A
// float x float product is exact in double, so one double lane per
// output column reproduces the scalar loop bit for bit: the blocked rows
// keep 8 per-column double accumulators, the avx2 rows a 2-row x 8-column
// tile whose B rows are widened and transposed 4 k at a time.  NaN bits
// match too: a dot product that comes out NaN is settled by the scalar
// rule of bt_settle, and the store takes the first NaN operand of each
// multiply and add (nan_first_*).
//
// The -DRRP_SIMD CMake option picks which variant the active_* dispatch
// returns (OFF -> reference, ON -> avx2 when usable, else blocked); every
// compiled-in variant stays callable so tests can compare them directly
// within one build.
#pragma once

#include <algorithm>
#include <cstdint>

#include "nn/gemm.h"
#include "util/cpu.h"

namespace rrp::nn::kernels {

/// Rows [i_begin, i_end) of C = alpha*A*B + beta*C (row-major, A [M,K]).
using GemmRowsFn = void (*)(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc);

/// Rows [i_begin, i_end) of C = alpha*A*B^T + beta*C (A [M,K], B [N,K]),
/// each element stored through bt_store with `bias` (nullptr: none) and
/// `relu`.
using GemmBtRowsFn = void (*)(std::int64_t i_begin, std::int64_t i_end,
                              std::int64_t n, std::int64_t k, float alpha,
                              const float* a, std::int64_t lda,
                              const float* b, std::int64_t ldb, float beta,
                              float* c, std::int64_t ldc, const float* bias,
                              bool relu);

/// Count of the n floats at x that are not ±0 (nn::count_nonzero).
using CountNonzeroFn = std::int64_t (*)(const float* x, std::int64_t n);
/// Channels one channel_moments call covers.
inline constexpr int kMomentLanes = 8;
/// Sum and sum of squares, in double, of kMomentLanes channels over `n`
/// samples of `hw` pixels: channel l of sample s is the plane at
/// x + s * sample_stride + l * hw.  Writes sum[l] and sq[l].
using ChannelMomentsFn = void (*)(const float* x, std::int64_t n,
                                  std::int64_t sample_stride, std::int64_t hw,
                                  double* sum, double* sq);

/// The rows at positions [t_begin, t_end) of the live-row list of the
/// implicit-GEMM conv `g` (t_end <= g.live_rows).
using ConvRowsFn = void (*)(std::int64_t t_begin, std::int64_t t_end,
                            const ConvGemm& g);

/// Offset of output column j in the padded plane: (oi * wp + oj) * stride.
inline std::int64_t conv_col_offset(const ConvGemm& g, std::int64_t j) {
  return (j / g.ow * g.wp + j % g.ow) * g.stride;
}

/// The epilogue of row i on one accumulated value (the scalar form every
/// variant's vector store must match).
inline float conv_epilogue(const ConvGemm& g, std::int64_t i, float v) {
  if (g.bias != nullptr) v = v + g.bias[i];
  if (g.scale != nullptr) v = v * g.scale[i] + g.shift[i];
  if (g.relu) v = std::max(v, 0.0f);
  return v;
}

// Where both operands of a multiply or an add are NaN, x86 returns the
// first operand's NaN.  The compiler may swap the operands of a
// commutative op, so gemm_bt spells the rule out: these return x's NaN
// whenever x is NaN, and y's (or the op's own) otherwise — the same bits
// whatever order an instruction takes them in.
template <typename T>
inline T nan_first_mul(T x, T y) {
  return x != x ? x : x * y;
}
template <typename T>
inline T nan_first_add(T x, T y) {
  return x != x ? x : x + y;
}

/// The gemm_bt dot product of a[0..k) and b[0..k) given `fast`, the same
/// chain computed with plain operations.  NaN + x and NaN * x are NaN,
/// so a non-NaN `fast` saw no NaN and no operand order could change it.
/// A NaN one is recomputed taking the first NaN operand of each multiply
/// (A's before B's) and add (the accumulator's before the product's).
inline double bt_settle(double fast, const float* a, const float* b,
                        std::int64_t k) {
  if (fast == fast) return fast;
  double acc = 0.0;
  for (std::int64_t kk = 0; kk < k; ++kk)
    acc = nan_first_add(acc, nan_first_mul(static_cast<double>(a[kk]),
                                           static_cast<double>(b[kk])));
  return acc;
}

/// gemm_bt's store of the dot product `acc` into *c, column j (the scalar
/// form every variant's store must match): alpha * float(acc) +
/// (beta == 0 ? 0 : beta * *c), then + bias[j] when `bias` is given, then
/// std::max(v, 0.0f) when `relu`.  *c is read only when beta != 0.
inline float bt_store(double acc, float alpha, float beta, const float* c,
                      const float* bias, std::int64_t j, bool relu) {
  float v = nan_first_add(nan_first_mul(alpha, static_cast<float>(acc)),
                          beta == 0.0f ? 0.0f : nan_first_mul(beta, *c));
  if (bias != nullptr) v = nan_first_add(v, bias[j]);
  if (relu) v = std::max(v, 0.0f);
  return v;
}

// --- reference (scalar oracle; always available) ---------------------------
void gemm_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                         std::int64_t n, std::int64_t k, float alpha,
                         const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, float beta, float* c,
                         std::int64_t ldc);
void gemm_at_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc);
void gemm_bt_rows_reference(std::int64_t i_begin, std::int64_t i_end,
                            std::int64_t n, std::int64_t k, float alpha,
                            const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float beta, float* c,
                            std::int64_t ldc, const float* bias, bool relu);
void conv_rows_reference(std::int64_t t_begin, std::int64_t t_end,
                         const ConvGemm& g);
std::int64_t count_nonzero_reference(const float* x, std::int64_t n);
void channel_moments_reference(const float* x, std::int64_t n,
                               std::int64_t sample_stride, std::int64_t hw,
                               double* sum, double* sq);

// --- blocked (register-tiled portable; always available) -------------------
void gemm_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc);
void gemm_at_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc);
void gemm_bt_rows_blocked(std::int64_t i_begin, std::int64_t i_end,
                          std::int64_t n, std::int64_t k, float alpha,
                          const float* a, std::int64_t lda, const float* b,
                          std::int64_t ldb, float beta, float* c,
                          std::int64_t ldc, const float* bias, bool relu);
void conv_rows_blocked(std::int64_t t_begin, std::int64_t t_end,
                       const ConvGemm& g);

// --- avx2 (hand-vectorized; present only when the toolchain has -mavx2) ----
#if defined(RRP_HAVE_AVX2)
void gemm_rows_avx2(std::int64_t i_begin, std::int64_t i_end, std::int64_t n,
                    std::int64_t k, float alpha, const float* a,
                    std::int64_t lda, const float* b, std::int64_t ldb,
                    float beta, float* c, std::int64_t ldc);
void gemm_at_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc);
void gemm_bt_rows_avx2(std::int64_t i_begin, std::int64_t i_end,
                       std::int64_t n, std::int64_t k, float alpha,
                       const float* a, std::int64_t lda, const float* b,
                       std::int64_t ldb, float beta, float* c,
                       std::int64_t ldc, const float* bias, bool relu);
void conv_rows_avx2(std::int64_t t_begin, std::int64_t t_end,
                    const ConvGemm& g);
std::int64_t count_nonzero_avx2(const float* x, std::int64_t n);
void channel_moments_avx2(const float* x, std::int64_t n,
                          std::int64_t sample_stride, std::int64_t hw,
                          double* sum, double* sq);
#endif

/// Height of the tallest register tile of any variant (blocked: 4 rows,
/// avx2: 2).  nn/gemm.cpp hands the kernels row chunks that are a multiple
/// of it, so no chunk boundary splits a tile.
inline constexpr std::int64_t kTileRows = 4;

/// True when the AVX2 kernels are compiled in AND the CPU supports AVX2.
using rrp::avx2_usable;

/// The kernels the RRP_SIMD build configuration selects (resolved once per
/// process; the choice never changes after the first call).
GemmRowsFn active_gemm_rows();
GemmRowsFn active_gemm_at_rows();
GemmBtRowsFn active_gemm_bt_rows();
ConvRowsFn active_conv_rows();
/// count_nonzero has no blocked variant: the reference loop is already
/// the one the compiler vectorizes, so RRP_SIMD picks avx2 or reference.
CountNonzeroFn active_count_nonzero();
/// Likewise avx2 or reference.
ChannelMomentsFn active_channel_moments();

/// "scalar" (RRP_SIMD=OFF), "blocked" or "avx2" — for bench report configs
/// and diagnostics.
const char* active_variant();

}  // namespace rrp::nn::kernels
