#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "test_support.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rrp::nn {
namespace {

using rrp::testing::float_bits;

// Naive reference: C = alpha*op(A)*op(B) + beta*C.
void ref_gemm(bool ta, bool tb, std::int64_t m, std::int64_t n, std::int64_t k,
              float alpha, const std::vector<float>& a,
              const std::vector<float>& b, float beta, std::vector<float>& c) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta ? a[kk * m + i] : a[i * k + kk];
        const float bv = tb ? b[j * k + kk] : b[kk * n + j];
        acc += static_cast<double>(av) * bv;
      }
      c[i * n + j] = alpha * static_cast<float>(acc) +
                     (beta == 0.0f ? 0.0f : beta * c[i * n + j]);
    }
}

std::vector<float> random_vec(std::size_t n, Rng& rng) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

using GemmShape = std::tuple<int, int, int>;

class GemmShapes : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmShapes, MatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + n * 101 + k));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> expected = c;

  gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  ref_gemm(false, false, m, n, k, 1.0f, a, b, 0.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << "at " << i;
}

TEST_P(GemmShapes, TransposedAMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 7 + n * 11 + k * 13));
  const auto a = random_vec(static_cast<std::size_t>(k) * m, rng);  // [K, M]
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> expected = c;

  gemm_at(m, n, k, 1.0f, a.data(), m, b.data(), n, 0.0f, c.data(), n);
  ref_gemm(true, false, m, n, k, 1.0f, a, b, 0.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << "at " << i;
}

TEST_P(GemmShapes, TransposedBMatchesReference) {
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 3 + n * 5 + k * 17));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(n) * k, rng);  // [N, K]
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> expected = c;

  gemm_bt(m, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f, c.data(), n);
  ref_gemm(false, true, m, n, k, 1.0f, a, b, 0.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expected[i], 1e-4f) << "at " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapes,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{1, 7, 3},
                      GemmShape{5, 1, 9}, GemmShape{4, 4, 4},
                      GemmShape{16, 16, 16}, GemmShape{33, 17, 65},
                      GemmShape{64, 64, 64}, GemmShape{70, 65, 130},
                      GemmShape{128, 3, 128}));

TEST(Gemm, AlphaBetaAccumulate) {
  Rng rng(99);
  const int m = 9, n = 11, k = 13;
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  auto c = random_vec(static_cast<std::size_t>(m) * n, rng);
  std::vector<float> expected = c;

  gemm(m, n, k, 0.5f, a.data(), k, b.data(), n, 2.0f, c.data(), n);
  ref_gemm(false, false, m, n, k, 0.5f, a, b, 2.0f, expected);
  for (std::size_t i = 0; i < c.size(); ++i)
    EXPECT_NEAR(c[i], expected[i], 1e-3f);
}

TEST(Gemm, BetaOneAccumulatesIntoExisting) {
  const int m = 2, n = 2, k = 2;
  std::vector<float> a{1, 0, 0, 1};  // identity
  std::vector<float> b{1, 2, 3, 4};
  std::vector<float> c{10, 10, 10, 10};
  gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f, c.data(), n);
  EXPECT_FLOAT_EQ(c[0], 11.0f);
  EXPECT_FLOAT_EQ(c[3], 14.0f);
}

TEST(Gemm, CrossVariantConsistencyWithinTolerance) {
  // gemm.h accumulation contract: gemm/gemm_at sum in float, gemm_bt sums
  // each dot product in double and rounds once.  The three variants are
  // therefore NOT bitwise interchangeable — they must only agree to the
  // documented ~1e-4 relative tolerance on the same logical product.
  const int m = 33, n = 29, k = 127;
  Rng rng(20240325);
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);   // [M, K]
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);   // [K, N]

  // Re-layout A as [K, M] for gemm_at and B as [N, K] for gemm_bt.
  std::vector<float> a_t(a.size()), b_t(b.size());
  for (int i = 0; i < m; ++i)
    for (int kk = 0; kk < k; ++kk) a_t[static_cast<std::size_t>(kk) * m + i] = a[static_cast<std::size_t>(i) * k + kk];
  for (int kk = 0; kk < k; ++kk)
    for (int j = 0; j < n; ++j) b_t[static_cast<std::size_t>(j) * k + kk] = b[static_cast<std::size_t>(kk) * n + j];

  std::vector<float> c_nn(static_cast<std::size_t>(m) * n, 0.0f);
  std::vector<float> c_at = c_nn, c_bt = c_nn;
  gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c_nn.data(), n);
  gemm_at(m, n, k, 1.0f, a_t.data(), m, b.data(), n, 0.0f, c_at.data(), n);
  gemm_bt(m, n, k, 1.0f, a.data(), k, b_t.data(), k, 0.0f, c_bt.data(), n);

  for (std::size_t i = 0; i < c_nn.size(); ++i) {
    const float scale = std::max(1.0f, std::abs(c_nn[i]));
    EXPECT_NEAR(c_nn[i], c_at[i], 1e-4f * scale) << "gemm vs gemm_at at " << i;
    EXPECT_NEAR(c_nn[i], c_bt[i], 1e-4f * scale) << "gemm vs gemm_bt at " << i;
  }
}

TEST_P(GemmShapes, BitExactAcrossThreadCounts) {
  // Each variant must produce byte-identical output for any pool size:
  // rows are accumulated independently, so row-block partitioning cannot
  // change any per-element operation order.
  const auto [m, n, k] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 31 + n * 37 + k * 41));
  const auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  const auto at = random_vec(static_cast<std::size_t>(k) * m, rng);
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto bt = random_vec(static_cast<std::size_t>(n) * k, rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);

  auto run_all = [&](int threads) {
    ThreadCountGuard guard(threads);
    std::vector<float> c_nn = c0, c_at = c0, c_bt = c0;
    gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.5f, c_nn.data(), n);
    gemm_at(m, n, k, 1.0f, at.data(), m, b.data(), n, 0.5f, c_at.data(), n);
    gemm_bt(m, n, k, 1.0f, a.data(), k, bt.data(), k, 0.5f, c_bt.data(), n);
    std::vector<float> all;
    all.insert(all.end(), c_nn.begin(), c_nn.end());
    all.insert(all.end(), c_at.begin(), c_at.end());
    all.insert(all.end(), c_bt.begin(), c_bt.end());
    return all;
  };
  const std::vector<float> serial = run_all(1);
  EXPECT_TRUE(serial == run_all(2)) << "threads=2 diverged";
  EXPECT_TRUE(serial == run_all(8)) << "threads=8 diverged";
}

/// Every compiled-in row kernel (non-transposed), by name.
std::vector<std::pair<std::string, kernels::GemmRowsFn>> row_kernels() {
  std::vector<std::pair<std::string, kernels::GemmRowsFn>> fns = {
      {"reference", kernels::gemm_rows_reference},
      {"blocked", kernels::gemm_rows_blocked},
      {"active", kernels::active_gemm_rows()},
  };
#if defined(RRP_HAVE_AVX2)
  if (kernels::avx2_usable()) fns.push_back({"avx2", kernels::gemm_rows_avx2});
#endif
  return fns;
}

TEST(Gemm, ZeroWeightsShortCircuitIsExact) {
  // Every variant skips the add for each (row, k) whose alpha*A is zero;
  // the result must be bitwise the scalar reference's.  N = 45 covers a
  // 32-column block, an 8-wide block and a scalar tail; K = 300 crosses the
  // AVX2 kernel's 256-deep K block; odd M leaves a single-row tile.
  const int m = 5, n = 45, k = 300;
  Rng rng(7);
  auto a = random_vec(static_cast<std::size_t>(m) * k, rng);
  // Half pruned at random, so the rows of a tile are zero at different k.
  for (float& v : a)
    if (rng.uniform() < 0.5) v = 0.0f;
  const auto b = random_vec(static_cast<std::size_t>(k) * n, rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);

  std::vector<float> want = c0;
  kernels::gemm_rows_reference(0, m, n, k, 1.0f, a.data(), k, b.data(), n,
                               0.5f, want.data(), n);
  for (const auto& [name, fn] : row_kernels()) {
    std::vector<float> got = c0;
    fn(0, m, n, k, 1.0f, a.data(), k, b.data(), n, 0.5f, got.data(), n);
    EXPECT_EQ(float_bits(got), float_bits(want)) << name;
  }
  std::vector<float> got = c0;
  gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.5f, got.data(), n);
  EXPECT_EQ(float_bits(got), float_bits(want)) << "gemm";
}

TEST(Gemm, ZeroSkipKeepsNegativeZero) {
  // Where skipping and adding differ: C = -0, A = -0, B < 0.  Adding would
  // give -0 + (-0 * B) = -0 + +0 = +0; the skip keeps -0.  Rows 0 and 2
  // are all -0 (row 2 is the odd single-row tile); row 1, in the same
  // 2-row tile as row 0, is live at k = 0 and k = 2, so a multi-row tile
  // that skipped only when all its rows were zero would flip row 0.
  const int m = 3, n = 45, k = 3;
  const float nz = -0.0f;
  const std::vector<float> a = {nz, nz, nz, 0.25f, nz, 2.0f, nz, nz, nz};
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = -1.0f - static_cast<float>(i % 7);
  const std::vector<float> c0(static_cast<std::size_t>(m) * n, nz);

  std::vector<float> want = c0;
  kernels::gemm_rows_reference(0, m, n, k, 1.0f, a.data(), k, b.data(), n,
                               1.0f, want.data(), n);
  for (int j = 0; j < n; ++j) {
    ASSERT_TRUE(std::signbit(want[static_cast<std::size_t>(j)])) << j;
    ASSERT_TRUE(std::signbit(want[static_cast<std::size_t>(2 * n + j)])) << j;
  }
  for (const auto& [name, fn] : row_kernels()) {
    std::vector<float> got = c0;
    fn(0, m, n, k, 1.0f, a.data(), k, b.data(), n, 1.0f, got.data(), n);
    EXPECT_EQ(float_bits(got), float_bits(want)) << name;
  }
}

/// Every compiled-in gemm_bt row kernel, by name.
std::vector<std::pair<std::string, kernels::GemmBtRowsFn>> bt_kernels() {
  std::vector<std::pair<std::string, kernels::GemmBtRowsFn>> fns = {
      {"reference", kernels::gemm_bt_rows_reference},
      {"blocked", kernels::gemm_bt_rows_blocked},
      {"active", kernels::active_gemm_bt_rows()},
  };
#if defined(RRP_HAVE_AVX2)
  if (kernels::avx2_usable())
    fns.push_back({"avx2", kernels::gemm_bt_rows_avx2});
#endif
  return fns;
}

/// `count` floats in [-1, 1), about one in 16 replaced by a special value:
/// ±0, NaN, ±Inf or a denormal (whose products underflow float but not
/// the double accumulator).
std::vector<float> bt_operand(std::size_t count, Rng& rng) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -3.5e-39f};
  std::vector<float> v = random_vec(count, rng);
  for (float& x : v)
    if (rng.uniform() < 1.0 / 16)
      x = specials[static_cast<std::size_t>(rng.uniform(0.0, 7.0))];
  return v;
}

TEST(Gemm, BtVariantsMatchTheReferenceBitForBit) {
  // Every variant keeps one k-ascending double chain per C element, so
  // each must store exactly the reference's bits: over column counts
  // around the 8-lane block, K around the 4-deep step, odd M (single-row
  // tiles), padded leading dimensions, alpha != 1, every beta branch, with
  // and without the bias + ReLU store, and special values in A and B.
  std::vector<int> ns;
  for (int n = 1; n <= 17; ++n) ns.push_back(n);
  ns.insert(ns.end(), {26, 48, 64});
  const float alpha = 0.75f;
  Rng rng(91);
  for (const int m : {1, 3, 11})
    for (const int k : {1, 3, 4, 5, 48, 136, 256, 257})
      for (const int n : ns) {
        const std::int64_t lda = k + 3, ldb = k + 5, ldc = n + 2;
        const auto a = bt_operand(static_cast<std::size_t>(m * lda), rng);
        const auto b = bt_operand(static_cast<std::size_t>(n * ldb), rng);
        const auto bias = bt_operand(static_cast<std::size_t>(n), rng);
        const auto c0 = bt_operand(static_cast<std::size_t>(m * ldc), rng);
        for (const float beta : {0.0f, 0.5f, 1.0f})
          for (const bool fused : {false, true}) {
            const float* bp = fused ? bias.data() : nullptr;
            std::vector<float> want = c0;
            kernels::gemm_bt_rows_reference(0, m, n, k, alpha, a.data(), lda,
                                            b.data(), ldb, beta, want.data(),
                                            ldc, bp, fused);
            for (const auto& [name, fn] : bt_kernels()) {
              std::vector<float> got = c0;
              fn(0, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
                 got.data(), ldc, bp, fused);
              ASSERT_EQ(float_bits(got), float_bits(want))
                  << name << " m " << m << " n " << n << " k " << k
                  << " beta " << beta << (fused ? " bias+relu" : "");
            }
          }
      }
}

TEST(Gemm, BtNaNTakesTheFirstNaNOperand) {
  // Pins gemm_bt's NaN rule in every variant, over an 8-column tile and a
  // scalar column: A's NaN before B's in a multiply, the accumulator's
  // before the product's in an add.  Even columns meet A's NaN times B's
  // (of the other sign) at k = 1; odd ones make Inf * 0 (the default NaN)
  // at k = 0, then add A's NaN product at k = 1.
  const float nan_a = std::bit_cast<float>(0x7fc00001u);
  const float nan_b = std::bit_cast<float>(0xffc00002u);
  const float inf = std::numeric_limits<float>::infinity();
  const int n = 9, k = 5;
  const std::vector<float> a = {0.0f, nan_a, 1.0f, 2.0f, 3.0f};
  std::vector<float> b(static_cast<std::size_t>(n) * k, 0.5f);
  for (int j = 0; j < n; ++j)
    b[static_cast<std::size_t>(j * k + (j % 2 == 0 ? 1 : 0))] =
        j % 2 == 0 ? nan_b : inf;
  volatile float zero = 0.0f;  // the machine's default NaN, at run time
  const float default_nan = zero * inf;
  for (const auto& [name, fn] : bt_kernels()) {
    std::vector<float> c(static_cast<std::size_t>(n), 0.0f);
    fn(0, 1, n, k, 1.0f, a.data(), k, b.data(), k, 0.0f, c.data(), n,
       nullptr, false);
    for (int j = 0; j < n; ++j)
      EXPECT_EQ(std::bit_cast<std::uint32_t>(c[static_cast<std::size_t>(j)]),
                std::bit_cast<std::uint32_t>(j % 2 == 0 ? nan_a : default_nan))
          << name << " column " << j;
  }
}

TEST(Gemm, BtWithBiasAndReluIsBitExactAcrossThreadCounts) {
  // Training-sized (a conv's dW = gout * col^T fans out over its rows),
  // with the Linear store: rows are independent, so the pool's row
  // partition cannot change a bit.
  const int m = 64, n = 72, k = 300;
  Rng rng(92);
  const auto a = bt_operand(static_cast<std::size_t>(m) * k, rng);
  const auto b = bt_operand(static_cast<std::size_t>(n) * k, rng);
  const auto bias = bt_operand(static_cast<std::size_t>(n), rng);
  const auto c0 = random_vec(static_cast<std::size_t>(m) * n, rng);
  std::vector<std::vector<std::uint32_t>> outs;
  for (const int threads : {1, 2, 8}) {
    ThreadCountGuard guard(threads);
    std::vector<float> c = c0;
    gemm_bt(m, n, k, 0.5f, a.data(), k, b.data(), k, 1.0f, c.data(), n,
            bias.data(), true);
    outs.push_back(float_bits(c));
  }
  std::vector<float> want = c0;
  kernels::gemm_bt_rows_reference(0, m, n, k, 0.5f, a.data(), k, b.data(), k,
                                  1.0f, want.data(), n, bias.data(), true);
  EXPECT_EQ(outs[0], float_bits(want)) << "threads 1 vs reference";
  EXPECT_EQ(outs[0], outs[1]) << "threads 2";
  EXPECT_EQ(outs[0], outs[2]) << "threads 8";
}

}  // namespace
}  // namespace rrp::nn
