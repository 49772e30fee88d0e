#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/integrity.h"
#include "core/reversible_pruner.h"
#include "models/zoo.h"
#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "nn/infer_plan.h"
#include "nn/layers.h"
#include "nn/network.h"
#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rrp::nn {
namespace {

using rrp::testing::float_bits;
using rrp::testing::random_tensor;

TEST(Linear, KnownForward) {
  Linear lin("l", 2, 2);
  lin.weight() = Tensor({2, 2}, {1, 2, 3, 4});
  lin.bias() = Tensor({2}, {0.5f, -0.5f});
  const Tensor x({1, 2}, {1, 1});
  const Tensor y = lin.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1+2+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3+4-0.5
}

TEST(Linear, NoBiasVariant) {
  Linear lin("l", 2, 1, /*with_bias=*/false);
  lin.weight() = Tensor({1, 2}, {2, -1});
  const Tensor y = lin.forward(Tensor({1, 2}, {3, 4}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 2.0f);
  EXPECT_EQ(lin.params().size(), 1u);
}

TEST(Linear, BatchedForward) {
  Linear lin("l", 3, 2);
  lin.weight() = random_tensor({2, 3}, 1);
  const Tensor x = random_tensor({4, 3}, 2);
  const Tensor y = lin.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{4, 2}));
  // Row independence: row 0 of batched result == single-row inference.
  Tensor x0({1, 3}, {x[0], x[1], x[2]});
  const Tensor y0 = lin.forward(x0, false);
  EXPECT_NEAR(y.at(0, 0), y0.at(0, 0), 1e-6f);
  EXPECT_NEAR(y.at(0, 1), y0.at(0, 1), 1e-6f);
}

TEST(Linear, ShapeValidation) {
  Linear lin("l", 3, 2);
  EXPECT_THROW(lin.forward(Tensor({1, 4}), false), PreconditionError);
  EXPECT_EQ(lin.output_shape({5, 3}), (Shape{5, 2}));
  EXPECT_EQ(lin.macs({1, 3}), 6);
}

TEST(Linear, EffectiveMacsCountsNonzeros) {
  Linear lin("l", 4, 2);
  lin.weight() = Tensor({2, 4}, {1, 0, 0, 2, 0, 0, 0, 3});
  EXPECT_EQ(lin.effective_macs({1, 4}), 3);
}

/// Linear's eval as three passes: gemm_bt's reference rows with a plain
/// store, then the bias loop, then (when `relu`) ReLU::forward_into.
Tensor linear_three_passes(const Linear& lin, const Tensor& x, bool relu) {
  const int n = x.size(0), in = lin.in_features(), out = lin.out_features();
  Tensor y({n, out});
  kernels::gemm_bt_rows_reference(0, n, out, in, 1.0f, x.raw(), in,
                                  lin.weight().raw(), in, 0.0f, y.raw(), out,
                                  nullptr, false);
  if (lin.with_bias())
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out; ++j) y[i * out + j] += lin.bias()[j];
  if (relu) ReLU("relu").forward_into(y.raw(), y.shape(), y.raw(), nullptr);
  return y;
}

TEST(Linear, FusedBiasAndReluEqualTheSeparatePasses) {
  // The store adds the bias and clamps after the same rounding as the
  // three separate passes, so every variant's fused output is theirs bit
  // for bit: negative, NaN and ±Inf sums, and a -0 bias, included.
  const int in = 37, out = 21;
  Tensor w = random_tensor({out, in}, 31);
  w[5] = std::numeric_limits<float>::quiet_NaN();
  w[3 * in + 2] = std::numeric_limits<float>::infinity();
  w[4 * in + 9] = -std::numeric_limits<float>::infinity();
  for (int c = 0; c < in; ++c) w[7 * in + c] = 0.0f;  // sum +0
  Tensor bias = random_tensor({out}, 32);
  bias[7] = -0.0f;
  for (const bool with_bias : {true, false})
    for (const int batch : {1, 3, 11}) {
      Linear lin("l", in, out, with_bias);
      lin.weight() = w;
      if (with_bias) lin.bias() = bias;
      Tensor x = random_tensor({batch, in}, 33);
      x[batch * in - 1] = std::numeric_limits<float>::quiet_NaN();
      for (const int threads : {1, 2, 8}) {
        ThreadCountGuard guard(threads);
        const std::string what = std::string(with_bias ? "bias" : "no bias") +
                                 " batch " + std::to_string(batch) +
                                 " threads " + std::to_string(threads);
        Tensor got({batch, out});
        lin.forward_into(x.raw(), x.shape(), got.raw(), nullptr);
        EXPECT_EQ(float_bits(got.data()),
                  float_bits(linear_three_passes(lin, x, false).data()))
            << what;
        lin.forward_fused_into(x.raw(), x.shape(), got.raw(), true);
        EXPECT_EQ(float_bits(got.data()),
                  float_bits(linear_three_passes(lin, x, true).data()))
            << what << " relu";
      }
    }
}

TEST(Conv2D, IdentityKernelPassesThrough) {
  Conv2D conv("c", 1, 1, 3, 1, 1);
  conv.weight().fill(0.0f);
  conv.weight().at(0, 0, 1, 1) = 1.0f;  // center tap
  const Tensor x = random_tensor({1, 1, 5, 5}, 3);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), x.shape());
  EXPECT_NEAR(y.max_abs_diff(x), 0.0f, 1e-6f);
}

TEST(Conv2D, KnownSumKernel) {
  Conv2D conv("c", 1, 1, 2, 1, 0);
  conv.weight().fill(1.0f);
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 10.0f);
}

TEST(Conv2D, StrideAndPaddingGeometry) {
  Conv2D conv("c", 2, 4, 3, 2, 1);
  EXPECT_EQ(conv.output_shape({1, 2, 8, 8}), (Shape{1, 4, 4, 4}));
  EXPECT_EQ(conv.macs({1, 2, 8, 8}), 4LL * 2 * 9 * 4 * 4);
}

TEST(Conv2D, BiasAddsPerChannel) {
  Conv2D conv("c", 1, 2, 1, 1, 0);
  conv.weight().fill(0.0f);
  conv.bias() = Tensor({2}, {1.5f, -2.0f});
  const Tensor y = conv.forward(Tensor({1, 1, 2, 2}), false);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1, 1, 1), -2.0f);
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Conv2D conv("c", 3, 4, 3, 1, 1);
  EXPECT_THROW(conv.forward(Tensor({1, 2, 8, 8}), false), PreconditionError);
}

TEST(Conv2D, TooSmallInputThrows) {
  Conv2D conv("c", 1, 1, 5, 1, 0);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3}), false), PreconditionError);
}

TEST(Conv2D, EffectiveMacsScaleWithSparsity) {
  Conv2D conv("c", 2, 2, 3, 1, 1);
  conv.weight().fill(1.0f);
  const Shape in{1, 2, 8, 8};
  const std::int64_t dense = conv.effective_macs(in);
  EXPECT_EQ(dense, conv.macs(in));
  // Zero one full filter -> half the effective MACs.
  for (int i = 0; i < 2; ++i)
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b) conv.weight().at(0, i, a, b) = 0.0f;
  EXPECT_EQ(conv.effective_macs(in), dense / 2);
}

/// The per-element bounds-checked im2col Conv2D used before the hoisted
/// valid-range rewrite, kept as an independent oracle.
void reference_im2col(const float* src, int in_ch, int h, int w, int k,
                      int stride, int pad, int oh, int ow, float* col) {
  std::int64_t row = 0;
  for (int c = 0; c < in_ch; ++c) {
    const float* plane = src + static_cast<std::int64_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, ++row) {
        float* out = col + row * oh * ow;
        for (int oi = 0; oi < oh; ++oi) {
          const int ii = oi * stride - pad + ki;
          for (int oj = 0; oj < ow; ++oj) {
            const int jj = oj * stride - pad + kj;
            const bool in = ii >= 0 && ii < h && jj >= 0 && jj < w;
            out[oi * ow + oj] =
                in ? plane[static_cast<std::int64_t>(ii) * w + jj] : 0.0f;
          }
        }
      }
    }
  }
}

/// im2col + gemm_rows_reference, then the bias, BatchNorm (`scale`,
/// `shift`, may be empty) and ReLU passes of the unfused layer chain.
Tensor im2col_gemm_reference(const Conv2D& conv, const Tensor& x,
                             const std::vector<float>& scale = {},
                             const std::vector<float>& shift = {},
                             bool relu = false) {
  const int n = x.size(0), in_ch = x.size(1), h = x.size(2), w = x.size(3);
  const int k = conv.kernel(), out_ch = conv.out_channels();
  const auto [oh, ow] = conv.out_hw(h, w);
  const std::int64_t rows = static_cast<std::int64_t>(in_ch) * k * k;
  const std::int64_t cols = static_cast<std::int64_t>(oh) * ow;
  std::vector<float> col(static_cast<std::size_t>(rows * cols));
  Tensor want({n, out_ch, oh, ow});
  for (int s = 0; s < n; ++s) {
    reference_im2col(x.raw() + s * in_ch * h * w, in_ch, h, w, k,
                     conv.stride(), conv.padding(), oh, ow, col.data());
    float* out = want.raw() + s * out_ch * cols;
    kernels::gemm_rows_reference(0, out_ch, cols, rows, 1.0f,
                                 conv.weight().raw(), rows, col.data(), cols,
                                 0.0f, out, cols);
    for (int c = 0; c < out_ch; ++c)
      for (std::int64_t i = 0; i < cols; ++i) {
        float& v = out[c * cols + i];
        if (conv.with_bias()) v += conv.bias()[c];
        if (!scale.empty()) v = v * scale[c] + shift[c];
        if (relu) v = std::max(v, 0.0f);
      }
  }
  return want;
}

/// A liveness pattern laid over a parity case's 5-row x 3-channel weight:
/// the listed rows and input channels are set dead (slots alternating +0
/// and -0, which must count as dead), then one "poke" value may land in a
/// dead slot (last tap of that row and channel) and must make it live.
/// Every dead channel's input planes hold NaN, +inf and -inf, which must
/// not reach the output.
struct LivenessPattern {
  const char* name;
  std::vector<int> dead_rows, dead_chans;
  int poke_row = -1, poke_chan = -1;
  float poke = 0.0f;
};

const std::vector<LivenessPattern>& liveness_patterns() {
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  static const std::vector<LivenessPattern> patterns = {
      {"dense", {}, {}},
      {"every row dead", {0, 1, 2, 3, 4}, {}},
      {"one live row", {0, 1, 3, 4}, {}},
      {"dead rows and channel", {1, 3}, {0}},
      {"lone element in dead channel", {1, 3}, {0}, 4, 0, 0.5f},
      {"NaN weight in dead channel", {1, 3}, {0}, 0, 0, kNaN},
      {"Inf weight in dead channel", {1, 3}, {0}, 2, 0, kInf},
      {"Inf weight in dead row", {1, 3}, {0}, 1, 2, -kInf},
  };
  return patterns;
}

/// One implicit-conv parity case: weights with +0 and -0 (zero-skip), the
/// first sample seeded with NaN, +inf and -inf, then a liveness pattern.
struct ConvCase {
  std::unique_ptr<Conv2D> conv;
  Tensor x;
  std::string tag;
};

ConvCase make_conv_case(int k, int stride, int pad, int w, int batch,
                        const LivenessPattern& pattern) {
  const int in_ch = 3, out_ch = 5, h = 5;
  ConvCase c{std::make_unique<Conv2D>("c", in_ch, out_ch, k, stride, pad),
             random_tensor({batch, in_ch, h, w}, 13 + w),
             std::to_string(h) + "x" + std::to_string(w) +
                 " k=" + std::to_string(k) + " s=" + std::to_string(stride) +
                 " p=" + std::to_string(pad) + " n=" + std::to_string(batch) +
                 " " + pattern.name};
  Tensor& wt = c.conv->weight();
  wt = random_tensor({out_ch, in_ch, k, k}, 11 + k);
  for (std::int64_t i = 0; i < wt.numel(); i += 3)
    wt[i] = i % 2 == 0 ? 0.0f : -0.0f;
  c.conv->bias() = random_tensor({out_ch}, 12);
  c.x[3] = std::numeric_limits<float>::quiet_NaN();
  c.x[10] = std::numeric_limits<float>::infinity();
  c.x[17] = -std::numeric_limits<float>::infinity();

  const std::int64_t taps = static_cast<std::int64_t>(k) * k;
  const auto kill = [&](int row, int ch) {
    for (std::int64_t t = 0; t < taps; ++t) {
      const std::int64_t e = (row * in_ch + ch) * taps + t;
      wt[e] = e % 2 == 0 ? 0.0f : -0.0f;
    }
  };
  for (const int row : pattern.dead_rows)
    for (int ch = 0; ch < in_ch; ++ch) kill(row, ch);
  for (const int ch : pattern.dead_chans)
    for (int row = 0; row < out_ch; ++row) kill(row, ch);
  if (pattern.poke_row >= 0)
    wt[(pattern.poke_row * in_ch + pattern.poke_chan) * taps + taps - 1] =
        pattern.poke;
  const float poison[] = {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity(), 1.0f};
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  for (const int ch : pattern.dead_chans)
    if (ch != pattern.poke_chan)
      for (int s = 0; s < batch; ++s)
        for (std::int64_t i = 0; i < plane; ++i)
          c.x[(s * in_ch + ch) * plane + i] = poison[i % 4];
  return c;
}

/// The implicit-conv parity grid: k x stride x pad x W x batch x liveness
/// pattern, skipping kernels wider than the padded input.
template <typename Fn>
void for_each_conv_case(Fn&& fn) {
  for (int k : {1, 3, 5})
    for (int stride : {1, 2})
      for (int pad : {0, 1, 2})
        for (int w : {4, 6, 7, 8, 16, 24})
          for (int batch : {1, 3, 11})
            if (w + 2 * pad >= k)
              for (const LivenessPattern& pattern : liveness_patterns()) {
                ConvCase c = make_conv_case(k, stride, pad, w, batch, pattern);
                fn(c);
              }
}

/// A BatchNorm over the parity cases' 5 channels with non-trivial running
/// statistics, and its eval affine as the reference's scale/shift.
struct ParityBn {
  BatchNorm bn{"bn", 5};
  std::vector<float> scale, shift;
  ParityBn() {
    bn.running_mean() = Tensor({5}, {0.1f, -0.3f, 0.0f, 0.7f, -0.0f});
    bn.running_var() = Tensor({5}, {1.0f, 0.5f, 2.0f, 0.25f, 1.5f});
    bn.gamma() = Tensor({5}, {0.5f, -1.25f, 2.0f, 1.0f, -0.75f});
    bn.beta() = Tensor({5}, {0.1f, -0.2f, 0.0f, -0.0f, 0.3f});
    for (int c = 0; c < 5; ++c) {
      const auto [sc, sh] = bn.eval_affine(c);
      scale.push_back(sc);
      shift.push_back(sh);
    }
  }
};

TEST(Conv2D, ForwardMatchesReferenceIm2colGemm) {
  // The implicit-GEMM eval conv, through the active kernel, the pool and
  // the per-call liveness lists, equals im2col + the reference GEMM + bias
  // (+ BatchNorm + ReLU when fused) bit for bit.
  const ParityBn pbn;
  for (const int threads : {1, 2, 8}) {
    const ThreadCountGuard guard(threads);
    for_each_conv_case([&](ConvCase& c) {
      const Tensor y = c.conv->forward(c.x, false);
      const Tensor want = im2col_gemm_reference(*c.conv, c.x);
      ASSERT_EQ(y.shape(), want.shape()) << c.tag;
      EXPECT_EQ(float_bits(y.data()), float_bits(want.data()))
          << c.tag << " threads " << threads;

      Tensor fused(want.shape());
      std::vector<float> scratch(
          static_cast<std::size_t>(c.conv->scratch_floats(c.x.shape())));
      c.conv->forward_fused_into(c.x.raw(), c.x.shape(), fused.raw(),
                                 scratch.data(), StepFusion{&pbn.bn, true});
      const Tensor want_fused =
          im2col_gemm_reference(*c.conv, c.x, pbn.scale, pbn.shift, true);
      EXPECT_EQ(float_bits(fused.data()), float_bits(want_fused.data()))
          << c.tag << " fused threads " << threads;
    });
  }
}

/// Live rows and live channels of a weight by full scan (no early exit):
/// the oracle for conv_liveness.
std::pair<std::vector<float>, std::vector<float>> scan_liveness(
    const Conv2D& conv) {
  const int out_ch = conv.out_channels(), in_ch = conv.in_channels();
  const std::int64_t taps =
      static_cast<std::int64_t>(conv.kernel()) * conv.kernel();
  const float* wt = conv.weight().raw();
  const auto nonzero = [&](int row, int ch) {
    bool any = false;
    for (std::int64_t t = 0; t < taps; ++t)
      any = any || !(wt[(row * in_ch + ch) * taps + t] == 0.0f);
    return any;
  };
  std::vector<float> rows, chans;
  for (int row = 0; row < out_ch; ++row) {
    bool any = false;
    for (int ch = 0; ch < in_ch; ++ch) any = any || nonzero(row, ch);
    if (any) rows.push_back(static_cast<float>(row));
  }
  for (int ch = 0; ch < in_ch; ++ch) {
    bool any = false;
    for (const float row : rows) any = any || nonzero(static_cast<int>(row), ch);
    if (any) chans.push_back(static_cast<float>(ch));
  }
  return {rows, chans};
}

/// The live rows and the live channels (runs expanded) `g` points at,
/// after checking the runs are ascending, maximal and add up to
/// g.live_chans.
std::pair<std::vector<float>, std::vector<float>> expand_lists(
    const ConvGemm& g) {
  std::vector<float> rows(g.rows, g.rows + g.live_rows), chans;
  for (int q = 0; q < g.chan_runs; ++q) {
    const float begin = g.chans[2 * q], end = g.chans[2 * q + 1];
    EXPECT_LT(begin, end);
    if (q > 0) {
      EXPECT_LT(g.chans[2 * q - 1], begin) << "runs not maximal";
    }
    for (float c = begin; c < end; c += 1.0f) chans.push_back(c);
  }
  EXPECT_EQ(chans.size(), static_cast<std::size_t>(g.live_chans));
  return {rows, chans};
}

/// conv_liveness's live rows and channels for the weights of `conv`.
std::pair<std::vector<float>, std::vector<float>> conv_lists(
    const Conv2D& conv) {
  ConvGemm g;
  g.a = conv.weight().raw();
  g.lda = static_cast<std::int64_t>(conv.in_channels()) * conv.kernel() *
          conv.kernel();
  g.cin = conv.in_channels();
  g.kernel = conv.kernel();
  std::vector<float> rows(static_cast<std::size_t>(conv.out_channels()));
  std::vector<float> chans(static_cast<std::size_t>(conv.in_channels() + 1));
  conv_liveness(conv.out_channels(), g, rows.data(), chans.data());
  return expand_lists(g);
}

TEST(Conv2D, EveryConvKernelVariantMatchesIm2colGemm) {
  // Each compiled conv row function, on a hand-padded sample and the
  // conv_liveness lists, equals im2col + the reference GEMM and the
  // epilogue's separate passes, with every dead row stored as
  // epilogue(+0) and the live rows cut into 1, 2 or 8 chunks.
  std::vector<std::pair<std::string, kernels::ConvRowsFn>> fns = {
      {"reference", kernels::conv_rows_reference},
      {"blocked", kernels::conv_rows_blocked},
      {"active", kernels::active_conv_rows()},
  };
#if defined(RRP_HAVE_AVX2)
  if (kernels::avx2_usable()) fns.push_back({"avx2", kernels::conv_rows_avx2});
#endif
  const ParityBn pbn;
  for_each_conv_case([&](ConvCase& c) {
    if (c.x.size(0) != 1) return;
    const Conv2D& conv = *c.conv;
    const int in_ch = conv.in_channels(), h = c.x.size(2), w = c.x.size(3);
    const int out_ch = conv.out_channels();
    const int p = conv.padding(), hp = h + 2 * p, wp = w + 2 * p;
    std::vector<float> xp(static_cast<std::size_t>(in_ch) * hp * wp, 0.0f);
    for (int ch = 0; ch < in_ch; ++ch)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j)
          xp[static_cast<std::size_t>((ch * hp + i + p) * wp + j + p)] =
              c.x.at(0, ch, i, j);
    const auto [oh, ow] = conv.out_hw(h, w);
    ConvGemm g;
    g.a = conv.weight().raw();
    g.lda = static_cast<std::int64_t>(in_ch) * conv.kernel() * conv.kernel();
    g.xp = xp.data();
    g.cin = in_ch;
    g.kernel = conv.kernel();
    g.stride = conv.stride();
    g.hp = hp;
    g.wp = wp;
    g.oh = oh;
    g.ow = ow;
    g.bias = conv.bias().raw();
    g.ldc = static_cast<std::int64_t>(oh) * ow;
    std::vector<float> rows(static_cast<std::size_t>(out_ch));
    std::vector<float> chans(static_cast<std::size_t>(in_ch + 1));
    conv_liveness(out_ch, g, rows.data(), chans.data());
    ASSERT_EQ(expand_lists(g), scan_liveness(conv)) << c.tag;
    std::vector<float> all_rows = rows;
    std::sort(all_rows.begin(), all_rows.end());
    for (int i = 0; i < out_ch; ++i)
      ASSERT_EQ(all_rows[static_cast<std::size_t>(i)], static_cast<float>(i))
          << c.tag;

    for (const bool fused : {false, true}) {
      g.scale = fused ? pbn.scale.data() : nullptr;
      g.shift = pbn.shift.data();
      g.relu = fused;
      const Tensor want = fused ? im2col_gemm_reference(conv, c.x, pbn.scale,
                                                        pbn.shift, true)
                                : im2col_gemm_reference(conv, c.x);
      for (const auto& [name, fn] : fns)
        for (const std::int64_t chunks : {1, 2, 8}) {
          Tensor got(want.shape());
          got.fill(std::numeric_limits<float>::quiet_NaN());
          g.c = got.raw();
          for (std::int64_t t = g.live_rows; t < out_ch; ++t) {
            const std::int64_t i = conv_index(g.rows, t);
            std::fill_n(got.raw() + i * g.ldc, g.ldc,
                        kernels::conv_epilogue(g, i, 0.0f));
          }
          const std::int64_t step =
              std::max<std::int64_t>(1, (g.live_rows + chunks - 1) / chunks);
          for (std::int64_t t = 0; t < g.live_rows; t += step)
            fn(t, std::min(t + step, g.live_rows), g);
          EXPECT_EQ(float_bits(got.data()), float_bits(want.data()))
              << c.tag << " " << name << (fused ? " fused" : "") << " chunks "
              << chunks;
        }
    }
  });
}

TEST(ConvLiveness, ListsFollowTheWeights) {
  // Pinned lists for the 3x3 patterns: ±0 slots are dead; a lone nonzero,
  // NaN or Inf weight makes its row and channel live.
  const std::vector<std::pair<std::vector<float>, std::vector<float>>> want =
      {{{0, 1, 2, 3, 4}, {0, 1, 2}},  // dense
       {{}, {}},                      // every row dead
       {{2}, {0, 1, 2}},              // one live row
       {{0, 2, 4}, {1, 2}},           // dead rows and channel
       {{0, 2, 4}, {0, 1, 2}},        // lone element in dead channel
       {{0, 2, 4}, {0, 1, 2}},        // NaN weight in dead channel
       {{0, 2, 4}, {0, 1, 2}},        // Inf weight in dead channel
       {{0, 1, 2, 4}, {1, 2}}};       // Inf weight in dead row
  ASSERT_EQ(want.size(), liveness_patterns().size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ConvCase c = make_conv_case(3, 1, 1, 8, 1, liveness_patterns()[i]);
    const auto [rows, chans] = conv_lists(*c.conv);
    EXPECT_EQ(rows, want[i].first) << c.tag;
    EXPECT_EQ(chans, want[i].second) << c.tag;
  }
}

void flip_bit(float& v, int bit) {
  std::uint32_t u = 0;
  std::memcpy(&u, &v, sizeof u);
  u ^= 1u << bit;
  std::memcpy(&v, &u, sizeof v);
}

/// Unskipped reference forward of a sequential network: every conv through
/// im2col + the reference GEMM over all rows and channels, every other
/// layer through its eval forward.
Tensor reference_forward(const Network& net, const Tensor& x) {
  Tensor h = x;
  for (const auto& layer : net.layers())
    h = layer->kind() == LayerKind::Conv2D
            ? im2col_gemm_reference(static_cast<const Conv2D&>(*layer), h)
            : layer->forward(h, false);
  return h;
}

// A flipped exponent bit in a pruned slot of a masked level is live for
// every call until repair, and dead again after it: liveness is read from
// the weights on each call, never cached per level.
TEST(ConvLiveness, PrunedSlotFlipIsLiveUntilRepair) {
  Rng rng(21);
  Network net = models::build_model(models::ModelKind::DetNet, rng);
  const Shape shape = models::zoo_input_shape();
  const prune::PruneLevelLibrary lib =
      prune::PruneLevelLibrary::build_structured(
          net, {0.0, 0.3, 0.5, 0.7, 0.85}, shape);
  core::ReversiblePruner pruner(net, lib);
  pruner.set_level(3);
  const core::IntegrityChecker checker(pruner.store());
  Network& live = pruner.network();
  auto& conv = dynamic_cast<Conv2D&>(*live.find("conv2"));
  const Tensor x = random_tensor(shape, 22);
  // conv2's own input: nonzero in every channel, so a skipped live channel
  // would show.
  const Tensor h = random_tensor({1, conv.in_channels(), shape[2], shape[3]},
                                 23);

  const auto [rows, chans] = conv_lists(conv);
  ASSERT_FALSE(rows.empty());
  ASSERT_LT(rows.size(), static_cast<std::size_t>(conv.out_channels()));
  ASSERT_LT(chans.size(), static_cast<std::size_t>(conv.in_channels()));
  int dead_row = 0, dead_chan = 0;
  while (std::count(rows.begin(), rows.end(), static_cast<float>(dead_row)))
    ++dead_row;
  while (std::count(chans.begin(), chans.end(), static_cast<float>(dead_chan)))
    ++dead_chan;
  const std::int64_t taps =
      static_cast<std::int64_t>(conv.kernel()) * conv.kernel();
  const std::int64_t row_len = conv.in_channels() * taps;
  const std::int64_t live_row = static_cast<std::int64_t>(rows.front());
  const std::int64_t slots[] = {live_row * row_len + dead_chan * taps + 4,
                                dead_row * row_len + row_len / 2};

  Tensor out;
  const auto expect_reference = [&](const std::string& what) {
    pruner.infer_into(x, out);
    EXPECT_EQ(float_bits(out.data()),
              float_bits(reference_forward(live, x).data()))
        << what;
    EXPECT_EQ(float_bits(conv.forward(h, false).data()),
              float_bits(im2col_gemm_reference(conv, h).data()))
        << what;
  };
  expect_reference("clean");
  const Tensor clean_conv = conv.forward(h, false);
  for (const std::int64_t slot : slots) {
    const std::string what = "slot " + std::to_string(slot);
    float& wv = conv.weight()[slot];
    ASSERT_EQ(wv, 0.0f) << what;
    flip_bit(wv, 30);  // +0 -> 2.0f
    for (int call = 0; call < 2; ++call) expect_reference(what + " flipped");
    EXPECT_NE(float_bits(conv.forward(h, false).data()),
              float_bits(clean_conv.data()))
        << what;
    const auto [frows, fchans] = conv_lists(conv);
    EXPECT_TRUE(frows.size() > rows.size() || fchans.size() > chans.size())
        << what;

    core::ScrubReport scrub;
    const core::RepairReport fix =
        checker.scrub_and_repair(live, lib.mask(3), &scrub);
    EXPECT_EQ(scrub.diverged_elements(), 1) << what;
    EXPECT_EQ(fix.elements_repaired, 1) << what;
    expect_reference(what + " repaired");
    EXPECT_EQ(conv_lists(conv), std::make_pair(rows, chans)) << what;
  }
}

/// conv_liveness as it was with one any_nonzero call per (live row,
/// channel) pair: the oracle the in-line channel scan must match list for
/// list.
bool oracle_any_nonzero(const float* w, std::int64_t n) {
  constexpr std::int64_t kBlock = 32;
  constexpr std::uint32_t kMagnitude = 0x7fffffffu;
  if (n > 0 && !(w[0] == 0.0f)) return true;
  std::int64_t i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    std::uint32_t bits[kBlock];
    std::memcpy(bits, w + i, sizeof bits);
    std::uint32_t any = 0;
    for (const std::uint32_t b : bits) any |= b & kMagnitude;
    if (any != 0) return true;
  }
  std::uint32_t any = 0;
  for (; i < n; ++i) {
    std::uint32_t b = 0;
    std::memcpy(&b, w + i, sizeof b);
    any |= b & kMagnitude;
  }
  return any != 0;
}

void oracle_conv_liveness(std::int64_t m, ConvGemm& g, float* rows,
                          float* chans) {
  const std::int64_t taps = static_cast<std::int64_t>(g.kernel) * g.kernel;
  std::int64_t live = 0, dead = m;
  for (std::int64_t i = 0; i < m; ++i) {
    const bool on = oracle_any_nonzero(g.a + i * g.lda, g.cin * taps);
    rows[on ? live++ : --dead] = static_cast<float>(i);
  }
  int runs = 0, run_end = -1, live_chans = 0;
  for (int c = 0; c < g.cin; ++c) {
    bool on = false;
    for (std::int64_t t = 0; t < live && !on; ++t)
      on = oracle_any_nonzero(g.a + conv_index(rows, t) * g.lda + c * taps,
                              taps);
    if (!on) continue;
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

/// Everything a liveness scan writes: the whole row list (dead rows in
/// their order too), the channel runs and the counts.
struct LivenessLists {
  std::vector<float> rows, chans;
  std::int64_t live_rows = 0;
  int chan_runs = 0, live_chans = 0;
  bool operator==(const LivenessLists&) const = default;
};

LivenessLists scan_with(void (*scan)(std::int64_t, ConvGemm&, float*, float*),
                        const float* w, int m, int cin, int kernel) {
  ConvGemm g;
  g.a = w;
  g.lda = static_cast<std::int64_t>(cin) * kernel * kernel;
  g.cin = cin;
  g.kernel = kernel;
  LivenessLists out;
  out.rows.assign(static_cast<std::size_t>(m), -1.0f);
  out.chans.assign(static_cast<std::size_t>(cin + 1), -1.0f);
  scan(m, g, out.rows.data(), out.chans.data());
  out.chans.resize(static_cast<std::size_t>(2 * g.chan_runs));
  out.live_rows = g.live_rows;
  out.chan_runs = g.chan_runs;
  out.live_chans = g.live_chans;
  return out;
}

void expect_oracle_lists(const float* w, int m, int cin, int kernel,
                         const std::string& what) {
  EXPECT_EQ(scan_with(conv_liveness, w, m, cin, kernel),
            scan_with(oracle_conv_liveness, w, m, cin, kernel))
      << what;
}

TEST(ConvLiveness, InlineChannelScanMatchesPairwiseOracle) {
  // Structured: every conv of a masked detnet at every level, clean and
  // with an exponent bit flipped in a pruned slot.
  {
    Rng rng(31);
    Network net = models::build_model(models::ModelKind::DetNet, rng);
    const prune::PruneLevelLibrary lib =
        prune::PruneLevelLibrary::build_structured(
            net, {0.0, 0.3, 0.5, 0.7, 0.85}, models::zoo_input_shape());
    core::ReversiblePruner pruner(net, lib);
    for (int level = 0; level < pruner.level_count(); ++level) {
      pruner.set_level(level);
      for (const auto& layer : pruner.network().layers()) {
        if (layer->kind() != LayerKind::Conv2D) continue;
        auto& conv = static_cast<Conv2D&>(*layer);
        const std::span<const float> weights = conv.weight().data();
        std::vector<float> w(weights.begin(), weights.end());
        const std::string what =
            "level " + std::to_string(level) + " " + layer->name();
        expect_oracle_lists(w.data(), conv.out_channels(), conv.in_channels(),
                            conv.kernel(), what);
        for (std::size_t k = 0; k < w.size(); k += 7) {
          if (w[k] != 0.0f) continue;
          flip_bit(w[k], 30);
          expect_oracle_lists(w.data(), conv.out_channels(),
                              conv.in_channels(), conv.kernel(),
                              what + " flipped slot " + std::to_string(k));
          flip_bit(w[k], 30);
        }
      }
    }
  }
  // Random: dead rows and channels (±0 slots), live (row, channel) blocks
  // at several tap densities drawn from NaN, ±Inf, denormals and 0.5, and
  // a flipped pruned slot; the channel counts cross a 64-float block.
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.5f, -0.5f};
  Rng rng(32);
  for (const int kernel : {1, 3, 5})
    for (const int m : {1, 2, 9})
      for (const int cin : {1, 3, 8, 33, 70})
        for (const double density : {0.0, 0.05, 0.5, 1.0})
          for (int trial = 0; trial < 3; ++trial) {
            const int taps = kernel * kernel;
            std::vector<char> dead_row(static_cast<std::size_t>(m)),
                dead_chan(static_cast<std::size_t>(cin));
            for (char& d : dead_row) d = rng.uniform() < 0.3;
            for (char& d : dead_chan) d = rng.uniform() < 0.4;
            std::vector<float> w(static_cast<std::size_t>(m) * cin * taps);
            for (int r = 0; r < m; ++r)
              for (int c = 0; c < cin; ++c)
                for (int t = 0; t < taps; ++t) {
                  float& v = w[(static_cast<std::size_t>(r) * cin + c) * taps +
                               static_cast<std::size_t>(t)];
                  v = rng.uniform() < 0.5 ? 0.0f : -0.0f;
                  if (!dead_row[static_cast<std::size_t>(r)] &&
                      !dead_chan[static_cast<std::size_t>(c)] &&
                      rng.uniform() < density)
                    v = specials[rng.uniform_int(0, 6)];
                }
            const std::string what =
                "kernel " + std::to_string(kernel) + " m" + std::to_string(m) +
                " cin" + std::to_string(cin) + " density " +
                std::to_string(density) + " trial " + std::to_string(trial);
            expect_oracle_lists(w.data(), m, cin, kernel, what);
            const std::size_t slot = static_cast<std::size_t>(
                rng.uniform_u64(static_cast<std::uint64_t>(w.size())));
            if (w[slot] == 0.0f) {
              flip_bit(w[slot], 30);
              expect_oracle_lists(w.data(), m, cin, kernel,
                                  what + " flipped " + std::to_string(slot));
            }
          }
}

TEST(EffectiveMacs, CountNonzeroMatchesANaiveCount) {
  // ±0 count as zero; NaN, ±Inf and denormals count; the lengths cross
  // the 1024-float block.
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.5f};
  Rng rng(41);
  for (const std::int64_t n : {0, 1, 7, 1023, 1024, 1025, 3001}) {
    std::vector<float> v(static_cast<std::size_t>(n));
    for (float& x : v)
      x = specials[static_cast<std::size_t>(rng.uniform(0.0, 8.0))];
    std::int64_t naive = 0;
    for (const float x : v) naive += x != 0.0f ? 1 : 0;
    EXPECT_EQ(count_nonzero(v.data(), n), naive) << n;
  }
}

// Every compiled-in count_nonzero variant, and the dispatched one, agree
// with a naive count: lengths 0-67 at unaligned starts (every vector body
// and tail split), the special values, a flipped pruned slot at each
// position, and one length past the AVX2 lane-fold block.
TEST(EffectiveMacs, CountNonzeroVariantsMatchTheReference) {
  const float specials[] = {0.0f,
                            -0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min(),
                            0.5f};
  std::vector<kernels::CountNonzeroFn> variants = {
      &kernels::count_nonzero_reference, &count_nonzero};
#if defined(RRP_HAVE_AVX2)
  if (kernels::avx2_usable()) variants.push_back(&kernels::count_nonzero_avx2);
#endif
  const auto naive = [](const float* x, std::int64_t n) {
    std::int64_t c = 0;
    for (std::int64_t i = 0; i < n; ++i) c += x[i] != 0.0f ? 1 : 0;
    return c;
  };
  const auto expect_all = [&](const float* x, std::int64_t n,
                              const std::string& what) {
    const std::int64_t want = naive(x, n);
    for (std::size_t v = 0; v < variants.size(); ++v)
      EXPECT_EQ(variants[v](x, n), want) << what << " variant " << v;
  };
  Rng rng(43);
  std::vector<float> buf(80);
  for (std::int64_t n = 0; n <= 67; ++n) {
    for (std::size_t off = 0; off < 4; ++off) {
      float* x = buf.data() + off;
      for (std::int64_t i = 0; i < n; ++i)
        x[i] = specials[static_cast<std::size_t>(rng.uniform(0.0, 8.0))];
      expect_all(x, n, "specials n=" + std::to_string(n));
      // A pruned row (all +0) with one slot flipped: bit 31 gives -0 (still
      // zero), bit 30 gives 2.0f (now counts).
      std::fill(x, x + n, 0.0f);
      for (std::int64_t i = 0; i < n; ++i) {
        for (const int bit : {31, 30}) {
          std::uint32_t bits = 0;
          std::memcpy(&bits, x + i, sizeof bits);
          bits ^= 1u << bit;
          std::memcpy(x + i, &bits, sizeof bits);
          expect_all(x, n, "flip n=" + std::to_string(n) + " at " +
                               std::to_string(i) + " bit " +
                               std::to_string(bit));
          bits ^= 1u << bit;
          std::memcpy(x + i, &bits, sizeof bits);
        }
      }
    }
  }
  std::vector<float> big((std::size_t{1} << 20) + 37);
  for (float& x : big)
    x = specials[static_cast<std::size_t>(rng.uniform(0.0, 8.0))];
  expect_all(big.data(), static_cast<std::int64_t>(big.size()), "long");
}

// Effective MACs counted naively from the plan's step shapes: a weighted
// layer's dense MACs per weight times its weights that compare != 0.
std::int64_t naive_effective_macs(const Network& net, const Shape& shape) {
  std::int64_t total = 0;
  for (const InferStep& st : plan_inference(net, shape).steps) {
    const Tensor* w = nullptr;
    if (st.layer == nullptr) continue;
    if (st.layer->kind() == LayerKind::Conv2D)
      w = &static_cast<const Conv2D*>(st.layer)->weight();
    else if (st.layer->kind() == LayerKind::Linear)
      w = &static_cast<const Linear*>(st.layer)->weight();
    if (w == nullptr) continue;
    std::int64_t nnz = 0;
    for (const float v : w->data()) nnz += v != 0.0f ? 1 : 0;
    total += nnz * (st.layer->macs(st.in) / w->numel());
  }
  return total;
}

// The masked arm's per-frame MAC count reads the weights as they are: a
// flipped pruned slot counts until the scrub repairs it, a sign flip of a
// pruned +0 (to -0) never counts.
TEST(EffectiveMacs, MaskedArmCountsAFlippedPrunedSlotUntilRepair) {
  Rng rng(21);
  Network net = models::build_model(models::ModelKind::DetNet, rng);
  const Shape shape = models::zoo_input_shape();
  const prune::PruneLevelLibrary lib =
      prune::PruneLevelLibrary::build_structured(
          net, {0.0, 0.3, 0.5, 0.7, 0.85}, shape);
  core::ReversiblePruner pruner(net, lib);
  pruner.set_level(3);
  const core::IntegrityChecker checker(pruner.store());
  Network& live = pruner.network();
  auto& conv = dynamic_cast<Conv2D&>(*live.find("conv2"));
  const Tensor x = random_tensor(shape, 22);

  const std::int64_t unplanned = pruner.active_macs(shape);  // shape walk
  Tensor out;
  pruner.infer_into(x, out);
  const std::int64_t clean = pruner.active_macs(shape);  // planned steps
  EXPECT_EQ(clean, unplanned);
  EXPECT_EQ(clean, naive_effective_macs(live, shape));
  EXPECT_LT(clean, live.macs(shape));

  const std::int64_t plane =
      conv.macs({1, conv.in_channels(), shape[2], shape[3]}) /
      conv.weight().numel();
  std::int64_t slot = 0;
  while (conv.weight()[slot] != 0.0f) ++slot;
  float& wv = conv.weight()[slot];
  flip_bit(wv, 31);  // +0 -> -0: still zero
  EXPECT_EQ(pruner.active_macs(shape), clean);
  flip_bit(wv, 31);
  flip_bit(wv, 30);  // +0 -> 2.0f
  for (int call = 0; call < 2; ++call) {
    pruner.infer_into(x, out);
    EXPECT_EQ(pruner.active_macs(shape), clean + plane) << call;
  }
  EXPECT_EQ(naive_effective_macs(live, shape), clean + plane);
  const core::RepairReport fix =
      checker.scrub_and_repair(live, lib.mask(3), nullptr);
  EXPECT_EQ(fix.elements_repaired, 1);
  EXPECT_EQ(pruner.active_macs(shape), clean);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu("r");
  const Tensor y = relu.forward(Tensor({4}, {-1, 0, 2, -3}), false);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  EXPECT_FLOAT_EQ(y[3], 0.0f);
}

TEST(Softmax, RowsSumToOne) {
  Softmax sm("s");
  const Tensor y = sm.forward(random_tensor({3, 5}, 4).mul_(10.0f), false);
  for (int r = 0; r < 3; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 5; ++c) {
      EXPECT_GT(y.at(r, c), 0.0f);
      sum += y.at(r, c);
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, NumericallyStableForLargeLogits) {
  Softmax sm("s");
  const Tensor y = sm.forward(Tensor({1, 2}, {1000.0f, 1000.0f}), false);
  EXPECT_NEAR(y[0], 0.5f, 1e-6f);
  EXPECT_FALSE(std::isnan(y[0]));
}

TEST(Flatten, CollapsesTrailingDims) {
  Flatten f("f");
  const Tensor y = f.forward(random_tensor({2, 3, 4, 5}, 5), false);
  EXPECT_EQ(y.shape(), (Shape{2, 60}));
  EXPECT_EQ(f.output_shape({2, 3, 4, 5}), (Shape{2, 60}));
}

TEST(MaxPool, PicksWindowMaxima) {
  MaxPool mp("m", 2, 2);
  const Tensor x({1, 1, 2, 4}, {1, 5, 2, 0, 3, 4, 8, 1});
  const Tensor y = mp.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 2}));
  EXPECT_FLOAT_EQ(y[0], 5.0f);
  EXPECT_FLOAT_EQ(y[1], 8.0f);
}

TEST(MaxPool, InferencePathMatchesTrainingPath) {
  // The inference loop drops argmax tracking; it must keep the training
  // loop's (ki, kj) scan with `v > best` from -inf, so NaNs are passed
  // over and the first of tied values (+0 / -0) wins in both.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {nan, 0.0f, -0.0f, 0.5f, -0.5f, 1.0f, -inf};
  for (const auto& [k, stride] :
       {std::pair{2, 2}, std::pair{2, 1}, std::pair{3, 2}, std::pair{3, 1},
        std::pair{1, 1}}) {
    for (const Shape& shape : {Shape{2, 3, 7, 9}, Shape{1, 2, 5, 5}}) {
      Rng rng(static_cast<std::uint64_t>(k * 10 + stride));
      Tensor x(shape);
      for (float& v : x.data())
        v = values[rng.uniform_u64(std::size(values))];
      MaxPool mp("m", k, stride);
      const Tensor infer = mp.forward(x, false);
      const Tensor train = mp.forward(x, true);
      EXPECT_EQ(float_bits(infer.data()), float_bits(train.data()))
          << "k=" << k << " s=" << stride << " " << shape_str(shape);
    }
  }

  // Pinned cases: an all-NaN window gives -inf; a -0/+0 tie keeps the
  // first in scan order.
  const Tensor x({1, 1, 2, 4}, {nan, nan, -0.0f, 0.0f, nan, nan, 0.0f, -0.0f});
  for (bool training : {false, true}) {
    MaxPool mp("m", 2, 2);
    const Tensor y = mp.forward(x, training);
    EXPECT_EQ(y[0], -inf) << training;
    EXPECT_TRUE(y[1] == 0.0f && std::signbit(y[1])) << training;
  }
}

TEST(AvgPool, AveragesWindows) {
  AvgPool ap("a", 2, 2);
  const Tensor x({1, 1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = ap.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 2.5f);
}

TEST(GlobalAvgPool, ReducesToChannels) {
  GlobalAvgPool gap("g");
  Tensor x({2, 3, 2, 2});
  x.fill(2.0f);
  const Tensor y = gap.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 3}));
  EXPECT_FLOAT_EQ(y.at(1, 2), 2.0f);
}

TEST(BatchNorm, InferenceUsesRunningStats) {
  BatchNorm bn("b", 2);
  bn.running_mean() = Tensor({2}, {1.0f, 2.0f});
  bn.running_var() = Tensor({2}, {4.0f, 1.0f});
  bn.gamma() = Tensor({2}, {2.0f, 1.0f});
  bn.beta() = Tensor({2}, {0.0f, 10.0f});
  Tensor x({1, 2, 1, 1}, {3.0f, 2.0f});
  const Tensor y = bn.forward(x, false);
  // (3-1)/2 * 2 + 0 = 2 ; (2-2)/1 * 1 + 10 = 10
  EXPECT_NEAR(y[0], 2.0f, 1e-4f);
  EXPECT_NEAR(y[1], 10.0f, 1e-4f);
}

TEST(BatchNorm, TrainingNormalizesBatch) {
  BatchNorm bn("b", 1);
  Tensor x({4, 1}, {1, 2, 3, 4});
  const Tensor y = bn.forward(x, true);
  double mean = 0.0, var = 0.0;
  for (int i = 0; i < 4; ++i) mean += y[i];
  mean /= 4;
  for (int i = 0; i < 4; ++i) var += (y[i] - mean) * (y[i] - mean);
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 4, 1.0, 1e-3);
}

TEST(BatchNorm, RunningStatsMoveTowardBatch) {
  BatchNorm bn("b", 1, /*momentum=*/0.5f);
  Tensor x({2, 1}, {10.0f, 14.0f});  // mean 12
  bn.forward(x, true);
  EXPECT_NEAR(bn.running_mean()[0], 6.0f, 1e-4f);  // 0.5*0 + 0.5*12
}

TEST(BatchNorm, Supports2DAnd4D) {
  BatchNorm bn("b", 3);
  EXPECT_NO_THROW(bn.forward(Tensor({2, 3}), false));
  EXPECT_NO_THROW(bn.forward(Tensor({2, 3, 4, 4}), false));
  EXPECT_THROW(bn.forward(Tensor({2, 4}), false), PreconditionError);
}

TEST(Layers, CloneIsDeep) {
  Linear lin("l", 2, 2);
  lin.weight().fill(1.0f);
  auto clone = lin.clone();
  lin.weight().fill(2.0f);
  auto* cl = dynamic_cast<Linear*>(clone.get());
  ASSERT_NE(cl, nullptr);
  EXPECT_FLOAT_EQ(cl->weight()[0], 1.0f);
  EXPECT_EQ(cl->name(), "l");
}

TEST(Layers, CloneCarriesPrunableFlag) {
  Conv2D conv("c", 1, 2, 3, 1, 1);
  conv.set_out_prunable(false);
  auto clone = conv.clone();
  EXPECT_FALSE(dynamic_cast<Conv2D*>(clone.get())->out_prunable());
}

TEST(Layers, BackwardWithoutTrainingForwardThrows) {
  Linear lin("l", 2, 2);
  EXPECT_THROW(lin.backward(Tensor({1, 2})), PreconditionError);
  ReLU relu("r");
  EXPECT_THROW(relu.backward(Tensor({1, 2})), PreconditionError);
}

TEST(Layers, SoftmaxHasNoBackward) {
  Softmax sm("s");
  sm.forward(Tensor({1, 2}), true);
  EXPECT_THROW(sm.backward(Tensor({1, 2})), Error);
}

TEST(Layers, KindNamesStable) {
  EXPECT_STREQ(layer_kind_name(LayerKind::Conv2D), "Conv2D");
  EXPECT_STREQ(layer_kind_name(LayerKind::Residual), "Residual");
}

}  // namespace
}  // namespace rrp::nn
