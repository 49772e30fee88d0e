#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "nn/gemm_kernels.h"
#include "nn/layers.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/rng.h"

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

TEST(Conv2D, ForwardMatchesReferenceIm2colGemm) {
  const int n = 2, in_ch = 3, out_ch = 5;
  for (const auto& [h, w] : {std::pair{7, 6}, std::pair{5, 9}}) {
    for (int k : {1, 3, 5}) {
      for (int stride : {1, 2}) {
        for (int pad : {0, 1, 2}) {
          const std::string tag = std::to_string(h) + "x" + std::to_string(w) +
                                  " k=" + std::to_string(k) +
                                  " s=" + std::to_string(stride) +
                                  " p=" + std::to_string(pad);
          Conv2D conv("c", in_ch, out_ch, k, stride, pad);
          conv.weight() = random_tensor({out_ch, in_ch, k, k}, 11);
          for (std::int64_t i = 0; i < conv.weight().numel(); i += 3)
            conv.weight()[i] = 0.0f;  // exercise the zero-skip
          conv.bias() = random_tensor({out_ch}, 12);
          const Tensor x = random_tensor({n, in_ch, h, w}, 13);
          const Tensor y = conv.forward(x, false);

          const int oh = (h + 2 * pad - k) / stride + 1;
          const int ow = (w + 2 * pad - k) / stride + 1;
          const std::int64_t rows = static_cast<std::int64_t>(in_ch) * k * k;
          const std::int64_t cols = static_cast<std::int64_t>(oh) * ow;
          std::vector<float> col(static_cast<std::size_t>(rows * cols));
          Tensor want({n, out_ch, oh, ow});
          for (int s = 0; s < n; ++s) {
            reference_im2col(x.raw() + s * in_ch * h * w, in_ch, h, w, k,
                             stride, pad, oh, ow, col.data());
            float* out = want.raw() + s * out_ch * cols;
            kernels::gemm_rows_reference(0, out_ch, cols, rows, 1.0f,
                                         conv.weight().raw(), rows, col.data(),
                                         cols, 0.0f, out, cols);
            for (int c = 0; c < out_ch; ++c)
              for (std::int64_t i = 0; i < cols; ++i)
                out[c * cols + i] += conv.bias()[c];
          }
          ASSERT_EQ(y.shape(), want.shape()) << tag;
          EXPECT_EQ(float_bits(y.data()), float_bits(want.data()))
              << tag;
        }
      }
    }
  }
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
