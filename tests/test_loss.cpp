#include <gtest/gtest.h>

#include <cmath>

#include "nn/loss.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::nn {
namespace {

TEST(SoftmaxCE, UniformLogitsGiveLogK) {
  const Tensor logits({2, 4});  // all zeros
  const LossResult r = softmax_cross_entropy(logits, {0, 3});
  EXPECT_NEAR(r.loss, std::log(4.0f), 1e-5f);
}

TEST(SoftmaxCE, ConfidentCorrectIsLowLoss) {
  Tensor logits({1, 3}, {10.0f, -10.0f, -10.0f});
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.loss, 1e-4f);
}

TEST(SoftmaxCE, ConfidentWrongIsHighLoss) {
  Tensor logits({1, 3}, {10.0f, -10.0f, -10.0f});
  const LossResult r = softmax_cross_entropy(logits, {1});
  EXPECT_GT(r.loss, 10.0f);
}

TEST(SoftmaxCE, GradientRowsSumToZero) {
  const Tensor logits = rrp::testing::random_tensor({3, 5}, 1);
  const LossResult r = softmax_cross_entropy(logits, {0, 2, 4});
  for (int i = 0; i < 3; ++i) {
    double s = 0.0;
    for (int c = 0; c < 5; ++c) s += r.grad.at(i, c);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(SoftmaxCE, GradientMatchesNumeric) {
  Tensor logits = rrp::testing::random_tensor({2, 4}, 2);
  const std::vector<int> labels{1, 3};
  const LossResult r = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const float numeric = (softmax_cross_entropy(lp, labels).loss -
                           softmax_cross_entropy(lm, labels).loss) /
                          (2 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 5e-3f) << "logit " << i;
  }
}

TEST(SoftmaxCE, ValidatesInput) {
  EXPECT_THROW(softmax_cross_entropy(Tensor({2, 3}), {0}), PreconditionError);
  EXPECT_THROW(softmax_cross_entropy(Tensor({1, 3}), {3}), PreconditionError);
  EXPECT_THROW(softmax_cross_entropy(Tensor({1, 3}), {-1}), PreconditionError);
}

TEST(Argmax, PicksLargestPerRow) {
  const Tensor logits({2, 3}, {1, 5, 2, 9, 0, 3});
  const auto idx = argmax_rows(logits);
  EXPECT_EQ(idx[0], 1);
  EXPECT_EQ(idx[1], 0);
}

TEST(Accuracy, CountsMatches) {
  const Tensor logits({3, 2}, {1, 0, 0, 1, 1, 0});
  EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

TEST(Accuracy, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(accuracy(Tensor({1, 2}), std::vector<int>{0}), 1.0);
}

}  // namespace
}  // namespace rrp::nn
