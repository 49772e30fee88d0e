#include <gtest/gtest.h>

#include <cmath>

#include "nn/train.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::nn {
namespace {

using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_dataset;

TEST(Dataset, BatchStacksSamples) {
  const Dataset data = tiny_dataset(10, 1);
  std::vector<std::size_t> order{3, 7, 1};
  std::vector<int> labels;
  const Tensor batch = data.batch(order, 0, 3, &labels);
  EXPECT_EQ(batch.shape(), (Shape{3, 1, 8, 8}));
  ASSERT_EQ(labels.size(), 3u);
  EXPECT_EQ(labels[0], data.labels[3]);
  EXPECT_EQ(labels[2], data.labels[1]);
  // First sample copied verbatim.
  for (std::int64_t i = 0; i < 64; ++i)
    EXPECT_EQ(batch[i], data.inputs[3][i]);
}

TEST(Dataset, BatchValidatesRange) {
  const Dataset data = tiny_dataset(4, 2);
  std::vector<std::size_t> order{0, 1, 2, 3};
  EXPECT_THROW(data.batch(order, 3, 2, nullptr), PreconditionError);
  EXPECT_THROW(data.batch(order, 0, 0, nullptr), PreconditionError);
}

TEST(Train, LossDecreasesOnSeparableTask) {
  Network net = tiny_conv_net(10);
  const Dataset data = tiny_dataset(200, 11);
  SgdConfig cfg;
  cfg.epochs = 4;
  cfg.lr = 0.05f;
  Rng rng(12);
  const auto history = train_sgd(net, data, cfg, rng);
  ASSERT_EQ(history.size(), 4u);
  EXPECT_LT(history.back().train_loss, history.front().train_loss);
  EXPECT_GT(history.back().train_accuracy, 0.8);
}

TEST(Train, DeterministicForFixedSeed) {
  const Dataset data = tiny_dataset(100, 20);
  Network a = tiny_conv_net(21);
  Network b = tiny_conv_net(21);
  SgdConfig cfg;
  cfg.epochs = 2;
  Rng r1(22), r2(22);
  train_sgd(a, data, cfg, r1);
  train_sgd(b, data, cfg, r2);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i].value->equals(*pb[i].value)) << pa[i].name;
}

// Plain SGD has no sparsity guard: a pruned (zeroed) weight regrows.
TEST(Train, WithoutFreezeZerosWeightsRegrow) {
  Network net = tiny_conv_net(40);
  auto* fc1 = dynamic_cast<Linear*>(net.find("fc1"));
  // Zero half the weights (keeping the layer alive so gradients flow).
  for (std::int64_t i = 0; i < fc1->weight().numel(); i += 2)
    fc1->weight()[i] = 0.0f;
  const Dataset data = tiny_dataset(100, 41);
  SgdConfig cfg;
  cfg.epochs = 1;
  Rng rng(42);
  train_sgd(net, data, cfg, rng);
  std::int64_t regrown = 0;
  for (std::int64_t i = 0; i < fc1->weight().numel(); i += 2)
    regrown += (fc1->weight()[i] != 0.0f);
  EXPECT_GT(regrown, 0);
}

TEST(Train, EmptyDatasetThrows) {
  Network net = tiny_conv_net(50);
  Dataset empty;
  SgdConfig cfg;
  Rng rng(51);
  EXPECT_THROW(train_sgd(net, empty, cfg, rng), PreconditionError);
}

TEST(Evaluate, AccuracyAndLossAgreeWithTraining) {
  Network net = tiny_conv_net(60);
  const Dataset data = tiny_dataset(200, 61);
  rrp::testing::quick_train(net, data, 4);
  const double acc = evaluate_accuracy(net, data);
  EXPECT_GT(acc, 0.8);
  const double loss = evaluate_loss(net, data);
  EXPECT_LT(loss, 1.0);
  EXPECT_GT(loss, 0.0);
}

TEST(Evaluate, EmptyDatasetIsZero) {
  Network net = tiny_conv_net(70);
  Dataset empty;
  EXPECT_DOUBLE_EQ(evaluate_accuracy(net, empty), 0.0);
  EXPECT_DOUBLE_EQ(evaluate_loss(net, empty), 0.0);
}

TEST(Optimizer, MomentumAcceleratesAlongConstantGradient) {
  // One Linear with constant artificial gradient: with momentum, step
  // sizes must grow across iterations.
  Network net("n");
  auto& lin = net.emplace<Linear>("fc", 1, 1, false);
  lin.weight()[0] = 0.0f;
  SgdConfig cfg;
  cfg.lr = 0.1f;
  cfg.momentum = 0.9f;
  cfg.weight_decay = 0.0f;
  SgdOptimizer opt(net, cfg);

  float prev = 0.0f, prev_step = 0.0f;
  for (int i = 0; i < 3; ++i) {
    net.zero_grad();
    (*net.params()[0].grad)[0] = 1.0f;
    opt.step();
    const float step = std::fabs(lin.weight()[0] - prev);
    if (i > 0) {
      EXPECT_GT(step, prev_step);
    }
    prev_step = step;
    prev = lin.weight()[0];
  }
}

}  // namespace
}  // namespace rrp::nn
