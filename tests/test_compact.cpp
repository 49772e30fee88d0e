// Compaction fidelity: the physically shrunk network must be numerically
// equivalent to the masked network — invariant #3 of DESIGN.md.
#include <gtest/gtest.h>

#include "prune/compact.h"
#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::prune {
namespace {

using rrp::testing::random_tensor;
using rrp::testing::tiny_bn_net;
using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;
using rrp::testing::tiny_residual_net;

void randomize(nn::Network& net, std::uint64_t seed) {
  Rng rng(seed);
  for (auto& p : net.params())
    for (float& v : p.value->data())
      v = static_cast<float>(rng.uniform(-1.0, 1.0));
}

void expect_equivalent(nn::Network& original, double ratio,
                       std::uint64_t seed) {
  const auto lib = PruneLevelLibrary::build_structured(
      original, {0.0, ratio}, tiny_input_shape());
  const auto& masks = lib.channel_masks(1);
  nn::Network masked = original.clone();
  lower_channel_masks(masked, masks, tiny_input_shape()).apply(masked);
  nn::Network compacted =
      compact_network(original, masks, tiny_input_shape());

  const nn::Tensor x = random_tensor({3, 1, 8, 8}, seed);
  const nn::Tensor ym = masked.forward(x, false);
  const nn::Tensor yc = compacted.forward(x, false);
  ASSERT_EQ(ym.shape(), yc.shape());
  EXPECT_LT(ym.max_abs_diff(yc), 1e-4f) << "ratio " << ratio;
  EXPECT_LT(compacted.param_count(), original.param_count());
}

class CompactRatios : public ::testing::TestWithParam<double> {};

TEST_P(CompactRatios, ConvNetEquivalence) {
  nn::Network net = tiny_conv_net(1);
  randomize(net, 2);
  expect_equivalent(net, GetParam(), 3);
}

TEST_P(CompactRatios, BnNetEquivalence) {
  nn::Network net = tiny_bn_net(4);
  randomize(net, 5);
  // Give BN meaningful running stats.
  auto* bn = dynamic_cast<nn::BatchNorm*>(net.find("bn1"));
  for (int c = 0; c < 6; ++c) {
    bn->running_mean()[c] = 0.1f * c;
    bn->running_var()[c] = 1.0f + 0.2f * c;
  }
  expect_equivalent(net, GetParam(), 6);
}

TEST_P(CompactRatios, ResidualNetEquivalence) {
  nn::Network net = tiny_residual_net(7);
  randomize(net, 8);
  expect_equivalent(net, GetParam(), 9);
}

INSTANTIATE_TEST_SUITE_P(Ratios, CompactRatios,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Compact, NoMasksIsStructuralClone) {
  nn::Network net = tiny_conv_net(10);
  nn::Network c = compact_network(net, {}, tiny_input_shape());
  EXPECT_EQ(c.param_count(), net.param_count());
  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 11);
  EXPECT_TRUE(net.forward(x, false).equals(c.forward(x, false)));
}

TEST(Compact, ShrinksConvAndDownstreamLinear) {
  nn::Network net = tiny_conv_net(12);
  ChannelMask cm{"conv1", {1, 0, 1, 0, 1, 0}};
  nn::Network c = compact_network(net, {cm}, tiny_input_shape());
  auto* conv1 = dynamic_cast<nn::Conv2D*>(c.find("conv1"));
  ASSERT_NE(conv1, nullptr);
  EXPECT_EQ(conv1->out_channels(), 3);
  auto* fc1 = dynamic_cast<nn::Linear*>(c.find("fc1"));
  EXPECT_EQ(fc1->in_features(), 3 * 4 * 4);
}

TEST(Compact, GathersSurvivingWeightsInOrder) {
  nn::Network net("n");
  auto& conv = net.emplace<nn::Conv2D>("c", 1, 3, 1, 1, 0);
  conv.weight() = nn::Tensor({3, 1, 1, 1}, {10, 20, 30});
  conv.bias() = nn::Tensor({3}, {1, 2, 3});
  ChannelMask cm{"c", {1, 0, 1}};
  nn::Network c = compact_network(net, {cm}, {1, 1, 4, 4});
  auto* cc = dynamic_cast<nn::Conv2D*>(c.find("c"));
  EXPECT_FLOAT_EQ(cc->weight()[0], 10.0f);
  EXPECT_FLOAT_EQ(cc->weight()[1], 30.0f);
  EXPECT_FLOAT_EQ(cc->bias()[0], 1.0f);
  EXPECT_FLOAT_EQ(cc->bias()[1], 3.0f);
}

TEST(Compact, ShrinksBatchNorm) {
  nn::Network net = tiny_bn_net(13);
  ChannelMask cm{"conv1", {1, 1, 0, 0, 1, 1}};
  nn::Network c = compact_network(net, {cm}, tiny_input_shape());
  auto* bn = dynamic_cast<nn::BatchNorm*>(c.find("bn1"));
  ASSERT_NE(bn, nullptr);
  EXPECT_EQ(bn->channels(), 4);
}

TEST(Compact, ReducesMacs) {
  nn::Network net = tiny_conv_net(14);
  const auto lib =
      PruneLevelLibrary::build_structured(net, {0.0, 0.5}, tiny_input_shape());
  const auto& masks = lib.channel_masks(1);
  nn::Network c = compact_network(net, masks, tiny_input_shape());
  EXPECT_LT(c.macs(tiny_input_shape()), net.macs(tiny_input_shape()));
}

TEST(Compact, RejectsPrunedActivationIntoResidual) {
  // Build a net where a PRUNABLE conv feeds a residual block: compaction
  // must refuse (the identity shortcut pins the width).
  nn::Network net("bad");
  net.emplace<nn::Conv2D>("stem", 1, 4, 3, 1, 1);  // prunable (default)
  {
    nn::Network body("b");
    auto& c = body.emplace<nn::Conv2D>("block.conv", 4, 4, 3, 1, 1);
    c.set_out_prunable(false);
    net.add(std::make_unique<nn::Residual>("block", std::move(body)));
  }
  Rng rng(15);
  nn::init_network(net, rng);
  ChannelMask cm{"stem", {1, 0, 1, 1}};
  EXPECT_THROW(compact_network(net, {cm}, {1, 1, 8, 8}), PreconditionError);
}

TEST(Compact, ResidualInternalPruningWorks) {
  nn::Network net = tiny_residual_net(16);
  ChannelMask cm{"block.conv1", {1, 0, 1, 0, 1, 1}};
  nn::Network c = compact_network(net, {cm}, tiny_input_shape());
  auto* conv1 = dynamic_cast<nn::Conv2D*>(c.find("block.conv1"));
  EXPECT_EQ(conv1->out_channels(), 4);
  auto* conv2 = dynamic_cast<nn::Conv2D*>(c.find("block.conv2"));
  EXPECT_EQ(conv2->in_channels(), 4);
  EXPECT_EQ(conv2->out_channels(), 6);  // pinned by the identity add
}

TEST(Compact, LevelLibraryLevelsAllCompact) {
  nn::Network net = tiny_conv_net(17);
  randomize(net, 18);
  const auto lib = PruneLevelLibrary::build_structured(
      net, {0.0, 0.3, 0.6}, tiny_input_shape());
  const nn::Tensor x = random_tensor({2, 1, 8, 8}, 19);
  for (int k = 0; k < lib.level_count(); ++k) {
    nn::Network masked = net.clone();
    lib.mask(k).apply(masked);
    nn::Network compacted =
        compact_network(net, lib.channel_masks(k), tiny_input_shape());
    EXPECT_LT(masked.forward(x, false).max_abs_diff(
                  compacted.forward(x, false)),
              1e-4f)
        << "level " << k;
  }
}

}  // namespace
}  // namespace rrp::prune
