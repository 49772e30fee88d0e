// DepthwiseConv2D: forward/backward correctness, channel-coupled pruning
// semantics, compaction equivalence, serialization, MobileNet integration.
#include <gtest/gtest.h>

#include "core/reversible_pruner.h"
#include "models/zoo.h"
#include "nn/serialize.h"
#include "prune/compact.h"
#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::nn {
namespace {

using rrp::testing::gradient_check;
using rrp::testing::random_tensor;

TEST(Depthwise, IdentityKernelPassesThrough) {
  DepthwiseConv2D dw("d", 2, 3, 1, 1);
  dw.weight().fill(0.0f);
  dw.weight().at(0, 0, 1, 1) = 1.0f;
  dw.weight().at(1, 0, 1, 1) = 1.0f;
  const Tensor x = random_tensor({1, 2, 5, 5}, 1);
  const Tensor y = dw.forward(x, false);
  EXPECT_NEAR(y.max_abs_diff(x), 0.0f, 1e-6f);
}

TEST(Depthwise, ChannelsAreIndependent) {
  DepthwiseConv2D dw("d", 2, 3, 1, 1);
  Rng rng(2);
  for (float& v : dw.weight().data())
    v = static_cast<float>(rng.uniform(-1, 1));
  // Zeroing channel 1's input must not change channel 0's output.
  Tensor x = random_tensor({1, 2, 5, 5}, 3);
  const Tensor y_full = dw.forward(x, false);
  for (int i = 0; i < 25; ++i) x[25 + i] = 0.0f;  // channel 1 plane
  const Tensor y_zeroed = dw.forward(x, false);
  for (int i = 0; i < 25; ++i)
    EXPECT_EQ(y_full[i], y_zeroed[i]) << "channel 0 output changed at " << i;
}

TEST(Depthwise, MatchesEquivalentGroupedDenseConv) {
  // A depthwise conv equals a dense conv whose cross-channel taps are zero.
  const int c = 3, k = 3;
  DepthwiseConv2D dw("d", c, k, 1, 1);
  Conv2D dense("c", c, c, k, 1, 1);
  dense.weight().fill(0.0f);
  Rng rng(4);
  for (int ch = 0; ch < c; ++ch)
    for (int a = 0; a < k; ++a)
      for (int b = 0; b < k; ++b) {
        const float v = static_cast<float>(rng.uniform(-1, 1));
        dw.weight().at(ch, 0, a, b) = v;
        dense.weight().at(ch, ch, a, b) = v;
      }
  for (int ch = 0; ch < c; ++ch) {
    const float b = static_cast<float>(rng.uniform(-1, 1));
    dw.bias()[ch] = b;
    dense.bias()[ch] = b;
  }
  const Tensor x = random_tensor({2, c, 6, 6}, 5);
  EXPECT_LT(dw.forward(x, false).max_abs_diff(dense.forward(x, false)),
            1e-5f);
}

TEST(Depthwise, StrideAndPaddingGeometry) {
  DepthwiseConv2D dw("d", 4, 3, 2, 1);
  EXPECT_EQ(dw.output_shape({1, 4, 8, 8}), (Shape{1, 4, 4, 4}));
  EXPECT_EQ(dw.macs({1, 4, 8, 8}), 4LL * 9 * 4 * 4);
  EXPECT_THROW(dw.forward(Tensor({1, 3, 8, 8}), false), PreconditionError);
}

TEST(Depthwise, EffectiveMacsTrackSparsity) {
  DepthwiseConv2D dw("d", 2, 3, 1, 1);
  dw.weight().fill(1.0f);
  const Shape in{1, 2, 8, 8};
  const std::int64_t dense = dw.effective_macs(in);
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) dw.weight().at(0, 0, a, b) = 0.0f;
  EXPECT_EQ(dw.effective_macs(in), dense / 2);
}

TEST(Depthwise, GradientCheck) {
  Network net("n");
  net.emplace<Conv2D>("c", 1, 3, 3, 1, 1);
  net.emplace<ReLU>("r1");
  net.emplace<DepthwiseConv2D>("dw", 3, 3, 1, 1);
  net.emplace<ReLU>("r2");
  net.emplace<GlobalAvgPool>("gap");
  net.emplace<Linear>("fc", 3, 3);
  Rng rng(6);
  init_network(net, rng);
  const Tensor x = random_tensor({2, 1, 6, 6}, 7);
  EXPECT_LT(gradient_check(net, x, {0, 2}), 0.05);
}

TEST(Depthwise, SerializationRoundTrip) {
  Network net("n");
  auto& dw = net.emplace<DepthwiseConv2D>("dw", 3, 3, 2, 1);
  dw.set_out_prunable(false);
  Rng rng(8);
  init_network(net, rng);
  Network copy = nn::deserialize_network(nn::serialize_network(net));
  auto* dw2 = dynamic_cast<DepthwiseConv2D*>(copy.find("dw"));
  ASSERT_NE(dw2, nullptr);
  EXPECT_EQ(dw2->channels(), 3);
  EXPECT_EQ(dw2->stride(), 2);
  EXPECT_FALSE(dw2->out_prunable());
  EXPECT_TRUE(dw2->weight().equals(dw.weight()));
  const Tensor x = random_tensor({1, 3, 7, 7}, 9);
  EXPECT_TRUE(net.forward(x, false).equals(copy.forward(x, false)));
}

}  // namespace
}  // namespace rrp::nn

namespace rrp::prune {
namespace {

using rrp::testing::random_tensor;

/// stem conv -> depthwise -> pointwise -> gap -> head; stem prunable.
nn::Network sep_net(std::uint64_t seed) {
  nn::Network net("sep");
  net.emplace<nn::Conv2D>("stem", 1, 6, 3, 1, 1);
  net.emplace<nn::ReLU>("r1");
  auto& dw = net.emplace<nn::DepthwiseConv2D>("dw", 6, 3, 1, 1);
  dw.set_out_prunable(false);  // follows stem's liveness
  net.emplace<nn::ReLU>("r2");
  net.emplace<nn::Conv2D>("pw", 6, 8, 1, 1, 0);
  net.emplace<nn::ReLU>("r3");
  net.emplace<nn::GlobalAvgPool>("gap");
  auto& head = net.emplace<nn::Linear>("head", 8, 3);
  head.set_out_prunable(false);
  Rng rng(seed);
  nn::init_network(net, rng);
  return net;
}

TEST(DepthwisePrune, UpstreamPruningKillsDepthwiseChannels) {
  nn::Network net = sep_net(1);
  ChannelMask cm{"stem", {1, 0, 1, 0, 1, 1}};
  const NetworkMask mask = lower_channel_masks(net, {cm}, {1, 1, 8, 8});
  const auto* dw_keep = mask.find("dw.weight");
  ASSERT_NE(dw_keep, nullptr);
  // channels 1 and 3 dead -> their 9 filter taps pruned
  for (int t = 0; t < 9; ++t) {
    EXPECT_EQ((*dw_keep)[9 + t], 0);
    EXPECT_EQ((*dw_keep)[27 + t], 0);
    EXPECT_EQ((*dw_keep)[t], 1);
  }
  // depthwise bias must be zeroed for dead channels too
  const auto* db = mask.find("dw.bias");
  ASSERT_NE(db, nullptr);
  EXPECT_EQ((*db)[1], 0);
  EXPECT_EQ((*db)[0], 1);
  // and the pointwise consumer's input slices
  const auto* pw_keep = mask.find("pw.weight");
  ASSERT_NE(pw_keep, nullptr);
}

TEST(DepthwisePrune, MaskedEqualsCompacted) {
  for (double ratio : {0.2, 0.4, 0.6}) {
    nn::Network net = sep_net(2);
    const auto lib =
        PruneLevelLibrary::build_structured(net, {0.0, ratio}, {1, 1, 8, 8});
    const auto& masks = lib.channel_masks(1);
    nn::Network masked = net.clone();
    lower_channel_masks(masked, masks, {1, 1, 8, 8}).apply(masked);
    nn::Network compacted = compact_network(net, masks, {1, 1, 8, 8});
    const nn::Tensor x = random_tensor({2, 1, 8, 8}, 3);
    EXPECT_LT(masked.forward(x, false).max_abs_diff(
                  compacted.forward(x, false)),
              1e-4f)
        << "ratio " << ratio;
    auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(compacted.find("dw"));
    ASSERT_NE(dw, nullptr);
    EXPECT_LT(dw->channels(), 6);  // physically shrunk with its producer
  }
}

TEST(DepthwisePrune, NonPrunableDepthwiseRejectsDirectMask) {
  nn::Network net = sep_net(4);
  ChannelMask cm{"dw", {1, 0, 1, 0, 1, 1}};
  EXPECT_THROW(lower_channel_masks(net, {cm}, {1, 1, 8, 8}),
               PreconditionError);
}

TEST(DepthwisePrune, ReversibleWalkOnSeparableNet) {
  nn::Network net = sep_net(5);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  auto lib = PruneLevelLibrary::build_structured(net, {0.0, 0.3, 0.6},
                                                 {1, 1, 8, 8});
  EXPECT_TRUE(lib.verify_nested());
  {
    core::ReversiblePruner rp(net, std::move(lib));
    Rng rng(6);
    for (int i = 0; i < 20; ++i)
      rp.set_level(rng.uniform_int(0, rp.level_count() - 1));
  }
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

TEST(DepthwisePrune, MobileNetLiteProvisionable) {
  Rng rng(7);
  nn::Network net = models::build_model(models::ModelKind::MobileNetLite, rng);
  EXPECT_EQ(net.output_shape(models::zoo_input_shape()),
            (nn::Shape{1, models::zoo_num_classes()}));
  auto lib = PruneLevelLibrary::build_structured(
      net, {0.0, 0.3, 0.6}, models::zoo_input_shape(),
      ImportanceMetric::L1, 2);
  EXPECT_TRUE(lib.verify_nested());
  // Compacted level must shrink both pointwise AND depthwise layers.
  nn::Network c =
      compact_network(net, lib.channel_masks(2), models::zoo_input_shape());
  auto* dw2 = dynamic_cast<nn::DepthwiseConv2D*>(c.find("dw2"));
  ASSERT_NE(dw2, nullptr);
  EXPECT_LT(dw2->channels(), 32);
  const nn::Tensor x = random_tensor({1, 1, 16, 16}, 8);
  nn::Network masked = net.clone();
  lib.mask(2).apply(masked);
  EXPECT_LT(masked.forward(x, false).max_abs_diff(c.forward(x, false)),
            1e-4f);
}

}  // namespace
}  // namespace rrp::prune
