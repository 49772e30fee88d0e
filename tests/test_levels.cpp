#include <gtest/gtest.h>

#include <algorithm>

#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::prune {
namespace {

using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;
using rrp::testing::tiny_residual_net;

const std::vector<double> kRatios{0.0, 0.25, 0.5, 0.75};

TEST(Levels, UnstructuredLaddersAreNested) {
  nn::Network net = tiny_conv_net(1);
  const auto lib = PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_EQ(lib.level_count(), 4);
  EXPECT_FALSE(lib.structured());
  EXPECT_TRUE(lib.verify_nested());
}

TEST(Levels, StructuredLaddersAreNested) {
  nn::Network net = tiny_conv_net(2);
  const auto lib =
      PruneLevelLibrary::build_structured(net, kRatios, tiny_input_shape());
  EXPECT_TRUE(lib.structured());
  EXPECT_TRUE(lib.verify_nested());
}

TEST(Levels, ResidualStructuredNested) {
  nn::Network net = tiny_residual_net(3);
  const auto lib =
      PruneLevelLibrary::build_structured(net, kRatios, tiny_input_shape());
  EXPECT_TRUE(lib.verify_nested());
}

TEST(Levels, LevelZeroIsEmptyMask) {
  nn::Network net = tiny_conv_net(4);
  const auto lib = PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_EQ(lib.mask(0).pruned_count(), 0);
  EXPECT_EQ(lib.ratio(0), 0.0);
}

TEST(Levels, SparsityIncreasesMonotonically) {
  nn::Network net = tiny_conv_net(5);
  for (bool structured : {false, true}) {
    const auto lib =
        structured ? PruneLevelLibrary::build_structured(net, kRatios,
                                                         tiny_input_shape())
                   : PruneLevelLibrary::build_unstructured(net, kRatios);
    const auto sparsity = lib.achieved_sparsity(net);
    for (std::size_t k = 1; k < sparsity.size(); ++k)
      EXPECT_GT(sparsity[k], sparsity[k - 1]) << "structured=" << structured;
  }
}

TEST(Levels, UnstructuredSparsityTracksRatios) {
  nn::Network net = tiny_conv_net(6);
  const auto lib = PruneLevelLibrary::build_unstructured(net, kRatios);
  const auto sparsity = lib.achieved_sparsity(net);
  for (std::size_t k = 1; k < sparsity.size(); ++k)
    EXPECT_NEAR(sparsity[k], kRatios[k], 0.05);
}

TEST(Levels, ChannelMasksOnlyInStructuredMode) {
  nn::Network net = tiny_conv_net(7);
  const auto ulib = PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_THROW(ulib.channel_masks(1), PreconditionError);
  const auto slib =
      PruneLevelLibrary::build_structured(net, kRatios, tiny_input_shape());
  EXPECT_TRUE(slib.channel_masks(0).empty());
  EXPECT_FALSE(slib.channel_masks(3).empty());
}

TEST(Levels, StructuredChannelMasksAreNestedPerLayer) {
  nn::Network net = tiny_conv_net(8);
  const auto lib =
      PruneLevelLibrary::build_structured(net, kRatios, tiny_input_shape());
  for (int k = 1; k + 1 < lib.level_count(); ++k) {
    for (const auto& cm : lib.channel_masks(k)) {
      const auto* finer = find_channel_mask(lib.channel_masks(k + 1),
                                            cm.layer_name);
      if (finer == nullptr) continue;
      for (std::size_t c = 0; c < cm.keep.size(); ++c)
        if (cm.keep[c] == 0) {
          EXPECT_EQ(finer->keep[c], 0);
        }
    }
  }
}

TEST(Levels, RatioValidation) {
  nn::Network net = tiny_conv_net(9);
  EXPECT_THROW(PruneLevelLibrary::build_unstructured(net, {}),
               PreconditionError);
  EXPECT_THROW(PruneLevelLibrary::build_unstructured(net, {0.1, 0.5}),
               PreconditionError);  // must start at 0
  EXPECT_THROW(PruneLevelLibrary::build_unstructured(net, {0.0, 0.5, 0.5}),
               PreconditionError);  // strictly increasing
  EXPECT_THROW(PruneLevelLibrary::build_unstructured(net, {0.0, 1.0}),
               PreconditionError);  // < 1
}

TEST(Levels, AccessorBounds) {
  nn::Network net = tiny_conv_net(10);
  const auto lib = PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_THROW(lib.mask(-1), PreconditionError);
  EXPECT_THROW(lib.mask(4), PreconditionError);
  EXPECT_THROW(lib.ratio(4), PreconditionError);
}

TEST(Levels, StorageBytesPositiveOnceLeveled) {
  nn::Network net = tiny_conv_net(11);
  const auto lib = PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_GT(lib.storage_bytes(), 0);
}

TEST(Levels, DefaultConstructedIsEmpty) {
  PruneLevelLibrary lib;
  EXPECT_EQ(lib.level_count(), 0);
}

TEST(Levels, MinChannelsRespectedInStructured) {
  nn::Network net = tiny_conv_net(12);
  const auto lib = PruneLevelLibrary::build_structured(
      net, {0.0, 0.9}, tiny_input_shape(), ImportanceMetric::L1,
      /*min_channels=*/3);
  for (const auto& cm : lib.channel_masks(1)) EXPECT_GE(cm.kept_count(), 3u);
}

TEST(Levels, UnstructuredPrunesSmallestMagnitudesFirst) {
  nn::Network net("n");
  auto& lin = net.emplace<nn::Linear>("fc", 4, 1, false);
  lin.weight() = nn::Tensor({1, 4}, {0.1f, -5.0f, 0.2f, 4.0f});
  const auto lib = PruneLevelLibrary::build_unstructured(net, {0.0, 0.5});
  const auto* keep = lib.mask(1).find("fc.weight");
  ASSERT_NE(keep, nullptr);
  EXPECT_EQ((*keep)[0], 0);  // 0.1 pruned
  EXPECT_EQ((*keep)[1], 1);  // -5 kept
  EXPECT_EQ((*keep)[2], 0);  // 0.2 pruned
  EXPECT_EQ((*keep)[3], 1);  // 4 kept
}

TEST(Levels, UnstructuredNeverZeroesWholeTensor) {
  // The global ranking puts all of "tiny" below "big": at 0.99 its whole
  // tensor falls under the cut, but one element must survive.
  nn::Network net("n");
  auto& tiny = net.emplace<nn::Linear>("tiny", 2, 1, false);
  tiny.weight() = nn::Tensor({1, 2}, {1e-9f, 1e-9f});
  auto& big = net.emplace<nn::Linear>("big", 1, 8, false);
  big.weight() = nn::Tensor({8, 1}, {1, 2, 3, 4, 5, 6, 7, 8});
  const auto lib = PruneLevelLibrary::build_unstructured(net, {0.0, 0.99});
  for (const char* name : {"tiny.weight", "big.weight"}) {
    const auto* keep = lib.mask(1).find(name);
    ASSERT_NE(keep, nullptr) << name;
    EXPECT_EQ(std::count(keep->begin(), keep->end(), 1), 1) << name;
  }
}

TEST(Levels, StructuredPrunesLowestScoringChannels) {
  nn::Network net("n");
  auto& conv = net.emplace<nn::Conv2D>("c", 1, 3, 2, 1, 0, false);
  conv.weight().fill(0.0f);
  conv.weight().at(0, 0, 0, 0) = 3.0f;
  conv.weight().at(1, 0, 0, 0) = 0.1f;
  conv.weight().at(2, 0, 0, 0) = 2.0f;
  const auto lib =
      PruneLevelLibrary::build_structured(net, {0.0, 0.4}, {1, 1, 4, 4});
  const auto& masks = lib.channel_masks(1);
  ASSERT_EQ(masks.size(), 1u);
  EXPECT_EQ(masks[0].keep[1], 0);  // weakest channel pruned
  EXPECT_EQ(masks[0].keep[0], 1);
  EXPECT_EQ(masks[0].keep[2], 1);
}

TEST(PrunableLayers, ExcludesPinnedOutputs) {
  nn::Network net = tiny_conv_net(5);
  const auto layers = prunable_layers(net);
  std::vector<std::string> names;
  for (auto* l : layers) names.push_back(l->name());
  EXPECT_NE(std::find(names.begin(), names.end(), "conv1"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "fc1"), names.end());
  EXPECT_EQ(std::find(names.begin(), names.end(), "head"), names.end());
}

}  // namespace
}  // namespace rrp::prune
