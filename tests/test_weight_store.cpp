#include <gtest/gtest.h>

#include <cstring>

#include "core/weight_store.h"
#include "prune/levels.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

using rrp::testing::tiny_conv_net;

TEST(WeightStore, SnapshotCapturesAllParams) {
  nn::Network net = tiny_conv_net(1);
  const WeightStore store = WeightStore::snapshot(net);
  EXPECT_EQ(store.param_count(), net.params().size());
  EXPECT_EQ(store.total_elements(), net.param_count());
  EXPECT_EQ(store.total_bytes(), net.param_count() * 4);
  EXPECT_TRUE(store.has("conv1.weight"));
  EXPECT_FALSE(store.has("ghost"));
}

TEST(WeightStore, GetReturnsGoldenValues) {
  nn::Network net = tiny_conv_net(2);
  const float orig = net.params()[0].value->data()[0];
  const WeightStore store = WeightStore::snapshot(net);
  net.params()[0].value->fill(0.0f);
  EXPECT_EQ(store.get(net.params()[0].name)[0], orig);
  EXPECT_THROW(store.get("ghost"), PreconditionError);
}

TEST(WeightStore, RestoreAllIsBitExact) {
  nn::Network net = tiny_conv_net(3);
  std::vector<nn::Tensor> before;
  for (auto& p : net.params()) before.push_back(*p.value);
  const WeightStore store = WeightStore::snapshot(net);
  for (auto& p : net.params()) p.value->fill(-7.0f);
  store.restore_all(net);
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(before[i])) << after[i].name;
}

TEST(WeightStore, ApplyMaskCombinesGoldenAndZeros) {
  nn::Network net("n");
  auto& lin = net.emplace<nn::Linear>("fc", 2, 1, false);
  lin.weight() = nn::Tensor({1, 2}, {3.0f, 4.0f});
  const WeightStore store = WeightStore::snapshot(net);
  lin.weight().fill(-1.0f);  // corrupt

  prune::NetworkMask mask;
  mask.set("fc.weight", {0, 1});
  store.apply_mask(net, mask);
  EXPECT_FLOAT_EQ(lin.weight()[0], 0.0f);  // pruned
  EXPECT_FLOAT_EQ(lin.weight()[1], 4.0f);  // golden restored
}

TEST(WeightStore, ApplyMaskRestoresUnmaskedParamsFully) {
  nn::Network net = tiny_conv_net(4);
  const WeightStore store = WeightStore::snapshot(net);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  for (auto& p : net.params()) p.value->fill(9.0f);

  store.apply_mask(net, prune::NetworkMask{});  // empty mask
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

TEST(WeightStore, ThousandCyclesStayBitExact) {
  nn::Network net = tiny_conv_net(5);
  const WeightStore store = WeightStore::snapshot(net);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);

  // Reversibility claim at endurance scale: 1000 prune/restore cycles
  // across two different masks leave every element BIT-identical (memcmp,
  // not approximate equality) — no drift, ever.
  const auto lib =
      prune::PruneLevelLibrary::build_unstructured(net, {0.0, 0.5, 0.8});
  const prune::NetworkMask& mask_a = lib.mask(1);
  const prune::NetworkMask& mask_b = lib.mask(2);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    store.apply_mask(net, (cycle % 2 == 0) ? mask_a : mask_b);
    store.restore_all(net);
  }
  auto after = net.params();
  ASSERT_EQ(after.size(), golden.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    ASSERT_EQ(after[i].value->numel(), golden[i].numel());
    EXPECT_EQ(std::memcmp(after[i].value->raw(), golden[i].raw(),
                          sizeof(float) *
                              static_cast<std::size_t>(golden[i].numel())),
              0)
        << after[i].name;
  }
}

}  // namespace
}  // namespace rrp::core
