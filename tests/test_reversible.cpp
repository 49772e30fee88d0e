// The core property tests: exact reversibility, O(Δ) transitions, nesting.
#include <gtest/gtest.h>

#include "core/reversible_pruner.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

using rrp::testing::random_tensor;
using rrp::testing::tiny_bn_net;
using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;
using rrp::testing::tiny_residual_net;

const std::vector<double> kRatios{0.0, 0.25, 0.5, 0.75};

prune::PruneLevelLibrary structured_lib(nn::Network& net) {
  return prune::PruneLevelLibrary::build_structured(net, kRatios,
                                                    tiny_input_shape());
}

TEST(ReversiblePruner, StartsAtLevelZeroUnchanged) {
  nn::Network net = tiny_conv_net(1);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  ReversiblePruner rp(net, structured_lib(net));
  EXPECT_EQ(rp.current_level(), 0);
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

TEST(ReversiblePruner, RestoreIsBitExactAfterAnyWalk) {
  nn::Network net = tiny_conv_net(2);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  const nn::Tensor x = random_tensor({2, 1, 8, 8}, 3);
  const nn::Tensor y0 = net.forward(x, false);

  ReversiblePruner rp(net, structured_lib(net));
  Rng rng(4);
  for (int step = 0; step < 50; ++step)
    rp.set_level(rng.uniform_int(0, rp.level_count() - 1));
  rp.restore_full();

  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i])) << after[i].name;
  EXPECT_TRUE(net.forward(x, false).equals(y0));
}

TEST(ReversiblePruner, LevelOutputsAreDeterministicAcrossRevisits) {
  nn::Network net = tiny_conv_net(5);
  ReversiblePruner rp(net, structured_lib(net));
  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 6);

  std::vector<nn::Tensor> first;
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    first.push_back(rp.infer(x));
  }
  // Revisit in a scrambled order: outputs must be identical.
  for (int k : {2, 0, 3, 1, 3, 0}) {
    rp.set_level(k);
    EXPECT_TRUE(rp.infer(x).equals(first[static_cast<std::size_t>(k)]))
        << "level " << k;
  }
}

TEST(ReversiblePruner, TransitionTouchesExactlyTheMaskDiff) {
  nn::Network net = tiny_conv_net(7);
  auto lib = structured_lib(net);
  const std::int64_t diff01 = lib.mask(0).diff_count(lib.mask(1));
  const std::int64_t diff13 = lib.mask(1).diff_count(lib.mask(3));
  ReversiblePruner rp(net, std::move(lib));

  EXPECT_EQ(rp.set_level(1).elements_changed, diff01);
  EXPECT_EQ(rp.set_level(3).elements_changed, diff13);
  EXPECT_EQ(rp.set_level(1).elements_changed, diff13);  // restore same set
  EXPECT_EQ(rp.set_level(0).elements_changed, diff01);
}

TEST(ReversiblePruner, NoOpTransitionTouchesNothing) {
  nn::Network net = tiny_conv_net(8);
  ReversiblePruner rp(net, structured_lib(net));
  rp.set_level(2);
  const TransitionStats s = rp.set_level(2);
  EXPECT_EQ(s.elements_changed, 0);
  EXPECT_EQ(s.bytes_written, 0);
}

TEST(ReversiblePruner, RestoreFlagAndHistory) {
  nn::Network net = tiny_conv_net(9);
  ReversiblePruner rp(net, structured_lib(net));
  const auto up = rp.set_level(3);
  EXPECT_FALSE(up.is_restore);
  const auto down = rp.set_level(1);
  EXPECT_TRUE(down.is_restore);
  EXPECT_EQ(rp.history().size(), 2u);
  EXPECT_EQ(rp.history()[1].from_level, 3);
  EXPECT_EQ(rp.history()[1].to_level, 1);
}

// Invariant 14: the transition history is a bounded ring — once full it
// overwrites in place (oldest slot first) instead of reallocating, so
// set_level never allocates on the frame path.
TEST(ReversiblePruner, HistoryRingOverwritesBeyondCapacity) {
  nn::Network net = tiny_conv_net(11);
  ReversiblePruner rp(net, structured_lib(net));
  const std::size_t cap = ReversiblePruner::kHistoryCapacity;
  const TransitionStats* before_data = rp.history().data();

  const std::size_t total = cap + 5;
  for (std::size_t i = 0; i < total; ++i)
    rp.set_level(static_cast<int>(i % 3) + 1);  // 1 -> 2 -> 3, every one real

  EXPECT_EQ(rp.history().size(), cap);
  // No reallocation: push_back stopped at the reserved capacity and the
  // ring branch writes in place.
  EXPECT_EQ(rp.history().data(), before_data);
  // Five overwrites happened, oldest slot first: slots 0-4 hold the newest
  // five transitions, the rest the oldest survivors.  The capacity is not
  // a multiple of 3, so each slot's target level tells which one wrote it.
  static_assert(ReversiblePruner::kHistoryCapacity % 3 != 0);
  for (std::size_t slot = 0; slot < cap; ++slot) {
    const std::size_t t = slot < 5 ? cap + slot : slot;
    EXPECT_EQ(rp.history()[slot].to_level, static_cast<int>(t % 3) + 1)
        << "slot " << slot;
  }
  // The ring never corrupted the switching math: restore is still exact.
  rp.set_level(0);
}

TEST(ReversiblePruner, SparsityMatchesLevelMask) {
  nn::Network net = tiny_conv_net(10);
  auto lib = structured_lib(net);
  const auto expected = lib.achieved_sparsity(net);
  ReversiblePruner rp(net, std::move(lib));
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    const double live =
        1.0 - static_cast<double>(net.param_nonzero()) / net.param_count();
    // Some golden weights may be exactly zero already; sparsity can only
    // exceed the mask's fraction, never undershoot.
    EXPECT_GE(live + 1e-12, expected[static_cast<std::size_t>(k)]);
  }
}

TEST(ReversiblePruner, ActiveMacsDecreaseWithLevel) {
  nn::Network net = tiny_conv_net(11);
  ReversiblePruner rp(net, structured_lib(net));
  std::int64_t prev = -1;
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    const std::int64_t macs = rp.active_macs(tiny_input_shape());
    if (k > 0) {
      EXPECT_LT(macs, prev);
    }
    prev = macs;
  }
}

TEST(ReversiblePruner, UnstructuredLibraryWorksToo) {
  nn::Network net = tiny_conv_net(12);
  auto lib = prune::PruneLevelLibrary::build_unstructured(net, kRatios);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  ReversiblePruner rp(net, std::move(lib));
  rp.set_level(3);
  rp.set_level(1);
  rp.set_level(2);
  rp.restore_full();
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

TEST(ReversiblePruner, RejectsOutOfRangeLevel) {
  nn::Network net = tiny_conv_net(13);
  ReversiblePruner rp(net, structured_lib(net));
  EXPECT_THROW(rp.set_level(-1), PreconditionError);
  EXPECT_THROW(rp.set_level(4), PreconditionError);
}

TEST(ReversiblePruner, ResidentBytesIncludeStoreAndMasks) {
  nn::Network net = tiny_conv_net(14);
  ReversiblePruner rp(net, structured_lib(net));
  EXPECT_GT(rp.resident_weight_bytes(), 2 * net.param_count() * 4);
}

TEST(ReversiblePruner, BnStatesSwapOnLevelChange) {
  nn::Network net = tiny_bn_net(15);
  auto lib = structured_lib(net);
  const int levels = lib.level_count();
  ReversiblePruner rp(net, std::move(lib));

  std::vector<BnState> states;
  for (int k = 0; k < levels; ++k) {
    BnState s = capture_bn_state(net);
    for (auto& [name, mv] : s.stats) mv.first.fill(static_cast<float>(k));
    states.push_back(std::move(s));
  }
  rp.set_bn_states(states);

  auto* bn = dynamic_cast<nn::BatchNorm*>(net.find("bn1"));
  for (int k : {3, 1, 0, 2}) {
    rp.set_level(k);
    EXPECT_FLOAT_EQ(bn->running_mean()[0], static_cast<float>(k));
  }
}

TEST(ReversiblePruner, BnStatesCountRequired) {
  nn::Network net = tiny_bn_net(16);
  ReversiblePruner rp(net, structured_lib(net));
  EXPECT_THROW(rp.set_bn_states({BnState{}}), PreconditionError);
}

// The compacted level cache: one shrunk network per level, held by a
// CompactedLadderProvider and read through a CompactedLadderView (the
// ladder-only cursor).

TEST(CompactedLevelCache, SwitchIsPointerSwap) {
  nn::Network net = tiny_conv_net(17);
  CompactedLadderProvider fast(net, structured_lib(net), tiny_input_shape());
  CompactedLadderView view(fast);
  const auto s = view.set_level(2);
  EXPECT_EQ(s.elements_changed, 0);
  EXPECT_EQ(s.bytes_written, 0);
  EXPECT_EQ(view.current_level(), 2);
  const auto t = fast.set_level(2);
  EXPECT_EQ(t.elements_changed, 0);
  EXPECT_EQ(t.bytes_written, 0);
  EXPECT_EQ(fast.current_level(), 2);
}

TEST(CompactedLevelCache, MatchesMaskedOutputs) {
  nn::Network net = tiny_conv_net(18);
  CompactedLadderProvider fast(net, structured_lib(net), tiny_input_shape());
  CompactedLadderView view(fast);
  // An independent masked reference over an identically seeded network.
  nn::Network ref = tiny_conv_net(18);
  ReversiblePruner rp(ref, structured_lib(ref));
  const nn::Tensor x = random_tensor({2, 1, 8, 8}, 19);
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    view.set_level(k);
    EXPECT_LT(rp.infer(x).max_abs_diff(view.infer(x)), 1e-4f) << k;
  }
}

TEST(CompactedLevelCache, MacsShrinkPhysically) {
  nn::Network net = tiny_conv_net(20);
  CompactedLadderProvider fast(net, structured_lib(net), tiny_input_shape());
  CompactedLadderView view(fast);
  std::int64_t prev = -1;
  for (int k = 0; k < view.level_count(); ++k) {
    view.set_level(k);
    const std::int64_t macs = view.active_macs(tiny_input_shape());
    if (k > 0) {
      EXPECT_LT(macs, prev);
    }
    prev = macs;
  }
}

TEST(CompactedLevelCache, RequiresStructuredLibrary) {
  nn::Network net = tiny_conv_net(21);
  const auto lib = prune::PruneLevelLibrary::build_unstructured(net, kRatios);
  EXPECT_THROW(CompactedLadder(net, lib, tiny_input_shape(), {}),
               PreconditionError);
  EXPECT_THROW(CompactedLadderProvider(net, lib, tiny_input_shape()),
               PreconditionError);
}

TEST(CompactedLevelCache, ResidentBytesSumAllLevels) {
  nn::Network net = tiny_conv_net(22);
  CompactedLadderProvider fast(net, structured_lib(net), tiny_input_shape());
  CompactedLadderView view(fast);
  // All levels resident: more than one copy, less than level_count copies.
  const std::int64_t one = net.param_count() * 4;
  EXPECT_GT(view.resident_weight_bytes(), one);
  EXPECT_LT(view.resident_weight_bytes(), one * view.level_count());
  EXPECT_EQ(view.resident_weight_bytes(), fast.ladder().weight_bytes);
}

TEST(ReversiblePruner, ResidualNetworkFullWalk) {
  nn::Network net = tiny_residual_net(23);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  ReversiblePruner rp(net, structured_lib(net));
  Rng rng(24);
  for (int i = 0; i < 30; ++i)
    rp.set_level(rng.uniform_int(0, rp.level_count() - 1));
  rp.restore_full();
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

class ReversibleSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ReversibleSeedSweep, RandomWalkAlwaysRestores) {
  nn::Network net = tiny_conv_net(GetParam());
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  ReversiblePruner rp(net, structured_lib(net));
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 25; ++i)
    rp.set_level(rng.uniform_int(0, rp.level_count() - 1));
  rp.set_level(0);
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReversibleSeedSweep,
                         ::testing::Values(31ull, 32ull, 33ull, 34ull, 35ull,
                                           36ull));

}  // namespace
}  // namespace rrp::core

namespace rrp::core {
namespace {

using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;

TEST(ReversiblePruner, DestructorRestoresTheNetwork) {
  nn::Network net = tiny_conv_net(101);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  {
    ReversiblePruner rp(
        net, prune::PruneLevelLibrary::build_structured(
                 net, {0.0, 0.5}, tiny_input_shape()));
    rp.set_level(1);
    // leave it pruned; destruction must clean up
  }
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i])) << after[i].name;
}

TEST(ReversiblePruner, SequentialProvidersSeeCleanWeights) {
  // Regression: a second provider built from the same network must snapshot
  // the ORIGINAL weights even if the first one is still alive but pruned.
  nn::Network net = tiny_conv_net(102);
  auto lib = prune::PruneLevelLibrary::build_structured(net, {0.0, 0.6},
                                                        tiny_input_shape());
  const nn::Tensor x = rrp::testing::random_tensor({1, 1, 8, 8}, 103);
  nn::Tensor y_clean;
  {
    ReversiblePruner first(net, lib);
    y_clean = first.infer(x);
    first.set_level(1);
  }  // destructor restores
  ReversiblePruner second(net, lib);
  EXPECT_TRUE(second.infer(x).equals(y_clean));
}

TEST(ReversiblePruner, MoveTransfersOwnershipOfRestore) {
  nn::Network net = tiny_conv_net(104);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  {
    ReversiblePruner a(net, prune::PruneLevelLibrary::build_structured(
                                net, {0.0, 0.5}, tiny_input_shape()));
    a.set_level(1);
    ReversiblePruner b = std::move(a);
    EXPECT_EQ(b.current_level(), 1);
    // `a`'s destructor (moved-from) must NOT restore; `b`'s must.
  }
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

}  // namespace
}  // namespace rrp::core
