// End-to-end integration: the headline qualitative claims of the paper on
// a miniature version of experiment R-T2, all in one process.
#include <gtest/gtest.h>

#include "core/baselines.h"
#include "core/level_train.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp {
namespace {

using core::CriticalityClass;

class EndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.deadline_ms = 5.0;
    cfg_.noise_seed = 2024;

    net_ = nn::Network("e2e-net");
    net_.emplace<nn::Conv2D>("conv1", 1, 8, 3, 1, 1);
    net_.emplace<nn::ReLU>("relu1");
    net_.emplace<nn::MaxPool>("pool1", 2, 2);
    net_.emplace<nn::Conv2D>("conv2", 8, 12, 3, 1, 1);
    net_.emplace<nn::ReLU>("relu2");
    net_.emplace<nn::MaxPool>("pool2", 2, 2);
    net_.emplace<nn::Flatten>("flatten");
    net_.emplace<nn::Linear>("fc1", 12 * 4 * 4, 24);
    net_.emplace<nn::ReLU>("relu3");
    auto& head = net_.emplace<nn::Linear>("head", 24, sim::kNumClasses);
    head.set_out_prunable(false);
    Rng rng(3);
    nn::init_network(net_, rng);

    Rng data_rng(4);
    train_ = sim::make_dataset(1200, cfg_.vision, data_rng);
    rrp::testing::quick_train(net_, train_, 6);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, sim::input_shape(cfg_.vision));

    // Brief co-training so intermediate levels are usable.
    core::CoTrainConfig co;
    co.epochs = 2;
    Rng co_rng(5);
    core::co_train_levels(net_, lib_, train_, nn::Dataset{}, co, co_rng);

    certified_.max_level_for = {2, 1, 0, 0};
    scenario_ = sim::make_suite_or_dsl("cut_in", 600, 6);
  }

  sim::RunResult run_with(core::InferenceProvider& provider,
                          core::Policy& policy, bool with_monitor = true) {
    core::SafetyMonitor monitor(certified_);
    core::RuntimeController ctl(policy, provider,
                                with_monitor ? &monitor : nullptr);
    return sim::run_scenario(scenario_, ctl, cfg_);
  }

  sim::RunConfig cfg_;
  nn::Network net_;
  nn::Dataset train_;
  prune::PruneLevelLibrary lib_;
  core::SafetyConfig certified_;
  sim::Scenario scenario_;
};

TEST_F(EndToEnd, ReversibleSavesEnergyVersusNoPrune) {
  nn::Network rev_net = net_.clone();
  core::ReversiblePruner rev(rev_net, lib_);
  core::CriticalityGreedyPolicy adaptive(certified_, 3, rev.level_count());
  const auto adaptive_run = run_with(rev, adaptive);

  nn::Network full_net = net_.clone();
  core::ReversiblePruner full(full_net, lib_);
  core::FixedPolicy never_prunes(0);
  const auto noprune_run = run_with(full, never_prunes);

  EXPECT_LT(adaptive_run.summary.total_energy_mj,
            noprune_run.summary.total_energy_mj * 0.9);
  EXPECT_EQ(adaptive_run.summary.safety_violations, 0);
  EXPECT_EQ(noprune_run.summary.safety_violations, 0);
}

TEST_F(EndToEnd, ReversibleBeatsStaticOnCriticalAccuracy) {
  nn::Network rev_net = net_.clone();
  core::ReversiblePruner rev(rev_net, lib_);
  core::CriticalityGreedyPolicy adaptive(certified_, 3, rev.level_count());
  const auto adaptive_run = run_with(rev, adaptive);

  core::StaticProvider deep(net_, lib_, 2);
  core::CriticalityGreedyPolicy policy2(certified_, 3, deep.level_count());
  const auto static_run = run_with(deep, policy2);

  // The static-deep system cannot restore accuracy in hazards.
  EXPECT_GT(static_run.summary.safety_violations, 0);
  EXPECT_EQ(adaptive_run.summary.safety_violations, 0);
  EXPECT_LE(adaptive_run.summary.missed_critical_rate,
            static_run.summary.missed_critical_rate + 0.05);
}

TEST_F(EndToEnd, ReversibleRestoreOrdersOfMagnitudeCheaperThanReload) {
  nn::Network rev_net = net_.clone();
  core::ReversiblePruner rev(rev_net, lib_);
  core::ReloadProvider reload(net_, lib_, core::ReloadProvider::Source::Memory);

  rev.set_level(2);
  reload.set_level(2);
  const auto rev_restore = rev.set_level(0);
  const auto reload_restore = reload.set_level(0);

  // The reversible restore touches only the masked weights; the reload
  // rewrites the whole model (and re-parses the artifact).
  EXPECT_LT(rev_restore.elements_changed, reload_restore.elements_changed);
  EXPECT_LT(rev_restore.bytes_written, reload_restore.bytes_written);
}

TEST_F(EndToEnd, OracleIsAtLeastAsGoodAsCausalOnViolations) {
  nn::Network rev_net = net_.clone();
  core::ReversiblePruner rev(rev_net, lib_);
  const auto trace = sim::criticality_trace(scenario_, cfg_.criticality);
  core::OraclePolicy oracle(certified_, trace, /*lookahead=*/15);
  const auto oracle_run = run_with(rev, oracle);
  EXPECT_EQ(oracle_run.summary.safety_violations, 0);
  EXPECT_GT(oracle_run.summary.mean_level, 0.5);  // it still saves energy
}

TEST_F(EndToEnd, CompactProviderDeliversRealLatencyReduction) {
  core::CompactedLadderProvider fast(net_, lib_, sim::input_shape(cfg_.vision));
  fast.set_level(2);
  const std::int64_t pruned_macs =
      fast.active_macs(sim::input_shape(cfg_.vision));
  fast.set_level(0);
  const std::int64_t full_macs =
      fast.active_macs(sim::input_shape(cfg_.vision));
  EXPECT_LT(pruned_macs, full_macs / 2);

  const sim::PlatformModel pm;
  EXPECT_LT(pm.latency_ms(pruned_macs), pm.latency_ms(full_macs));
}

TEST_F(EndToEnd, VetoesHappenOnlyWithAggressivePolicies) {
  nn::Network rev_net = net_.clone();
  core::ReversiblePruner rev(rev_net, lib_);
  core::FixedPolicy reckless(2);  // wants deep pruning always
  const auto run = run_with(rev, reckless);
  EXPECT_GT(run.summary.vetoes, 0);
  EXPECT_EQ(run.summary.safety_violations, 0);  // monitor caught every one
}

}  // namespace
}  // namespace rrp
