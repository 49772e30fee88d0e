// test_faults.cpp — seeded fault plans, the injector, the fault-aware
// runner (scrub / self-heal / watchdog), and the R-F9 campaign driver.
#include <gtest/gtest.h>

#include <sstream>

#include "core/baselines.h"
#include "nn/init.h"
#include "sim/faults.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/thread_pool.h"

namespace rrp::sim {
namespace {

using core::CriticalityClass;

// The closed-loop fixture: a briefly-trained conv net on the vision task's
// default geometry (16x16, kNumClasses), with a 3-level structured ladder.
class FaultsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.deadline_ms = 5.0;
    cfg_.noise_seed = 77;

    net_ = nn::Network("faults-net");
    net_.emplace<nn::Conv2D>("conv1", 1, 6, 3, 1, 1);
    net_.emplace<nn::ReLU>("relu1");
    net_.emplace<nn::MaxPool>("pool1", 4, 4);
    net_.emplace<nn::Flatten>("flatten");
    net_.emplace<nn::Linear>("fc1", 6 * 4 * 4, 16);
    net_.emplace<nn::ReLU>("relu2");
    auto& head = net_.emplace<nn::Linear>("head", 16, kNumClasses);
    head.set_out_prunable(false);
    Rng rng(1);
    nn::init_network(net_, rng);

    Rng data_rng(2);
    data_ = make_dataset(400, cfg_.vision, data_rng);
    rrp::testing::quick_train(net_, data_, 4);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, input_shape(cfg_.vision));
    certified_.max_level_for = {2, 1, 1, 0};
  }

  RunConfig cfg_;
  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
  core::SafetyConfig certified_;
};

TEST(FaultPlan, RandomPlanIsDeterministicInSeed) {
  const FaultPlan a = FaultPlan::random_plan(42, 500, 20);
  const FaultPlan b = FaultPlan::random_plan(42, 500, 20);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].frame, b.events[i].frame);
    EXPECT_EQ(a.events[i].target, b.events[i].target);
    EXPECT_EQ(a.events[i].bit, b.events[i].bit);
  }
  const FaultPlan c = FaultPlan::random_plan(43, 500, 20);
  bool any_differs = false;
  for (std::size_t i = 0; i < c.events.size(); ++i)
    any_differs |= c.events[i].frame != a.events[i].frame ||
                   c.events[i].kind != a.events[i].kind;
  EXPECT_TRUE(any_differs);
}

TEST(FaultPlan, EventsSortedAndMixRespected) {
  FaultMix mix;
  mix.sensor_blackout = 0.0;
  mix.store_bit_flip = 0.0;
  mix.stuck_criticality = 0.0;
  mix.stale_criticality = 0.0;
  mix.latency_spike = 0.0;
  mix.dropped_decision = 0.0;
  mix.artifact_read_failure = 0.0;
  mix.weight_bit_flip = 1.0;
  const FaultPlan plan = FaultPlan::random_plan(7, 300, 25, mix, 20);
  ASSERT_EQ(plan.events.size(), 25u);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    EXPECT_EQ(plan.events[i].kind, FaultKind::WeightBitFlip);
    EXPECT_GE(plan.events[i].frame, 20);
    EXPECT_LT(plan.events[i].frame, 300);
    if (i > 0) {
      EXPECT_GE(plan.events[i].frame, plan.events[i - 1].frame);
    }
  }
  FaultMix empty;
  empty.sensor_blackout = empty.weight_bit_flip = empty.store_bit_flip = 0.0;
  empty.stuck_criticality = empty.stale_criticality = 0.0;
  empty.latency_spike = empty.dropped_decision = 0.0;
  empty.artifact_read_failure = 0.0;
  EXPECT_THROW(FaultPlan::random_plan(1, 100, 5, empty), PreconditionError);
}

TEST(FaultInjector, BurstsActivateAndExpire) {
  FaultPlan plan;
  FaultEvent spike;
  spike.kind = FaultKind::LatencySpike;
  spike.frame = 5;
  spike.duration_frames = 3;
  spike.magnitude = 4.0;
  plan.add(spike);
  FaultEvent stuck;
  stuck.kind = FaultKind::StuckCriticality;
  stuck.frame = 6;
  stuck.duration_frames = 2;
  stuck.stuck = CriticalityClass::Medium;
  plan.add(stuck);

  FaultInjector injector(plan, {});
  for (std::int64_t f = 0; f < 12; ++f) {
    const FrameFaults ff = injector.begin_frame(f);
    if (f >= 5 && f < 8)
      EXPECT_DOUBLE_EQ(ff.latency_scale, 4.0) << "frame " << f;
    else
      EXPECT_DOUBLE_EQ(ff.latency_scale, 1.0) << "frame " << f;
    if (f >= 6 && f < 8) {
      ASSERT_TRUE(ff.stuck_criticality.has_value()) << "frame " << f;
      EXPECT_EQ(*ff.stuck_criticality, CriticalityClass::Medium);
    } else {
      EXPECT_FALSE(ff.stuck_criticality.has_value()) << "frame " << f;
    }
  }
  ASSERT_EQ(injector.injected().size(), 2u);
  EXPECT_TRUE(injector.injected()[0].applied);
}

TEST(FaultInjector, WeightFlipWithoutTargetIsReportedSkipped) {
  FaultPlan plan;
  FaultEvent flip;
  flip.kind = FaultKind::WeightBitFlip;
  flip.frame = 0;
  plan.add(flip);
  FaultInjector injector(plan, {});
  injector.begin_frame(0);
  ASSERT_EQ(injector.injected().size(), 1u);
  EXPECT_FALSE(injector.injected()[0].applied);
}

TEST_F(FaultsFixture, StuckCriticalityBlindsTheController) {
  // Stuck-at-Low over the whole run: the greedy policy never sees High, so
  // it prunes at the Low cap the entire time; the ground-truth audit
  // (true_violation) records the resulting exposure in a cut-in.
  const Scenario scenario = make_suite_or_dsl("cut_in", 200, 5);
  FaultEvent stuck;
  stuck.kind = FaultKind::StuckCriticality;
  stuck.frame = 0;
  stuck.duration_frames = 200;
  stuck.stuck = CriticalityClass::Low;

  core::ReversiblePruner rp(net_, lib_);
  core::CriticalityGreedyPolicy policy(certified_, 2, rp.level_count());
  core::SafetyMonitor monitor(certified_);
  core::RuntimeController controller(policy, rp, &monitor);
  RunConfig cfg = cfg_;
  cfg.faults.add(stuck);
  const RunResult faulty = run_scenario(scenario, controller, cfg, nullptr);

  core::ReversiblePruner rp2(net_, lib_);
  core::CriticalityGreedyPolicy policy2(certified_, 2, rp2.level_count());
  core::SafetyMonitor monitor2(certified_);
  core::RuntimeController controller2(policy2, rp2, &monitor2);
  const RunResult clean = run_scenario(scenario, controller2, cfg_, nullptr);

  // The stuck sensor keeps the mean level at the Low cap; the clean run
  // restores when the cut-in raises criticality.
  EXPECT_GT(faulty.summary.mean_level, clean.summary.mean_level);
  EXPECT_GE(faulty.summary.true_safety_violations,
            clean.summary.true_safety_violations);
}

TEST_F(FaultsFixture, DroppedDecisionFreezesTheLevel) {
  const Scenario scenario = make_suite_or_dsl("cut_in", 150, 5);
  core::ReversiblePruner rp(net_, lib_);
  core::CriticalityGreedyPolicy policy(certified_, 2, rp.level_count());
  core::SafetyMonitor monitor(certified_);
  core::RuntimeController controller(policy, rp, &monitor);
  RunConfig cfg = cfg_;
  FaultEvent drop;
  drop.kind = FaultKind::DroppedDecision;
  drop.frame = 0;
  drop.duration_frames = 150;
  cfg.faults.add(drop);
  const RunResult result = run_scenario(scenario, controller, cfg, nullptr);
  // Every decision dropped: the provider never leaves level 0 and the
  // controller never steps (no switches recorded).
  EXPECT_EQ(result.summary.level_switches, 0);
  EXPECT_DOUBLE_EQ(result.summary.mean_level, 0.0);
  EXPECT_EQ(controller.switch_count(), 0);
  // The audit trail still covers every frame.
  EXPECT_EQ(monitor.audited_frames(), 150);
}

TEST_F(FaultsFixture, LatencySpikeTripsTheWatchdog) {
  const Scenario scenario = make_suite_or_dsl("highway", 120, 5);
  core::ReversiblePruner rp(net_, lib_);
  // A fixed level-0 policy never prunes, so under a long latency spike only
  // the watchdog can shed load.
  core::FixedPolicy policy(0);
  core::SafetyMonitor monitor(certified_);
  core::RuntimeController controller(policy, rp, &monitor);
  RunConfig cfg = cfg_;
  cfg.deadline_ms = 1.0;  // tight: the spike overruns every frame
  cfg.watchdog_overrun_frames = 4;
  FaultEvent spike;
  spike.kind = FaultKind::LatencySpike;
  spike.frame = 10;
  spike.duration_frames = 40;
  spike.magnitude = 50.0;
  cfg.faults.add(spike);
  const RunResult result = run_scenario(scenario, controller, cfg, nullptr);
  (void)result;
  EXPECT_GE(monitor.watchdog_degrade_count(), 1);
  bool saw_record = false;
  for (const core::AssuranceRecord& rec : monitor.log())
    if (rec.kind == core::AssuranceKind::WatchdogDegrade) {
      saw_record = true;
      EXPECT_GE(rec.frame, 10 + 4 - 1);
      EXPECT_EQ(rec.requested_level, 0);  // from_level before forcing
      EXPECT_GT(rec.enforced_level, 0);   // forced to the certified max
    }
  EXPECT_TRUE(saw_record);
}

TEST_F(FaultsFixture, ScrubDetectsAndHealsInjectedFlipInLoop) {
  const Scenario scenario = make_suite_or_dsl("highway", 100, 5);
  core::ReversiblePruner rp(net_, lib_);
  core::IntegrityChecker checker(rp.store());
  core::FixedPolicy policy(0);
  core::SafetyMonitor monitor(certified_);
  core::RuntimeController controller(policy, rp, &monitor);

  FaultHarness harness;
  harness.targets.live_net = &rp.network();
  harness.targets.store = &rp.mutable_store();
  harness.checker = &checker;
  harness.levels = &lib_;

  RunConfig cfg = cfg_;
  cfg.scrub_period_frames = 10;
  FaultEvent flip;
  flip.kind = FaultKind::WeightBitFlip;
  flip.frame = 23;
  flip.target = 12345;
  flip.bit = 30;
  cfg.faults.add(flip);

  run_scenario(scenario, controller, cfg, &harness);

  ASSERT_EQ(harness.injected.size(), 1u);
  EXPECT_TRUE(harness.injected[0].applied);
  EXPECT_EQ(monitor.integrity_detect_count(), 1);
  EXPECT_EQ(monitor.integrity_repair_count(), 1);
  ASSERT_EQ(harness.recoveries.size(), 1u);
  // Injected at 23, scrub cadence 10 → detected and healed at frame 29.
  EXPECT_EQ(harness.recoveries[0].frame, 29);
  EXPECT_EQ(harness.recoveries[0].mechanism, "self-heal");
  EXPECT_EQ(harness.recoveries[0].elements, 1);
  EXPECT_TRUE(harness.recoveries[0].recovered);
  // After the run the live weights are bit-exact again.
  EXPECT_TRUE(
      checker.scrub(rp.network(), lib_.mask(rp.current_level())).clean());
}

TEST_F(FaultsFixture, ReloadArmDetectsViaDigestAndPaysFullReload) {
  const Scenario scenario = make_suite_or_dsl("highway", 100, 5);
  core::ReloadProvider reload(net_, lib_,
                              core::ReloadProvider::Source::Memory);
  const std::vector<std::uint64_t> digests = reload_level_digests(reload);
  ASSERT_EQ(digests.size(), static_cast<std::size_t>(lib_.level_count()));
  core::FixedPolicy policy(0);
  core::SafetyMonitor monitor(certified_);
  core::RuntimeController controller(policy, reload, &monitor);

  FaultHarness harness;
  harness.targets.live_net = &reload.active_network();
  harness.targets.reload = &reload;
  harness.reload = &reload;
  harness.reload_digests = &digests;

  RunConfig cfg = cfg_;
  cfg.scrub_period_frames = 10;
  FaultEvent flip;
  flip.kind = FaultKind::WeightBitFlip;
  flip.frame = 23;
  flip.target = 999;
  flip.bit = 29;
  cfg.faults.add(flip);

  run_scenario(scenario, controller, cfg, &harness);

  EXPECT_EQ(monitor.integrity_detect_count(), 1);
  ASSERT_EQ(harness.recoveries.size(), 1u);
  EXPECT_EQ(harness.recoveries[0].mechanism, "reload");
  // The reload arm rewrites the whole artifact, not O(Δ).
  EXPECT_EQ(harness.recoveries[0].elements, net_.param_count());
  EXPECT_GT(harness.recoveries[0].bytes,
            static_cast<std::int64_t>(sizeof(float)));
  EXPECT_EQ(live_network_digest(reload.active_network()), digests[0]);
}

TEST_F(FaultsFixture, RetryAbsorbsTransientReadFailures) {
  core::ReloadProvider reload(net_, lib_,
                              core::ReloadProvider::Source::Memory);
  reload.inject_read_failures(2);  // < max_attempts - 1
  const core::TransitionStats stats = reload.set_level(1);
  EXPECT_EQ(reload.current_level(), 1);
  EXPECT_EQ(stats.read_retries, 2);
  // Modeled exponential backoff: 200 + 400 us.
  EXPECT_DOUBLE_EQ(stats.backoff_us, 600.0);
  EXPECT_EQ(reload.pending_read_failures(), 0);
}

TEST_F(FaultsFixture, RetryExhaustionThrowsDiagnosableError) {
  core::ReloadProvider reload(net_, lib_,
                              core::ReloadProvider::Source::Memory);
  reload.inject_read_failures(10);
  try {
    reload.set_level(1);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("after 4 attempts"), std::string::npos) << what;
  }
  // The provider survives: the active network and level are unchanged.
  EXPECT_EQ(reload.current_level(), 0);
  reload.inject_read_failures(0);
  EXPECT_EQ(reload.set_level(1).to_level, 1);
}

// The R-F9 driver: a small campaign must be byte-identical across repeated
// runs AND across thread-pool sizes, and must show the reversible arm
// recovering in strictly less modeled time (and strictly fewer bytes) than
// the reload arm on the same fault schedule.
TEST_F(FaultsFixture, CampaignIsDeterministicAndReversibleRecoversFaster) {
  CampaignInputs inputs;
  inputs.net = &net_;
  inputs.levels = &lib_;
  inputs.certified = certified_;

  FaultCampaignConfig config;
  config.seed = 911;
  config.frames = 120;
  config.faults_per_run = 6;
  config.suites = {"cut_in"};
  config.arms = {CampaignArm::Reversible, CampaignArm::ReloadMemory};
  config.scrub_period_frames = 10;
  config.mix.weight_bit_flip = 5.0;  // weight faults dominate the schedule
  // A fixed level keeps flipped elements from being silently overwritten
  // by level transitions, so detection coverage is exact.
  config.policy = "fixed0";

  const core::WeightStore before = core::WeightStore::snapshot(net_);

  std::string csv_serial, csv_parallel, csv_repeat;
  FaultCampaignSummary reversible, reload;
  {
    ThreadCountGuard guard(1);
    const FaultCampaignResult r = run_fault_campaign(inputs, config);
    std::ostringstream out;
    write_campaign_csv(r, out);
    csv_serial = out.str();
    ASSERT_EQ(r.summaries.size(), 2u);
    EXPECT_EQ(r.summaries[0].first, "reversible");
    EXPECT_EQ(r.summaries[1].first, "reload-memory");
    reversible = r.summaries[0].second;
    reload = r.summaries[1].second;
  }
  {
    ThreadCountGuard guard(5);
    const FaultCampaignResult r = run_fault_campaign(inputs, config);
    std::ostringstream out;
    write_campaign_csv(r, out);
    csv_parallel = out.str();
  }
  {
    const FaultCampaignResult r = run_fault_campaign(inputs, config);
    std::ostringstream out;
    write_campaign_csv(r, out);
    csv_repeat = out.str();
  }
  EXPECT_EQ(csv_serial, csv_parallel);
  EXPECT_EQ(csv_serial, csv_repeat);

  // Detection coverage: every applied live-weight flip is detected.
  EXPECT_GT(reversible.weight_faults_injected, 0);
  EXPECT_EQ(reversible.weight_faults_detected,
            reversible.weight_faults_injected);
  // R-F9: O(Δ) self-heal beats full-artifact reload on both axes.
  EXPECT_GT(reload.mean_recovery_ms, 0.0);
  EXPECT_LT(reversible.mean_recovery_ms, reload.mean_recovery_ms);
  EXPECT_LT(reversible.mean_recovery_bytes, reload.mean_recovery_bytes);

  // The campaign left the shared network bit-exactly as it found it.
  const core::IntegrityChecker checker(before);
  EXPECT_TRUE(checker.scrub(net_, lib_.mask(0)).clean());
}

TEST_F(FaultsFixture, CampaignValidatesInputs) {
  CampaignInputs inputs;
  EXPECT_THROW(run_fault_campaign(inputs, {}), PreconditionError);
  inputs.net = &net_;
  inputs.levels = &lib_;
  inputs.certified = certified_;
  FaultCampaignConfig config;
  config.suites = {"not_a_suite"};
  config.frames = 30;
  config.faults_per_run = 1;
  EXPECT_THROW(run_fault_campaign(inputs, config), PreconditionError);
  config.suites = {"highway"};
  config.policy = "what";
  EXPECT_THROW(run_fault_campaign(inputs, config), PreconditionError);
}

}  // namespace
}  // namespace rrp::sim
