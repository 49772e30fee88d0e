#include <gtest/gtest.h>

#include <vector>

#include "sim/perception_criticality.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::sim {
namespace {

using core::CriticalityClass;

std::vector<float> logits_for(int label, float margin) {
  std::vector<float> row(kNumClasses, 0.0f);
  row[static_cast<std::size_t>(label)] = margin;
  return row;
}

TEST(PerceptionCriticality, ClearFramesStayLow) {
  PerceptionCriticality pc;
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(pc.update(kClearLabel, logits_for(kClearLabel, 5.0f)),
              CriticalityClass::Low);
}

TEST(PerceptionCriticality, DetectionRaisesToMediumThenHigh) {
  PerceptionCriticality pc;
  // Confident vehicle detections: Medium first, High after confirmation.
  EXPECT_EQ(pc.update(0, logits_for(0, 8.0f)), CriticalityClass::Medium);
  EXPECT_EQ(pc.update(0, logits_for(0, 8.0f)), CriticalityClass::High);
  EXPECT_EQ(pc.update(0, logits_for(0, 8.0f)), CriticalityClass::High);
}

TEST(PerceptionCriticality, LowConfidenceNeverConfirmsHigh) {
  PerceptionCriticality pc;
  for (int i = 0; i < 8; ++i)
    EXPECT_EQ(pc.update(0, logits_for(0, 0.1f)), CriticalityClass::Medium);
}

TEST(PerceptionCriticality, NeverReportsCritical) {
  PerceptionCriticality pc;
  CriticalityClass worst = CriticalityClass::Low;
  for (int i = 0; i < 20; ++i)
    worst = std::max(worst, pc.update(1, logits_for(1, 10.0f)));
  EXPECT_EQ(worst, CriticalityClass::High);  // no range info -> no Critical
}

TEST(PerceptionCriticality, TrackHoldDelaysDecay) {
  PerceptionCriticality::Config cfg;
  cfg.hold_frames = 2;
  PerceptionCriticality pc(cfg);
  pc.update(0, logits_for(0, 8.0f));
  pc.update(0, logits_for(0, 8.0f));  // High confirmed
  // Lost frames: held High for hold_frames, then Low.
  EXPECT_EQ(pc.update(kClearLabel, logits_for(kClearLabel, 8.0f)),
            CriticalityClass::High);
  EXPECT_EQ(pc.update(kClearLabel, logits_for(kClearLabel, 8.0f)),
            CriticalityClass::High);
  EXPECT_EQ(pc.update(kClearLabel, logits_for(kClearLabel, 8.0f)),
            CriticalityClass::Low);
}

TEST(PerceptionCriticality, ResetClearsState) {
  PerceptionCriticality pc;
  pc.update(0, logits_for(0, 8.0f));
  pc.reset();
  EXPECT_EQ(pc.current(), CriticalityClass::Low);
  EXPECT_EQ(pc.update(0, logits_for(0, 8.0f)), CriticalityClass::Medium);
}

TEST(PerceptionCriticality, ValidatesConfigAndInput) {
  PerceptionCriticality::Config bad;
  bad.high_confidence = 0.0;
  EXPECT_THROW(PerceptionCriticality{bad}, PreconditionError);
  PerceptionCriticality pc;
  EXPECT_THROW(pc.update(99, logits_for(0, 1.0f)), PreconditionError);
}

TEST(PerceptionSource, SelfTriggeredLoopHasMoreTrueViolations) {
  // Small trained net; compare ground-truth-TTC monitoring against the
  // perception-derived loop on a hazard-rich scenario.  The self-triggered
  // loop must show at least as many TRUE-basis violations (typically many
  // more: pruned perception misses the hazard that would restore it).
  nn::Network net("pc-net");
  net.emplace<nn::Conv2D>("conv1", 1, 6, 3, 1, 1);
  net.emplace<nn::ReLU>("relu1");
  net.emplace<nn::MaxPool>("pool1", 4, 4);
  net.emplace<nn::Flatten>("flatten");
  net.emplace<nn::Linear>("fc1", 6 * 4 * 4, 16);
  net.emplace<nn::ReLU>("relu2");
  auto& head = net.emplace<nn::Linear>("head", 16, kNumClasses);
  head.set_out_prunable(false);
  Rng rng(1);
  nn::init_network(net, rng);
  RunConfig cfg;
  Rng data_rng(2);
  const nn::Dataset data = make_dataset(600, cfg.vision, data_rng);
  rrp::testing::quick_train(net, data, 5);
  auto lib = prune::PruneLevelLibrary::build_structured(
      net, {0.0, 0.3, 0.6}, input_shape(cfg.vision));

  core::SafetyConfig certified;
  certified.max_level_for = {2, 1, 0, 0};
  const Scenario sc = make_suite_or_dsl("cut_in", 600, 5);

  auto run_with = [&](CriticalitySource source) {
    core::ReversiblePruner provider(net, lib);
    core::CriticalityGreedyPolicy policy(certified, 3,
                                         provider.level_count());
    core::SafetyMonitor monitor(certified);
    core::RuntimeController ctl(policy, provider, &monitor);
    RunConfig c = cfg;
    c.criticality_source = source;
    return run_scenario(sc, ctl, c).summary;
  };

  const auto ttc = run_with(CriticalitySource::GroundTruthTtc);
  const auto self = run_with(CriticalitySource::Perception);
  EXPECT_GE(self.true_safety_violations, ttc.true_safety_violations);
  // Sensed-basis violations stay zero for both: each system is "safe"
  // with respect to what it can observe — that is exactly the hazard.
  EXPECT_EQ(self.safety_violations, 0);
  EXPECT_EQ(ttc.safety_violations, 0);
}

TEST(PerceptionSource, FloorVariantPrunesLess) {
  nn::Network net = rrp::testing::tiny_conv_net(9);
  auto lib = prune::PruneLevelLibrary::build_structured(
      net, {0.0, 0.5}, rrp::testing::tiny_input_shape());
  // The floor variant can never report Low, so greedy never reaches the
  // deepest level.  (The tiny net is untrained; we only check levels.)
  core::SafetyConfig certified;
  certified.max_level_for = {1, 1, 0, 0};
  core::ReversiblePruner provider(net, lib);
  core::CriticalityGreedyPolicy policy(certified, 1, provider.level_count());
  core::RuntimeController ctl(policy, provider, nullptr);
  RunConfig cfg;
  cfg.vision.height = 8;
  cfg.vision.width = 8;
  cfg.criticality_source = CriticalitySource::PerceptionFloor;
  const auto s =
      run_scenario(make_suite_or_dsl("urban", 120, 3), ctl, cfg).summary;
  EXPECT_LE(s.mean_level, 1.0 + 1e-9);
}

}  // namespace
}  // namespace rrp::sim
