#include <gtest/gtest.h>

#include <sstream>

#include "core/policies.h"
#include "nn/init.h"
#include "serve/serve_engine.h"
#include "sim/campaign.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

constexpr int kLevels = 5;

SafetyConfig certified() {
  SafetyConfig c;
  c.max_level_for = {4, 3, 1, 0};
  return c;
}

ControlInput input_at(CriticalityClass crit, std::int64_t frame = 0) {
  ControlInput in;
  in.frame = frame;
  in.criticality = crit;
  return in;
}

TEST(CriticalityGreedy, RelaxesImmediately) {
  CriticalityGreedyPolicy p(certified(), /*hysteresis=*/5, kLevels);
  // Cruising pruned hard; hazard appears -> must drop NOW.
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Critical), 4), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::High), 4), 1);
}

TEST(CriticalityGreedy, PrunesOnlyAfterHysteresis) {
  CriticalityGreedyPolicy p(certified(), /*hysteresis=*/3, kLevels);
  // Calm scene, current level 0: needs 3 consecutive proposals.
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 0), 0), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 1), 0), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 2), 0), 4);
}

TEST(CriticalityGreedy, HysteresisResetsOnTargetChange) {
  CriticalityGreedyPolicy p(certified(), 3, kLevels);
  p.decide(input_at(CriticalityClass::Low), 0);
  p.decide(input_at(CriticalityClass::Low), 0);
  // Criticality interrupts the streak.
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Critical), 0), 0);
  // Streak starts over.
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 0), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 0), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 0), 4);
}

TEST(CriticalityGreedy, ResetClearsState) {
  CriticalityGreedyPolicy p(certified(), 2, kLevels);
  p.decide(input_at(CriticalityClass::Low), 0);
  p.reset();
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 0), 0);  // streak anew
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 0), 2 >= 2 ? 4 : 0);
}

TEST(CriticalityGreedy, CapsAtLevelCount) {
  SafetyConfig wide;
  wide.max_level_for = {9, 8, 7, 6};
  CriticalityGreedyPolicy p(wide, 1, /*level_count=*/3);
  EXPECT_LE(p.decide(input_at(CriticalityClass::Low), 2), 2);
}

TEST(Deadline, PicksLeastPrunedFeasibleLevel) {
  LevelProfile prof;
  prof.latency_ms = {10.0, 6.0, 3.0, 1.0};
  prof.energy_mj = {4, 3, 2, 1};
  prof.accuracy = {0.95, 0.9, 0.8, 0.6};
  DeadlinePolicy p(prof, /*margin=*/1.0);
  ControlInput in;
  in.deadline_ms = 7.0;
  EXPECT_EQ(p.decide(in, 0), 1);
  in.deadline_ms = 100.0;
  EXPECT_EQ(p.decide(in, 0), 0);
}

TEST(Deadline, InfeasibleDeadlinePrunesMaximally) {
  LevelProfile prof;
  prof.latency_ms = {10.0, 6.0};
  prof.energy_mj = {2, 1};
  prof.accuracy = {0.9, 0.8};
  DeadlinePolicy p(prof);
  ControlInput in;
  in.deadline_ms = 0.1;
  EXPECT_EQ(p.decide(in, 0), 1);
}

TEST(Deadline, MarginTightensBudget) {
  LevelProfile prof;
  prof.latency_ms = {10.0, 5.0};
  prof.energy_mj = {2, 1};
  prof.accuracy = {0.9, 0.8};
  DeadlinePolicy p(prof, /*margin=*/0.5);
  ControlInput in;
  in.deadline_ms = 11.0;  // budget 5.5 -> level 1
  EXPECT_EQ(p.decide(in, 0), 1);
}

LevelProfile flat_profile() {
  LevelProfile prof;
  prof.latency_ms = {4.0, 3.0, 2.0, 1.5, 1.0};
  prof.energy_mj = {5, 4, 3, 2, 1};
  prof.accuracy = {0.95, 0.93, 0.9, 0.85, 0.7};
  return prof;
}

TEST(Hybrid, CriticalSceneForcesFullAccuracy) {
  HybridPolicy p(certified(), flat_profile(), 1);
  ControlInput in = input_at(CriticalityClass::Critical);
  in.deadline_ms = 10.0;
  EXPECT_EQ(p.decide(in, 3), 0);
}

TEST(Hybrid, LowEnergyBudgetEscalatesPruning) {
  HybridPolicy p(certified(), flat_profile(), 1);
  ControlInput calm = input_at(CriticalityClass::Low);
  calm.deadline_ms = 10.0;
  calm.energy_budget_frac = 0.1;  // below watermark
  EXPECT_EQ(p.decide(calm, 0), 4);
}

TEST(Hybrid, UpwardMovesGoThroughHysteresis) {
  HybridPolicy p(certified(), flat_profile(), /*hysteresis=*/2);
  ControlInput calm = input_at(CriticalityClass::Low);
  calm.energy_budget_frac = 0.1;
  EXPECT_EQ(p.decide(calm, 0), 0);  // first proposal waits
  EXPECT_EQ(p.decide(calm, 0), 4);  // second commits
}

TEST(Hybrid, DeadlineFloorsThePick) {
  HybridPolicy p(certified(), flat_profile(), 1, /*deadline_margin=*/1.0);
  ControlInput in = input_at(CriticalityClass::Critical);
  in.deadline_ms = 1.2;  // only level 4 fits, but Critical caps at 0:
  // safety cap wins inside the policy; the SafetyMonitor decides the rest.
  EXPECT_EQ(p.decide(in, 0), 0);
}

TEST(Oracle, SeesFutureHazard) {
  std::vector<CriticalityClass> future(100, CriticalityClass::Low);
  future[50] = CriticalityClass::Critical;
  OraclePolicy p(certified(), future, /*lookahead=*/10);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 45), 4), 0);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 30), 4), 4);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low, 51), 4), 4);
}

TEST(Fixed, AlwaysProposesSameLevel) {
  FixedPolicy p(2);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Critical), 0), 2);
  EXPECT_EQ(p.decide(input_at(CriticalityClass::Low), 4), 2);
  EXPECT_EQ(p.name(), "fixed-L2");
}

TEST(Policies, ValidateConstruction) {
  EXPECT_THROW(CriticalityGreedyPolicy(certified(), 0, 5), PreconditionError);
  LevelProfile empty;
  EXPECT_THROW(DeadlinePolicy(empty, 0.9), PreconditionError);
  EXPECT_THROW(HybridPolicy(certified(), flat_profile(), 0),
               PreconditionError);
  EXPECT_THROW(FixedPolicy(-1), PreconditionError);
}

// One vocabulary for every driver: "greedy" or "fixed<K>", K decimal
// digits naming a level of the ladder; everything else is refused.
TEST(PolicyVocabulary, MakePolicyAcceptsOnlyGreedyAndLadderLevels) {
  for (int k = 0; k < kLevels; ++k) {
    const std::unique_ptr<Policy> p = make_policy(
        "fixed" + std::to_string(k), certified(), /*hysteresis=*/3, kLevels);
    EXPECT_EQ(p->name(), "fixed-L" + std::to_string(k));
    EXPECT_EQ(p->decide(input_at(CriticalityClass::Critical), 0), k);
  }
  EXPECT_EQ(make_policy("greedy", certified(), 3, kLevels)->name(),
            "criticality-greedy");

  const char* const rejected[] = {
      "",       "fixed",  "fixed2x", "fixed-1", "fixedL",
      "Greedy", "fixed5", " greedy", "fixed 1",
      "fixed99999999999",  // each old hand-written loop overflowed int here
  };
  for (const char* name : rejected)
    EXPECT_THROW(make_policy(name, certified(), 3, kLevels), PreconditionError)
        << "'" << name << "'";
  // Syntax alone: fixed5 is well-formed, only outside a 5-level ladder.
  EXPECT_EQ(parse_policy_name("fixed5"), 5);
  EXPECT_EQ(parse_policy_name("greedy"), -1);
  EXPECT_THROW(parse_policy_name("fixed"), PreconditionError);
}

TEST(PolicyVocabulary, EveryDriverRejectsBareFixed) {
  const sim::VisionTaskConfig vision;
  nn::Network net("vocab-net");
  net.emplace<nn::Conv2D>("conv1", 1, 4, 3, 1, 1);
  net.emplace<nn::ReLU>("relu1");
  net.emplace<nn::MaxPool>("pool1", 4, 4);
  net.emplace<nn::Flatten>("flatten");
  net.emplace<nn::Linear>("head", 4 * 4 * 4, sim::kNumClasses)
      .set_out_prunable(false);
  Rng rng(3);
  nn::init_network(net, rng);
  const auto lib = prune::PruneLevelLibrary::build_structured(
      net, {0.0, 0.5}, sim::input_shape(vision));
  sim::CampaignInputs inputs;
  inputs.net = &net;
  inputs.levels = &lib;

  // Each driver refuses the name itself, not some other part of the run.
  const auto refusal = [](auto&& run) -> std::string {
    try {
      run();
    } catch (const Error& e) {
      return e.what();
    }
    return "no error";
  };
  const std::string named = "policy 'fixed'";

  serve::StreamSpec stream;
  stream.policy = "fixed";
  stream.frames = 4;
  serve::ServeEngine engine(inputs, {});
  EXPECT_NE(refusal([&] { engine.run({stream}); }).find(named),
            std::string::npos);

  sim::FaultCampaignConfig faults;
  faults.policy = "fixed";
  faults.frames = 4;
  faults.suites = {"cut_in"};
  faults.arms = {sim::CampaignArm::Reversible};
  EXPECT_NE(refusal([&] { sim::run_fault_campaign(inputs, faults); })
                .find(named),
            std::string::npos);

  std::istringstream spec("scenario cut_in\npolicy fixed\n");
  EXPECT_THROW(sim::parse_campaign_spec(spec), SerializationError);

  sim::BlackboxRunSpec blackbox;
  blackbox.policy = "fixed";
  blackbox.frames = 4;
  EXPECT_NE(refusal([&] { sim::run_blackbox(blackbox, inputs); }).find(named),
            std::string::npos);
}

}  // namespace
}  // namespace rrp::core
