// test_incident_replay.cpp — record a faulted closed loop into an incident
// bundle and replay it byte-identically (sim/incident_replay.h).  The
// flight-recorder acceptance path: a fault-induced SLO incident produces a
// bundle, and `replay_bundle` reproduces the recorded telemetry byte-for-
// byte at every thread-pool size.
#include <gtest/gtest.h>

#include <sstream>

#include "core/integrity.h"
#include "core/weight_store.h"
#include "nn/init.h"
#include "sim/incident_replay.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace rrp::sim {
namespace {

// Same closed-loop fixture as test_faults.cpp: a briefly-trained conv net
// on the vision task's default geometry with a 3-level structured ladder.
class ReplayFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::Network("replay-net");
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

    RunConfig cfg;
    Rng data_rng(2);
    data_ = make_dataset(400, cfg.vision, data_rng);
    rrp::testing::quick_train(net_, data_, 4);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, input_shape(cfg.vision));

    inputs_.net = &net_;
    inputs_.levels = &lib_;
    inputs_.certified.max_level_for = {2, 1, 1, 0};
  }

  // A spec whose weight-dominated fault schedule reliably raises
  // integrity-detection incidents within a short run.
  BlackboxRunSpec spec() const {
    BlackboxRunSpec s;
    s.model = "replay-net";
    s.suite = "cut_in";
    s.policy = "fixed0";  // fixed level: flips are never masked by switches
    s.frames = 160;
    s.scenario_seed = 905;
    s.noise_seed = 905 ^ 0x5DEECE66Dull;
    s.deadline_ms = 5.0;
    s.scrub_period_frames = 10;
    s.recorder_capacity = 64;
    FaultMix mix;
    mix.weight_bit_flip = 5.0;
    s.faults = FaultPlan::random_plan(31337, s.frames, 6, mix);
    return s;
  }

  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
  CampaignInputs inputs_;
};

std::string bundle_bytes(const core::IncidentBundle& bundle) {
  std::ostringstream os(std::ios::binary);
  core::write_incident_bundle(bundle, os);
  return os.str();
}

TEST(RecordedFaultConversion, FaultEventRoundTripsLosslessly) {
  FaultPlan plan = FaultPlan::random_plan(99, 400, 12);
  const std::vector<core::RecordedFault> recorded = record_fault_plan(plan);
  ASSERT_EQ(recorded.size(), plan.events.size());
  const FaultPlan back = fault_plan_from_recorded(recorded);
  ASSERT_EQ(back.events.size(), plan.events.size());
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    const FaultEvent& a = plan.events[i];
    const FaultEvent& b = back.events[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.frame, b.frame);
    EXPECT_EQ(a.duration_frames, b.duration_frames);
    EXPECT_EQ(a.magnitude, b.magnitude);
    EXPECT_EQ(a.target, b.target);
    EXPECT_EQ(a.bit, b.bit);
    EXPECT_EQ(a.stuck, b.stuck);
    EXPECT_EQ(a.count, b.count);
  }
}

TEST_F(ReplayFixture, FaultRunRaisesIncidentsAndPacksTheBundle) {
  const core::WeightStore before = core::WeightStore::snapshot(net_);
  const BlackboxRunResult res = run_blackbox(spec(), inputs_);

  // Weight faults under a 10-frame scrub: detections MUST surface as
  // incidents (note_event per detection frame).
  EXPECT_TRUE(res.incident);
  ASSERT_FALSE(res.bundle.incidents.empty());
  bool any_integrity = false;
  for (const core::Incident& inc : res.bundle.incidents)
    any_integrity |= inc.slo_id.find("integrity") != std::string::npos;
  EXPECT_TRUE(any_integrity);

  // The bundle carries the whole spec back out.
  EXPECT_EQ(res.bundle.context.model, "replay-net");
  EXPECT_EQ(res.bundle.context.suite, "cut_in");
  EXPECT_EQ(res.bundle.context.policy, "fixed0");
  EXPECT_EQ(res.bundle.context.frames, 160);
  EXPECT_EQ(res.bundle.faults.size(), spec().faults.events.size());
  EXPECT_FALSE(res.bundle.slos.empty());
  EXPECT_FALSE(res.bundle.records.empty());
  EXPECT_LE(res.bundle.records.size(), std::size_t{64});
  EXPECT_NE(res.bundle.context.telemetry_digest, 0u);

  const BlackboxRunSpec round = spec_from_bundle(res.bundle);
  EXPECT_EQ(round.suite, "cut_in");
  EXPECT_EQ(round.frames, 160);
  EXPECT_EQ(round.scenario_seed, 905u);
  EXPECT_EQ(round.faults.events.size(), spec().faults.events.size());

  // run_blackbox restored the (fault-corrupted) network bit-exactly.
  const core::IntegrityChecker checker(before);
  EXPECT_TRUE(checker.scrub(net_, lib_.mask(0)).clean());
}

TEST_F(ReplayFixture, ReplayIsByteIdenticalAtEveryThreadCount) {
  std::string recorded_bytes;
  core::IncidentBundle bundle;
  {
    ThreadCountGuard guard(1);
    const BlackboxRunResult res = run_blackbox(spec(), inputs_);
    ASSERT_TRUE(res.incident);
    bundle = res.bundle;
    recorded_bytes = bundle_bytes(bundle);
  }

  for (int threads : {1, 2, 8}) {
    ThreadCountGuard guard(threads);
    const ReplayResult r = replay_bundle(bundle, inputs_);
    EXPECT_TRUE(r.records_match) << "threads=" << threads;
    EXPECT_TRUE(r.telemetry_match) << "threads=" << threads;
    EXPECT_TRUE(r.incidents_match) << "threads=" << threads;
    EXPECT_TRUE(r.match) << "threads=" << threads;
    EXPECT_EQ(r.recorded_csv, r.replayed_csv) << "threads=" << threads;
    EXPECT_EQ(r.recorded_telemetry_digest, r.replayed_telemetry_digest);
    EXPECT_EQ(r.summary.frames, 160);
  }

  // Recording itself is thread-count-invariant too: re-record at 8 threads
  // and compare the bundles byte-for-byte.
  {
    ThreadCountGuard guard(8);
    const BlackboxRunResult res = run_blackbox(spec(), inputs_);
    EXPECT_EQ(bundle_bytes(res.bundle), recorded_bytes);
  }
}

TEST_F(ReplayFixture, TamperedBundleFailsReplay) {
  ThreadCountGuard guard(2);
  const BlackboxRunResult res = run_blackbox(spec(), inputs_);
  ASSERT_TRUE(res.incident);

  // Doctor one recorded latency: the window CSV no longer matches what the
  // re-run produces, so replay must report a mismatch (the forensic
  // property: recorded evidence cannot be silently edited).
  core::IncidentBundle doctored = res.bundle;
  ASSERT_FALSE(doctored.records.empty());
  doctored.records.back().latency_ms += 0.125;
  const ReplayResult r = replay_bundle(doctored, inputs_);
  EXPECT_FALSE(r.records_match);
  EXPECT_FALSE(r.match);
  // The re-run itself still matches the ORIGINAL telemetry digest (the
  // context was untouched), so the mismatch is pinned to the records.
  EXPECT_TRUE(r.telemetry_match);
}

}  // namespace
}  // namespace rrp::sim
