// test_observability_parity.cpp — the differential determinism gate for
// the observability layer (DESIGN.md invariant 11).
//
// One closed-loop scenario is run under RRP_THREADS = 1, 2 and 8.  The
// pre-existing contract says the RunSummary is identical; this test
// extends it to the NEW surfaces: the telemetry CSV, the span trace CSV
// and the metrics snapshot CSV must be BYTE-identical across thread
// counts (wall-clock capture off).  Any span recorded inside a chunk
// body, any schedule-dependent gauge write, or any non-commutative
// counter would show up here as a single-character diff.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/reversible_pruner.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp::sim {
namespace {

struct RunCapture {
  core::RunSummary summary;
  std::string telemetry_csv;
  std::string span_csv;
  std::string metrics_csv;
};

class ObservabilityParity : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_.vision.height = 16;
    cfg_.vision.width = 16;
    cfg_.deadline_ms = 5.0;
    cfg_.noise_seed = 77;

    net_ = nn::Network("parity-net");
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
    const nn::Dataset data = make_dataset(400, cfg_.vision, data_rng);
    rrp::testing::quick_train(net_, data, 4);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, input_shape(cfg_.vision));
  }

  /// One full instrumented run at the current pool size.
  RunCapture run_once() {
    core::reset_observability();
    trace::set_enabled(true);
    RunCapture cap;
    {
      core::ReversiblePruner rp(net_, lib_);
      core::SafetyConfig certified;
      certified.max_level_for = {2, 1, 0, 0};
      core::CriticalityGreedyPolicy policy(certified, 3, rp.level_count());
      core::SafetyMonitor monitor(certified);
      core::RuntimeController ctl(policy, rp, &monitor);
      const Scenario sc = make_suite_or_dsl("cut_in", 200, 5);
      const RunResult result = run_scenario(sc, ctl, cfg_);
      cap.summary = result.summary;
      std::ostringstream os;
      result.telemetry.write_csv(os);
      cap.telemetry_csv = os.str();
    }
    trace::set_enabled(false);
    cap.span_csv = trace::span_csv_string();
    cap.metrics_csv = core::capture_metrics().csv_string();
    core::reset_observability();
    return cap;
  }

  RunConfig cfg_;
  nn::Network net_;
  prune::PruneLevelLibrary lib_;
};

TEST_F(ObservabilityParity, RunAndObservabilityAreByteIdenticalAcrossThreads) {
  std::vector<RunCapture> caps;
  for (int threads : {1, 2, 8}) {
    ThreadCountGuard pool(threads);
    caps.push_back(run_once());
  }
  ASSERT_FALSE(caps[0].span_csv.empty());
  ASSERT_NE(caps[0].metrics_csv.find("runner.frames"), std::string::npos);

  for (std::size_t i = 1; i < caps.size(); ++i) {
    const int threads = i == 1 ? 2 : 8;
    // RunSummary: exact double equality is the contract, not "close".
    EXPECT_EQ(caps[0].summary.frames, caps[i].summary.frames);
    EXPECT_EQ(caps[0].summary.accuracy, caps[i].summary.accuracy)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.total_energy_mj, caps[i].summary.total_energy_mj)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.mean_latency_ms, caps[i].summary.mean_latency_ms)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.p99_latency_ms, caps[i].summary.p99_latency_ms)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.level_switches, caps[i].summary.level_switches)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.mean_switch_us, caps[i].summary.mean_switch_us)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].summary.safety_violations,
              caps[i].summary.safety_violations)
        << "threads=" << threads;
    // The three observability exports, byte for byte.
    EXPECT_EQ(caps[0].telemetry_csv, caps[i].telemetry_csv)
        << "threads=" << threads;
    EXPECT_EQ(caps[0].span_csv, caps[i].span_csv) << "threads=" << threads;
    EXPECT_EQ(caps[0].metrics_csv, caps[i].metrics_csv)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace rrp::sim
