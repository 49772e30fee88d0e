// test_golden_trace.cpp — golden digests for the observability exports.
//
// One fully pinned run: a LeNet provisioned with a small fixed recipe, a
// fixed-seed cut_in scenario, greedy policy, trace armed.  The telemetry
// CSV and the span-trace CSV are hashed with FNV-1a; the digests below
// are the regression oracle.  Every layer of the stack feeds them —
// kernels, pruner deltas, platform model, controller decisions, span
// suppression — so an unintended behaviour change anywhere shows up as a
// digest flip, under the plain build and the TSan/UBSan builds alike
// (this file is compiled into rrp_tests AND rrp_tsan_smoke).
//
// BUMP PROCEDURE: when an intentional change shifts an export, run
// `tools/bump_golden.sh` — it re-runs this test, copies the printed
// digests over the pinned constants below, and re-verifies.  Do NOT bump
// for a diff you cannot explain — that is the failure mode this test
// exists to catch.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <iomanip>
#include <sstream>
#include <string>

#include "core/integrity.h"
#include "core/metrics.h"
#include "models/trained_cache.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "util/trace.h"

namespace rrp {
namespace {

// Pinned digests.  See the bump procedure in the header comment.
constexpr std::uint64_t kTelemetryDigest = 0x9dd030b41fa5e8f3ull;
constexpr std::uint64_t kSpanTraceDigest = 0xe3c6c429f141648eull;

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v << "ull";
  return os.str();
}

std::uint64_t digest(const std::string& s) {
  return core::fnv1a64(s.data(), s.size());
}

TEST(GoldenTrace, LenetCutInExportsMatchPinnedDigests) {
  // Private per-process cache dir: the recipe is small enough to retrain
  // in seconds, and a shared dir would race when rrp_tests and
  // rrp_tsan_smoke run concurrently under ctest -j.
  namespace fs = std::filesystem;
  const fs::path cache_dir =
      fs::temp_directory_path() /
      ("rrp_golden_trace_cache_" + std::to_string(::getpid()));

  models::TrainRecipe train;
  train.train_samples = 600;
  train.eval_samples = 200;
  train.epochs = 3;
  models::LevelRecipe levels;
  levels.co_train_epochs = 1;
  models::ProvisionedModel pm = models::get_provisioned(
      models::ModelKind::LeNet, train, levels, cache_dir.string());
  fs::remove_all(cache_dir);

  core::reset_observability();
  trace::set_enabled(true);
  std::string telemetry_csv;
  {
    core::ReversiblePruner rp = pm.make_pruner();
    core::SafetyConfig certified;
    certified.max_level_for = {4, 3, 1, 0};
    core::CriticalityGreedyPolicy policy(certified, 6, rp.level_count());
    core::SafetyMonitor monitor(certified);
    core::RuntimeController ctl(policy, rp, &monitor);

    sim::RunConfig cfg;
    cfg.deadline_ms = 12.0;
    cfg.noise_seed = 0xC0FFEEull;
    const sim::Scenario sc = sim::make_suite_or_dsl("cut_in", 150, 41);
    const sim::RunResult result = sim::run_scenario(sc, ctl, cfg);

    std::ostringstream os;
    result.telemetry.write_csv(os);
    telemetry_csv = os.str();

    // The trace must reconcile before it is worth pinning.
    const core::FrameReconciliation rec =
        core::reconcile_frame_spans(result.telemetry);
    ASSERT_TRUE(rec.ok()) << "frame spans do not reconcile with telemetry: "
                          << rec.missing_frame_spans << " missing, max delta "
                          << rec.max_abs_delta_us << " us";
    ASSERT_EQ(rec.frames_compared, 150);
  }
  trace::set_enabled(false);
  const std::string span_csv = trace::span_csv_string();
  core::reset_observability();

  ASSERT_FALSE(telemetry_csv.empty());
  ASSERT_FALSE(span_csv.empty());
  EXPECT_EQ(digest(telemetry_csv), kTelemetryDigest)
      << "telemetry CSV drifted; if intentional, set kTelemetryDigest = "
      << hex64(digest(telemetry_csv))
      << "\n  (or run the scripted bump: tools/bump_golden.sh)";
  EXPECT_EQ(digest(span_csv), kSpanTraceDigest)
      << "span trace CSV drifted; if intentional, set kSpanTraceDigest = "
      << hex64(digest(span_csv))
      << "\n  (or run the scripted bump: tools/bump_golden.sh)";
}

}  // namespace
}  // namespace rrp
