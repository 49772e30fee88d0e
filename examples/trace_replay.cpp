// trace_replay — record a scenario, replay it bit-for-bit, and export the
// machine-readable safety-case evidence.
//
// Workflow a certification engineer would actually run:
//   1. generate (or import) a traffic trace and archive it as CSV,
//   2. replay the archived trace through the closed loop,
//   3. export the assurance report (certified ladder, run summary on both
//      sensed and ground-truth bases, veto/violation log) as JSON.
//
// Run from the repository root:   ./build/examples/trace_replay
#include <fstream>
#include <iostream>

#include "core/assurance_export.h"
#include "models/trained_cache.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "sim/trace_io.h"
#include "util/csv.h"
#include "util/log.h"

using namespace rrp;

int main() {
  set_log_level(LogLevel::Warn);
  std::cout << "== trace record / replay / assurance export ==\n\n";

  // 1. Record: archive a cut-in scenario as a CSV trace.
  const sim::Scenario original = sim::make_suite_or_dsl("cut_in", 600, 42);
  sim::save_scenario_csv(original, "cutin_trace.csv");
  std::cout << "recorded " << original.frame_count()
            << " frames to cutin_trace.csv\n";

  // 2. Replay: load the archive and drive the closed loop from it.
  const sim::Scenario replayed = sim::load_scenario_csv("cutin_trace.csv");
  models::ProvisionedModel pm =
      models::get_provisioned(models::ModelKind::ResNetLite);
  core::ReversiblePruner provider = pm.make_pruner();
  core::SafetyConfig certified;
  certified.max_level_for = {4, 3, 1, 0};
  core::CriticalityGreedyPolicy policy(certified, 6, provider.level_count());
  core::SafetyMonitor monitor(certified);
  core::RuntimeController controller(policy, provider, &monitor);

  sim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  const sim::RunResult result = sim::run_scenario(replayed, controller, cfg);
  std::cout << "replayed: accuracy " << fmt(result.summary.accuracy, 3)
            << ", mean level " << fmt(result.summary.mean_level, 2)
            << ", switches " << result.summary.level_switches
            << ", violations (sensed/true) "
            << result.summary.safety_violations << "/"
            << result.summary.true_safety_violations << "\n";

  // 3. Evidence: export the assurance report.
  core::AssuranceReport report;
  report.scenario = result.scenario;
  report.provider = result.provider;
  report.policy = result.policy;
  report.certified = certified;
  report.summary = result.summary;
  report.log = monitor.log();
  std::ofstream json("cutin_assurance.json");
  core::write_assurance_json(report, json);
  std::cout << "assurance evidence written to cutin_assurance.json\n";
  return 0;
}
