// R-F3 — Closed-loop timeline on the cut-in scenario.
//
// The "back to the future" moment, frame by frame: criticality spikes when
// a vehicle cuts in, the controller restores the full network within one
// frame (O(Δ) masked copy-back), and after the hazard clears the hysteresis
// delays re-pruning.  Printed as a downsampled series plus every frame
// where the level changed.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

int main() {
  bench::print_banner("R-F3", "cut-in scenario timeline (reversible runtime)");

  models::ProvisionedModel pm = bench::provision(models::ModelKind::LeNet);
  core::ReversiblePruner provider = pm.make_pruner();
  const core::SafetyConfig certified = bench::standard_certified();
  core::CriticalityGreedyPolicy policy(certified, /*hysteresis=*/6,
                                       provider.level_count());
  core::SafetyMonitor monitor(certified);
  core::RuntimeController ctl(policy, provider, &monitor);

  const sim::Scenario scenario = sim::make_suite_or_dsl("cut_in", 900, 7);
  sim::RunConfig cfg = bench::standard_run_config();
  const sim::RunResult result = sim::run_scenario(scenario, ctl, cfg);

  TableFormatter table({"frame", "t_s", "criticality", "level", "latency_ms",
                        "switch_us", "correct"});
  int prev_level = -1;
  for (const auto& r : result.telemetry.records()) {
    const bool level_changed = r.executed_level != prev_level;
    if (level_changed || r.frame % 45 == 0) {
      table.row({std::to_string(r.frame),
                 fmt(static_cast<double>(r.frame) * scenario.dt_s, 2),
                 core::criticality_name(r.criticality),
                 std::to_string(r.executed_level), fmt(r.latency_ms, 3),
                 fmt(r.switch_us, 1), r.correct ? "1" : "0"});
    }
    prev_level = r.executed_level;
  }
  table.print(std::cout);

  const core::RunSummary& s = result.summary;
  std::cout << "\nsummary: accuracy=" << fmt(s.accuracy, 3)
            << " critical_accuracy=" << fmt(s.critical_accuracy, 3)
            << " mean_level=" << fmt(s.mean_level, 2)
            << " switches=" << s.level_switches
            << " violations=" << s.safety_violations
            << " mean_switch_us=" << fmt(s.mean_switch_us, 1) << "\n";

  bench::BenchReport report("f3");
  report.config("mode", "full");
  report.config("model", "lenet");
  report.set("accuracy", s.accuracy, "fraction");
  report.set("critical_accuracy", s.critical_accuracy, "fraction");
  report.set("mean_level", s.mean_level, "level");
  report.set("switches", static_cast<double>(s.level_switches), "count");
  report.set("violations", static_cast<double>(s.safety_violations), "count");
  report.set("mean_switch_us", s.mean_switch_us, "us");
  return report.write() ? 0 : 1;
}
