// R-T5 — The self-triggering hazard of perception-gated pruning.
//
// Three sources for the controller's criticality signal, same reversible
// runtime underneath:
//   gt-ttc          — independent ranging channel (radar-like TTC), the
//                     architecture this library assumes,
//   perception      — the (possibly pruned!) camera classifier gates its
//                     own pruning: a missed hazard never restores accuracy,
//   perception+floor— same, but the criticality never reports Low, capping
//                     how deep the loop may prune (mitigation).
//
// Violations are reported on BOTH bases: "sensed" (what each system could
// know — all three look clean) and "true" (ground truth — where the
// self-triggered loop's hazard becomes visible).  This is the argument for
// keeping the monitoring channel independent of the pruned network.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

namespace {

void run_suite(models::ProvisionedModel& pm, const sim::Scenario& scenario,
               const sim::RunConfig& base_cfg,
               bench::BenchReport& report) {
  const core::SafetyConfig certified = bench::standard_certified();
  TableFormatter table({"criticality source", "accuracy", "missed_crit_%",
                        "energy_mJ", "mean_level", "sensed_violations",
                        "TRUE_violations"});

  auto row = [&](const std::string& name, sim::CriticalitySource source) {
    core::ReversiblePruner provider = pm.make_pruner();
    core::CriticalityGreedyPolicy policy(certified, 6,
                                         provider.level_count());
    core::SafetyMonitor monitor(certified);
    core::RuntimeController ctl(policy, provider, &monitor);
    sim::RunConfig cfg = base_cfg;
    cfg.criticality_source = source;
    const core::RunSummary s = sim::run_scenario(scenario, ctl, cfg).summary;
    table.row({name, fmt(s.accuracy, 3),
               fmt(100.0 * s.missed_critical_rate, 1),
               fmt(s.total_energy_mj, 1), fmt(s.mean_level, 2),
               std::to_string(s.safety_violations),
               std::to_string(s.true_safety_violations)});
    const std::string base = scenario.name + "." + name + ".";
    report.set(base + "accuracy", s.accuracy, "fraction");
    report.set(base + "true_violations",
               static_cast<double>(s.true_safety_violations), "count");
    report.set(base + "energy_mj", s.total_energy_mj, "mJ");
  };

  row("gt-ttc", sim::CriticalitySource::GroundTruthTtc);
  row("perception", sim::CriticalitySource::Perception);
  row("perception+floor", sim::CriticalitySource::PerceptionFloor);

  std::cout << "\n--- suite: " << scenario.name << " ---\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-T5",
                      "self-triggering hazard: who is allowed to gate the "
                      "pruning level?");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::ResNetLite);
  const sim::RunConfig cfg = bench::standard_run_config();
  bench::BenchReport report("t5");
  report.config("mode", "full");
  report.config("model", "resnetlite");
  run_suite(pm, sim::make_suite_or_dsl("cut_in", 900, 71), cfg, report);
  run_suite(pm, sim::make_suite_or_dsl("urban", 900, 72), cfg, report);
  run_suite(pm, sim::make_suite_or_dsl("intersection", 900, 73), cfg, report);
  return report.write() ? 0 : 1;
}
