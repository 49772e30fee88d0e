// energy_budget — the hybrid policy under a shrinking energy budget.
//
// The same urban drive is run with three mission energy budgets.  As the
// remaining budget falls through the policy's watermark, the controller
// escalates pruning in calm traffic while the safety monitor keeps the
// criticality ladder intact — energy-aware but never uncertified.
//
// Run from the repository root:   ./build/examples/energy_budget
#include <iostream>

#include "models/trained_cache.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "util/csv.h"
#include "util/log.h"

using namespace rrp;

int main() {
  set_log_level(LogLevel::Warn);
  std::cout << "== energy-budgeted urban drive (hybrid policy) ==\n\n";

  models::ProvisionedModel pm =
      models::get_provisioned(models::ModelKind::LeNet);
  core::SafetyConfig certified;
  certified.max_level_for = {4, 3, 1, 0};

  // Profile the ladder once (the policy's knowledge base).
  sim::RunConfig cfg;
  cfg.deadline_ms = 5.0;
  const sim::PlatformModel platform(cfg.platform);
  core::LevelProfile profile;
  {
    core::ReversiblePruner probe = pm.make_pruner();
    profile = sim::profile_levels(probe, platform, pm.eval_data,
                                  models::zoo_input_shape());
  }
  std::cout << "level profile (latency ms / energy mJ / accuracy):\n";
  for (int k = 0; k < profile.count(); ++k)
    std::cout << "  L" << k << ": " << fmt(profile.latency_ms[k], 3) << " / "
              << fmt(profile.energy_mj[k], 3) << " / "
              << fmt(profile.accuracy[k], 3) << "\n";

  const sim::Scenario scenario = sim::make_suite_or_dsl("urban", 1200, 17);
  TableFormatter table({"budget_mJ", "energy_used_mJ", "mean_level",
                        "accuracy", "missed_crit_%", "violations"});
  for (double budget : {0.0, 120.0, 60.0}) {
    core::ReversiblePruner provider = pm.make_pruner();
    core::HybridPolicy policy(certified, profile, 6);
    core::SafetyMonitor monitor(certified);
    core::RuntimeController controller(policy, provider, &monitor);
    sim::RunConfig run_cfg = cfg;
    run_cfg.energy_budget_mj = budget;
    const core::RunSummary s =
        sim::run_scenario(scenario, controller, run_cfg).summary;
    table.row({budget == 0.0 ? "unlimited" : fmt(budget, 0),
               fmt(s.total_energy_mj, 1), fmt(s.mean_level, 2),
               fmt(s.accuracy, 3), fmt(100.0 * s.missed_critical_rate, 1),
               std::to_string(s.safety_violations)});
  }
  std::cout << "\n";
  table.print(std::cout);
  std::cout << "\nA tighter budget pushes the mean level up in calm frames; "
               "certified caps never move, so violations stay at zero.\n";
  return 0;
}
