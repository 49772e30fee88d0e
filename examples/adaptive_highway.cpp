// adaptive_highway — the full closed loop on the highway suite.
//
// Provisions a trained, co-trained LeNet (disk-cached), wires the MAPE-K
// runtime controller with a safety monitor, runs 30 s of highway driving
// with lead-vehicle braking events, prints the run summary, and exports
// the per-frame telemetry to highway_telemetry.csv for plotting.
//
// Run from the repository root:   ./build/examples/adaptive_highway
#include <fstream>
#include <iostream>

#include "models/trained_cache.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "util/csv.h"
#include "util/log.h"

using namespace rrp;

int main() {
  set_log_level(LogLevel::Info);
  std::cout << "== adaptive highway drive ==\n";

  models::ProvisionedModel pm =
      models::get_provisioned(models::ModelKind::ResNetLite);
  std::cout << "resnetlite per-level accuracy:";
  for (double a : models::level_accuracy(pm)) std::cout << " " << fmt(a, 3);
  std::cout << "\n";

  core::ReversiblePruner provider = pm.make_pruner();
  // Certified ladder chosen from the measured per-level accuracy above
  // (every resnetlite level holds up; Critical still demands the full
  // network).
  core::SafetyConfig certified;
  certified.max_level_for = {4, 3, 1, 0};
  core::CriticalityGreedyPolicy policy(certified, /*hysteresis=*/6,
                                       provider.level_count());
  core::SafetyMonitor monitor(certified);
  core::RuntimeController controller(policy, provider, &monitor);

  const sim::Scenario scenario =
      sim::make_suite_or_dsl("highway", 900, /*seed=*/7);
  sim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  const sim::RunResult result = sim::run_scenario(scenario, controller, cfg);

  const core::RunSummary& s = result.summary;
  std::cout << "\nframes            : " << s.frames
            << "\naccuracy          : " << fmt(s.accuracy, 3)
            << "\ncritical accuracy : " << fmt(s.critical_accuracy, 3)
            << "\nmean level        : " << fmt(s.mean_level, 2)
            << "\nlevel switches    : " << s.level_switches
            << "\nmean switch cost  : " << fmt(s.mean_switch_us, 1) << " us"
            << "\ntotal energy      : " << fmt(s.total_energy_mj, 1) << " mJ"
            << "\nsafety vetoes     : " << s.vetoes
            << "\nsafety violations : " << s.safety_violations << "\n";

  std::ofstream csv("highway_telemetry.csv");
  result.telemetry.write_csv(csv);
  std::cout << "\nper-frame telemetry written to highway_telemetry.csv\n";
  return 0;
}
