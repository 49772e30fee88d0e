// R-F4 — Controller ablation: hysteresis width.
//
// Sweeping the re-prune hysteresis (frames of calm required before pruning
// harder) on the urban suite: small K chases the criticality signal and
// thrashes (many switches, switch energy, deadline pressure); large K
// parks at low levels and wastes energy.  Restores (safety direction) are
// always immediate, so violations stay at zero throughout — the asymmetry
// that makes the ablation safe to run.
#include <sstream>

#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

int main() {
  bench::print_banner("R-F4", "hysteresis ablation (urban suite)");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::LeNet);
  const core::SafetyConfig certified = bench::standard_certified();
  const sim::RunConfig cfg = bench::standard_run_config();
  const sim::Scenario scenario = sim::make_suite_or_dsl("urban", 1200, 99);

  TableFormatter table({"hysteresis_frames", "switches", "mean_level",
                        "energy_mJ", "accuracy", "missed_crit_%",
                        "violations"});
  bench::BenchReport report("f4");
  report.config("mode", "full");
  report.config("model", "lenet");
  for (int k : {1, 2, 4, 6, 10, 15, 30}) {
    core::ReversiblePruner provider = pm.make_pruner();
    core::CriticalityGreedyPolicy policy(certified, k,
                                         provider.level_count());
    core::SafetyMonitor monitor(certified);
    core::RuntimeController ctl(policy, provider, &monitor);
    const core::RunSummary s =
        sim::run_scenario(scenario, ctl, cfg).summary;
    table.row({std::to_string(k), std::to_string(s.level_switches),
               fmt(s.mean_level, 2), fmt(s.total_energy_mj, 1),
               fmt(s.accuracy, 3), fmt(100.0 * s.missed_critical_rate, 1),
               std::to_string(s.safety_violations)});
    // ostringstream (not operator+ chains) sidesteps a GCC 12 -Wrestrict
    // false positive (PR105329) that trips the -Werror gate.
    std::ostringstream base;
    base << "h" << k << ".";
    report.set(base.str() + "switches",
               static_cast<double>(s.level_switches), "count");
    report.set(base.str() + "energy_mj", s.total_energy_mj, "mJ");
    report.set(base.str() + "accuracy", s.accuracy, "fraction");
  }
  table.print(std::cout);
  return report.write() ? 0 : 1;
}
