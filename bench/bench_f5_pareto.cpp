// R-F5 — Accuracy–energy Pareto front.
//
// Points: every static level (the classical design-time menu) and every
// adaptive policy (criticality-greedy at several hysteresis settings,
// hybrid with an energy budget, oracle) on the urban suite.  Adaptive
// reversible points dominate the static menu: more accuracy for the same
// energy, because they only spend accuracy where the scene is calm.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

namespace {

struct Point {
  std::string config;
  double accuracy;
  double crit_accuracy;
  double energy_mj;
  std::int64_t violations;
};

}  // namespace

int main() {
  bench::print_banner("R-F5", "accuracy-energy Pareto (urban suite)");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::ResNetLite);
  const core::SafetyConfig certified = bench::standard_certified();
  sim::RunConfig cfg = bench::standard_run_config();
  const sim::Scenario scenario = sim::make_suite_or_dsl("urban", 900, 55);

  std::vector<Point> points;
  auto run_one = [&](const std::string& name,
                     core::InferenceProvider& provider, core::Policy& policy,
                     bool monitored, const sim::RunConfig& rc) {
    core::SafetyMonitor monitor(certified);
    core::RuntimeController ctl(policy, provider,
                                monitored ? &monitor : nullptr);
    const core::RunSummary s = sim::run_scenario(scenario, ctl, rc).summary;
    points.push_back({name, s.accuracy, s.critical_accuracy,
                      s.total_energy_mj, s.safety_violations});
  };

  // Static menu: one point per fixed level.
  for (int k = 0; k < pm.levels.level_count(); ++k) {
    core::StaticProvider p(pm.net, pm.levels, k, pm.bn_states);
    core::FixedPolicy policy(k);
    run_one("static-L" + std::to_string(k), p, policy, true, cfg);
  }
  // Adaptive reversible points.
  for (int hysteresis : {2, 6, 15}) {
    core::ReversiblePruner p = pm.make_pruner();
    core::CriticalityGreedyPolicy policy(certified, hysteresis,
                                         p.level_count());
    run_one("reversible-h" + std::to_string(hysteresis), p, policy, true,
            cfg);
  }
  // Hybrid under an energy budget.
  {
    core::ReversiblePruner p = pm.make_pruner();
    const sim::PlatformModel platform(cfg.platform);
    const core::LevelProfile prof = sim::profile_levels(
        p, platform, pm.eval_data, models::zoo_input_shape());
    core::HybridPolicy policy(certified, prof, 6);
    sim::RunConfig budgeted = cfg;
    budgeted.energy_budget_mj = 2000.0;
    run_one("hybrid-budget", p, policy, true, budgeted);
  }
  // Oracle upper bound.
  {
    core::ReversiblePruner p = pm.make_pruner();
    const auto trace = sim::criticality_trace(scenario, cfg.criticality);
    core::OraclePolicy policy(certified, trace, 15);
    run_one("oracle", p, policy, true, cfg);
  }

  bench::BenchReport report("f5");
  report.config("mode", "full");
  report.config("model", "resnetlite");
  int pareto_count = 0;

  TableFormatter table({"config", "accuracy", "crit_accuracy", "energy_mJ",
                        "violations", "pareto"});
  for (const auto& pt : points) {
    // A point is Pareto-optimal if nothing has both >= accuracy and
    // <= energy (strict in one).
    bool dominated = false;
    for (const auto& other : points) {
      if (&other == &pt) continue;
      const bool better_or_equal =
          other.accuracy >= pt.accuracy && other.energy_mj <= pt.energy_mj;
      const bool strictly_better = other.accuracy > pt.accuracy ||
                                   other.energy_mj < pt.energy_mj;
      if (better_or_equal && strictly_better) dominated = true;
    }
    table.row({pt.config, fmt(pt.accuracy, 3), fmt(pt.crit_accuracy, 3),
               fmt(pt.energy_mj, 1), std::to_string(pt.violations),
               dominated ? "" : "*"});
    if (!dominated) ++pareto_count;
    report.set(pt.config + ".accuracy", pt.accuracy, "fraction");
    report.set(pt.config + ".energy_mj", pt.energy_mj, "mJ");
    report.set(pt.config + ".violations", static_cast<double>(pt.violations),
               "count");
  }
  table.print(std::cout);
  std::cout << "(* = on the Pareto front)\n";
  report.set("pareto_points", static_cast<double>(pareto_count), "count");
  return report.write() ? 0 : 1;
}
