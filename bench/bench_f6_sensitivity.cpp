// R-F6 — Per-layer pruning sensitivity.
//
// Prunes one layer at a time and measures accuracy: the profile that
// justifies (a) which layers the level builder may prune and (b) non-uniform
// per-layer ratios.  Early conv layers and the classifier head are the
// sensitive ones; wide mid layers absorb pruning almost for free.
#include <cmath>
#include <set>

#include "bench_common.h"
#include "bench_report.h"
#include "prune/sensitivity.h"

using namespace rrp;

namespace {

void run(models::ModelKind kind, bench::BenchReport& report) {
  models::ProvisionedModel pm = bench::provision(kind);
  prune::SensitivityOptions opt;
  opt.ratios = {0.0, 0.25, 0.5, 0.75, 0.9};
  const auto points = prune::layer_sensitivity(
      pm.net, pm.eval_data, models::zoo_input_shape(), opt);

  // Aggregate (deterministic) profile: mean accuracy across layers at the
  // deepest probed ratio, plus how many prunable layers were profiled.
  double deep_acc_sum = 0.0;
  int deep_count = 0;
  std::set<std::string> layers;
  for (const auto& p : points) {
    layers.insert(p.layer);
    if (std::abs(p.ratio - opt.ratios.back()) < 1e-9) {
      deep_acc_sum += p.accuracy;
      ++deep_count;
    }
  }
  const std::string base = std::string(models::model_kind_name(kind)) + ".";
  report.set(base + "layers", static_cast<double>(layers.size()), "count");
  if (deep_count > 0)
    report.set(base + "mean_acc@" + fmt(opt.ratios.back(), 2),
               deep_acc_sum / deep_count, "fraction");

  // Pivot: one row per layer, one column per ratio.
  std::vector<std::string> header{"layer"};
  for (double r : opt.ratios) header.push_back("acc@" + fmt(r, 2));
  TableFormatter table(header);

  std::string current;
  std::vector<std::string> row;
  for (const auto& p : points) {
    if (p.layer != current) {
      if (!row.empty()) table.row(row);
      current = p.layer;
      row = {current};
    }
    row.push_back(fmt(p.accuracy, 3));
  }
  if (!row.empty()) table.row(row);

  std::cout << "\n[" << models::model_kind_name(kind) << "]\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-F6", "per-layer structured pruning sensitivity");
  bench::BenchReport report("f6");
  report.config("mode", "full");
  for (models::ModelKind kind : models::all_model_kinds())
    run(kind, report);
  return report.write() ? 0 : 1;
}
