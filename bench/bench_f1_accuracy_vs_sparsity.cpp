// R-F1 — Accuracy vs pruning ratio, structured vs unstructured, per model.
//
// Reproduces the figure motivating the level ladder: accuracy degrades
// gracefully under one-shot unstructured pruning, faster under structured
// pruning, and the co-trained shared-weight ladder (the deployed artifact)
// recovers most of the structured gap.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

namespace {

void sweep(models::ModelKind kind, bench::BenchReport& report) {
  models::ProvisionedModel pm = bench::provision(kind);
  const std::vector<double> level_acc = models::level_accuracy(pm);

  // One-shot masks on the CO-TRAINED weights at a fine ratio grid.
  const std::vector<double> grid{0.0, 0.1, 0.2, 0.3, 0.4,
                                 0.5, 0.6, 0.7, 0.8, 0.9};
  TableFormatter table({"ratio", "unstructured_acc", "structured_acc",
                        "cotrained_ladder_acc", "ladder_sparsity"});

  auto ulib = prune::PruneLevelLibrary::build_unstructured(pm.net, grid);
  auto slib = prune::PruneLevelLibrary::build_structured(
      pm.net, grid, models::zoo_input_shape(), prune::ImportanceMetric::L1,
      /*min_channels=*/1);

  core::ReversiblePruner ladder = pm.make_pruner();
  const auto ladder_ratios = [&] {
    std::vector<double> r;
    for (int k = 0; k < pm.levels.level_count(); ++k)
      r.push_back(pm.levels.ratio(k));
    return r;
  }();

  for (std::size_t i = 0; i < grid.size(); ++i) {
    const int k = static_cast<int>(i);
    nn::Network probe_u = pm.net.clone();
    ulib.mask(k).apply(probe_u);
    const double acc_u = nn::evaluate_accuracy(probe_u, pm.eval_data);

    nn::Network probe_s = pm.net.clone();
    slib.mask(k).apply(probe_s);
    const double acc_s = nn::evaluate_accuracy(probe_s, pm.eval_data);

    // Ladder entry: the nearest certified level at or below this ratio.
    std::string ladder_acc = "-", ladder_sparsity = "-";
    for (int l = 0; l < pm.levels.level_count(); ++l) {
      if (std::abs(ladder_ratios[static_cast<std::size_t>(l)] - grid[i]) <
          1e-9) {
        ladder_acc = fmt(level_acc[static_cast<std::size_t>(l)], 3);
        ladder_sparsity = fmt(pm.levels.mask(l).sparsity(pm.net), 3);
      }
    }

    table.row({fmt(grid[i], 2), fmt(acc_u, 3), fmt(acc_s, 3), ladder_acc,
               ladder_sparsity});

    if (std::abs(grid[i] - 0.5) < 1e-9) {
      const std::string base = std::string(models::model_kind_name(kind));
      report.set(base + ".unstructured_acc@0.5", acc_u, "fraction");
      report.set(base + ".structured_acc@0.5", acc_s, "fraction");
    }
  }

  report.set(std::string(models::model_kind_name(kind)) + ".dense_acc",
             level_acc[0], "fraction");

  std::cout << "\n[" << models::model_kind_name(kind)
            << "] dense eval accuracy = " << fmt(level_acc[0], 3)
            << "\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-F1",
                      "accuracy vs pruning ratio (structured / unstructured / "
                      "co-trained ladder)");
  bench::BenchReport report("f1");
  report.config("mode", "full");
  for (models::ModelKind kind : models::all_model_kinds())
    sweep(kind, report);
  return report.write() ? 0 : 1;
}
