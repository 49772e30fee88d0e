// R-F2 — Latency and energy vs pruning level.
//
// Two views per model and level:
//   * platform-model latency/energy from the level's effective MACs
//     (what a sparsity-aware embedded accelerator would see), and
//   * measured wall-clock inference latency of THIS engine for the masked
//     network and the physically compacted network — demonstrating that
//     masked execution alone does not buy wall-clock time on dense
//     hardware, while compaction does.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

namespace {

double measure_infer_ms(core::InferenceProvider& provider,
                        const nn::Tensor& x, int reps) {
  provider.infer(x);  // warm-up
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    provider.infer(x);
    times.push_back(t.elapsed_ms());
  }
  return quantile(times, 0.5);
}

void sweep(models::ModelKind kind, bench::BenchReport& report) {
  models::ProvisionedModel pm = bench::provision(kind);
  const std::vector<double> level_acc = models::level_accuracy(pm);
  const nn::Shape in = models::zoo_input_shape();
  const sim::PlatformModel platform;

  // One owner of pm.net: the fast path's masked golden arm is the masked
  // provider, so two pruners never walk the same network.
  core::CompactedLadderProvider fast = pm.make_fast_provider(in);
  core::ReversiblePruner& masked = fast.masked();

  nn::Tensor x(in);
  Rng rng(5);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));

  TableFormatter table({"level", "ratio", "eff_MMACs", "model_lat_ms",
                        "model_energy_mJ", "host_masked_ms",
                        "host_compact_ms", "accuracy"});
  for (int k = 0; k < pm.levels.level_count(); ++k) {
    masked.set_level(k);
    fast.set_level(k);
    const std::int64_t macs = masked.active_macs(in);
    table.row({std::to_string(k), fmt(pm.levels.ratio(k), 2),
               fmt(static_cast<double>(macs) / 1e6, 3),
               fmt(platform.latency_ms(macs), 3),
               fmt(platform.energy_mj(macs), 3),
               fmt(measure_infer_ms(masked, x, 15), 3),
               fmt(measure_infer_ms(fast, x, 15), 3),
               fmt(level_acc[static_cast<std::size_t>(k)], 3)});

    // Modeled (deterministic) view only — host wall times stay console-only.
    const std::string base = std::string(models::model_kind_name(kind)) +
                             ".l" + std::to_string(k) + ".";
    report.set(base + "model_lat_ms", platform.latency_ms(macs), "ms");
    report.set(base + "model_energy_mj", platform.energy_mj(macs), "mJ");
    report.set(base + "eff_mmacs", static_cast<double>(macs) / 1e6, "MMAC");
  }
  std::cout << "\n[" << models::model_kind_name(kind) << "]\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-F2", "latency & energy vs pruning level");
  bench::BenchReport report("f2");
  report.config("mode", "full");
  for (models::ModelKind kind : models::all_model_kinds())
    sweep(kind, report);
  return report.write() ? 0 : 1;
}
