// R-T3 — Memory overhead of reversibility.
//
// What does "keep the past resident" cost?  Per model: the live network,
// the golden weight store, all nested masks, the per-level BatchNorm
// statistics (switchable BN), and — for comparison — the fast path's
// compacted ladder (all levels resident) and the reload baseline's
// artifacts.
#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"

using namespace rrp;

namespace {

std::string kb(std::int64_t bytes) {
  return fmt(static_cast<double>(bytes) / 1024.0, 1);
}

void report_model(models::ModelKind kind, bench::BenchReport& out) {
  models::ProvisionedModel pm = bench::provision(kind);
  const nn::Shape in = models::zoo_input_shape();

  const std::int64_t model_bytes = pm.net.param_count() * 4;
  const std::int64_t store_bytes = model_bytes;  // golden copy
  const std::int64_t mask_bytes = pm.levels.storage_bytes();
  std::int64_t bn_bytes = 0;
  for (const auto& s : pm.bn_states) bn_bytes += s.total_bytes();

  // The fast path's masked golden arm is the masked provider (one owner of
  // pm.net); the compact row is its ladder alone.
  core::CompactedLadderProvider fast = pm.make_fast_provider(in);
  core::ReversiblePruner& masked = fast.masked();
  const std::int64_t ladder_bytes = fast.ladder().weight_bytes;
  core::ReloadProvider reload(pm.net, pm.levels,
                              core::ReloadProvider::Source::Memory);

  std::int64_t artifact_bytes = 0;
  for (int k = 0; k < reload.level_count(); ++k)
    artifact_bytes += reload.artifact_bytes(k);

  TableFormatter table({"component", "KiB", "x model size"});
  auto row = [&](const std::string& name, std::int64_t bytes) {
    table.row({name, kb(bytes),
               fmt(static_cast<double>(bytes) / model_bytes, 2)});
  };
  row("model weights (live)", model_bytes);
  row("golden weight store", store_bytes);
  row("nested masks (all levels)", mask_bytes);
  row("switchable BN states", bn_bytes);
  row("TOTAL reversible-masked", masked.resident_weight_bytes() + bn_bytes);
  row("TOTAL compact cache (all levels)", ladder_bytes);
  row("reload artifacts (RAM mode)", artifact_bytes);

  // Every number here is a pure function of the cached artifacts.
  const std::string base = std::string(models::model_kind_name(kind)) + ".";
  out.set(base + "model_bytes", static_cast<double>(model_bytes), "bytes");
  out.set(base + "mask_bytes", static_cast<double>(mask_bytes), "bytes");
  out.set(base + "bn_bytes", static_cast<double>(bn_bytes), "bytes");
  out.set(base + "reversible_total_bytes",
          static_cast<double>(masked.resident_weight_bytes() + bn_bytes),
          "bytes");
  out.set(base + "compact_total_bytes",
          static_cast<double>(ladder_bytes), "bytes");
  out.set(base + "reload_artifact_bytes",
          static_cast<double>(artifact_bytes), "bytes");

  std::cout << "\n[" << models::model_kind_name(kind) << "] "
            << pm.net.param_count() << " parameters\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-T3", "memory overhead of reversibility");
  bench::BenchReport report("t3");
  report.config("mode", "full");
  for (models::ModelKind kind : models::all_model_kinds())
    report_model(kind, report);
  return report.write() ? 0 : 1;
}
