// R-T1 — Recovery latency: how fast can full accuracy come BACK?
//
// The table the title is about.  From the deepest pruning level, recover
// the full network via:
//   reversible-masked  — copy the masked weights back from the resident
//                        golden store (this library's contribution),
//   compact-swap       — level swap on the fast path's compacted ladder,
//   reload-memory      — deserialize the full artifact from RAM,
//   reload-disk        — read + deserialize the artifact from disk,
//   retrain-1epoch     — the classic non-reversible answer: fine-tune the
//                        pruned network for one epoch (measured once).
// Medians over repetitions; bytes give the traffic each path rewrites.
#include <filesystem>

#include "bench_common.h"
#include "bench_report.h"
#include "core/reversible_pruner.h"
#include "nn/train.h"

using namespace rrp;

namespace {

struct PathResult {
  std::string path;
  double median_us = 0.0;
  std::int64_t bytes = 0;
  std::string note;
};

double median_over(int reps, const std::function<double()>& once) {
  std::vector<double> xs;
  for (int r = 0; r < reps; ++r) xs.push_back(once());
  return quantile(xs, 0.5);
}

void run(models::ModelKind kind, bench::BenchReport& report) {
  models::ProvisionedModel pm = bench::provision(kind);
  const int deepest = pm.levels.level_count() - 1;
  const nn::Shape in = models::zoo_input_shape();
  std::vector<PathResult> results;

  {  // reversible-masked
    core::ReversiblePruner rp = pm.make_pruner();
    std::int64_t bytes = 0;
    const double us = median_over(25, [&] {
      rp.set_level(deepest);
      const auto s = rp.set_level(0);
      bytes = s.bytes_written;
      return s.wall_us;
    });
    results.push_back({"reversible-masked", us, bytes, "O(diff) copy-back"});
  }
  {  // compact-swap
    core::CompactedLadderProvider fast = pm.make_fast_provider(in);
    const double us = median_over(25, [&] {
      fast.set_level(deepest);
      return fast.set_level(0).wall_us;
    });
    results.push_back({"compact-swap", us, 0, "pointer swap"});
  }
  {  // reload-memory
    core::ReloadProvider rp(pm.net, pm.levels,
                            core::ReloadProvider::Source::Memory, "",
                            pm.bn_states);
    std::int64_t bytes = 0;
    const double us = median_over(25, [&] {
      rp.set_level(deepest);
      const auto s = rp.set_level(0);
      bytes = s.bytes_written;
      return s.wall_us;
    });
    results.push_back({"reload-memory", us, bytes, "full deserialize"});
  }
  {  // reload-disk
    const std::string dir =
        (std::filesystem::temp_directory_path() / "rrp_bench_t1").string();
    core::ReloadProvider rp(pm.net, pm.levels,
                            core::ReloadProvider::Source::Disk, dir,
                            pm.bn_states);
    std::int64_t bytes = 0;
    const double us = median_over(25, [&] {
      rp.set_level(deepest);
      const auto s = rp.set_level(0);
      bytes = s.bytes_written;
      return s.wall_us;
    });
    results.push_back({"reload-disk", us, bytes, "file read + deserialize"});
    std::filesystem::remove_all(dir);
  }
  {  // retrain one epoch from the pruned state (measured once — minutes-
     // scale on real stacks; even here it is orders of magnitude slower)
    nn::Network pruned = pm.net.clone();
    pm.levels.mask(deepest).apply(pruned);
    nn::SgdConfig cfg;
    cfg.epochs = 1;
    cfg.freeze_zeros = false;  // recovery means regrowing weights
    Rng rng(7);
    Timer t;
    nn::train_sgd(pruned, pm.train_data, cfg, rng);
    results.push_back({"retrain-1epoch", t.elapsed_us(),
                       pruned.param_count() * 4,
                       "1 epoch SGD (does NOT restore exact weights)"});
  }

  TableFormatter table({"recovery path", "median_us", "bytes_rewritten",
                        "vs reversible", "note"});
  const double base = results[0].median_us;
  for (const auto& r : results) {
    table.row({r.path, fmt(r.median_us, 1), std::to_string(r.bytes),
               fmt(r.median_us / base, 1) + "x", r.note});
    // Bytes rewritten are a pure function of the level ladder and gate-able;
    // median wall microseconds are context only (host dependent).
    const std::string key = std::string(models::model_kind_name(kind)) + "." +
                            r.path + ".";
    report.set(key + "bytes_rewritten", static_cast<double>(r.bytes),
               "bytes");
    report.set(key + "median_wall_us", r.median_us, "us");
  }
  std::cout << "\n[" << models::model_kind_name(kind)
            << "] recovery from level " << deepest << " to level 0\n";
  table.print(std::cout);
}

}  // namespace

int main() {
  bench::print_banner("R-T1", "recovery latency back to full accuracy");
  bench::BenchReport report("t1");
  report.config("mode", "full");
  for (models::ModelKind kind : models::all_model_kinds())
    run(kind, report);
  return report.write() ? 0 : 1;
}
