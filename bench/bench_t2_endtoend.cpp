// R-T2 — The headline end-to-end comparison across scenario suites.
//
// Systems compared on every suite (highway / urban / cut_in / degraded):
//   no-prune            — full network every frame (accuracy ceiling,
//                         energy worst case)
//   static-L2 / static-L4 — design-time pruning (energy win, cannot
//                         recover: safety violations in hazards)
//   reload+adaptive     — NON-reversible runtime pruning: adapts via
//                         artifact reload; pays the full-model reload cost
//                         on every hazard (deadline misses)
//   reversible (ours)   — masked O(Δ) switching with safety monitor
//   fastpath (ours)     — provisioned compacted ladder: O(1) level swap,
//                         physically smaller math on the frame path
//   oracle              — reversible with future knowledge (upper bound)
//
// Columns are the reconstructed table's: perception accuracy, missed
// critical detections, deadline misses, energy, switching behaviour.
#include <cctype>
#include <cstring>
#include <fstream>

#include "bench_common.h"
#include "bench_report.h"
#include "core/metrics.h"
#include "core/reversible_pruner.h"
#include "util/thread_pool.h"
#include "util/trace.h"

using namespace rrp;

namespace {

struct SystemRow {
  std::string system;
  core::RunSummary summary;
};

/// Averages summaries over seeds (counts become per-run means).
core::RunSummary average(const std::vector<core::RunSummary>& xs) {
  core::RunSummary m;
  const double n = static_cast<double>(xs.size());
  for (const auto& s : xs) {
    m.frames += s.frames;
    m.accuracy += s.accuracy / n;
    m.critical_accuracy += s.critical_accuracy / n;
    m.missed_critical_rate += s.missed_critical_rate / n;
    m.deadline_miss_rate += s.deadline_miss_rate / n;
    m.total_energy_mj += s.total_energy_mj / n;
    m.mean_level += s.mean_level / n;
    m.level_switches += s.level_switches;
    m.mean_switch_us += s.mean_switch_us / n;
    m.safety_violations += s.safety_violations;
    m.vetoes += s.vetoes;
  }
  m.level_switches /= static_cast<std::int64_t>(xs.size());
  m.safety_violations /= static_cast<std::int64_t>(xs.size());
  m.vetoes /= static_cast<std::int64_t>(xs.size());
  return m;
}

/// Metric-id-safe system key: "reversible (ours)" -> "reversible-ours".
std::string system_key(const std::string& name) {
  std::string key;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-') {
      key.push_back(c);
    } else if (!key.empty() && key.back() != '-') {
      key.push_back('-');
    }
  }
  while (!key.empty() && key.back() == '-') key.pop_back();
  return key;
}

void run_suite(models::ProvisionedModel& pm,
               const std::vector<sim::Scenario>& replicas,
               const sim::RunConfig& base_cfg, bench::BenchReport& report) {
  const core::SafetyConfig certified = bench::standard_certified();
  std::vector<SystemRow> rows;
  std::vector<sim::WallStats> walls;  // aligned with rows; empty frames
                                      // unless base_cfg.measure_wall

  // `make` rebuilds provider+policy fresh per replica (controllers are
  // stateful); results are averaged over scenario seeds.  Replica seeds fan
  // out over the thread pool: each replica runs against a private clone of
  // the co-trained network (ReversiblePruner mutates its network), and
  // summaries land in per-replica slots so the seed average is reduced in
  // replica order — identical results for any RRP_THREADS.
  auto run_system = [&](const std::string& name, auto&& make) {
    RRP_SPAN_VAR(sys_span, name.c_str());
    sys_span.add_items(static_cast<std::int64_t>(replicas.size()));
    std::vector<core::RunSummary> summaries(replicas.size());
    std::vector<sim::WallStats> rep_walls(replicas.size());
    parallel_for(
        0, static_cast<std::int64_t>(replicas.size()), 1,
        [&](std::int64_t r_begin, std::int64_t r_end) {
          for (std::int64_t rep = r_begin; rep < r_end; ++rep) {
            sim::RunConfig cfg = base_cfg;
            cfg.noise_seed = base_cfg.noise_seed + static_cast<std::uint64_t>(rep);
            nn::Network net = pm.net.clone();
            auto [provider, policy] =
                make(replicas[static_cast<std::size_t>(rep)], net);
            core::SafetyMonitor monitor(certified);
            core::RuntimeController ctl(*policy, *provider, &monitor);
            sim::RunResult res =
                sim::run_scenario(replicas[static_cast<std::size_t>(rep)], ctl,
                                  cfg);
            summaries[static_cast<std::size_t>(rep)] = res.summary;
            rep_walls[static_cast<std::size_t>(rep)] = std::move(res.wall);
          }
        });
    // Merge measured frames in replica order (deterministic layout; the
    // readings themselves are machine-dependent and stay gate-exempt).
    sim::WallStats merged;
    merged.enabled = base_cfg.measure_wall;
    for (auto& w : rep_walls)
      merged.frames.insert(merged.frames.end(), w.frames.begin(),
                           w.frames.end());
    walls.push_back(std::move(merged));
    rows.push_back({name, average(summaries)});
  };

  using ProviderPtr = std::unique_ptr<core::InferenceProvider>;
  using PolicyPtr = std::unique_ptr<core::Policy>;
  const int levels = pm.levels.level_count();

  // Per-replica ReversiblePruner over the replica's private clone, with the
  // shared switchable-BN states installed (mirrors pm.make_pruner()).
  auto make_pruner = [&](nn::Network& net) {
    auto p = std::make_unique<core::ReversiblePruner>(net, pm.levels);
    if (!pm.bn_states.empty()) p->set_bn_states(pm.bn_states);
    return p;
  };

  run_system("no-prune", [&](const sim::Scenario&, nn::Network& net) {
    ProviderPtr p = make_pruner(net);
    PolicyPtr pol = std::make_unique<core::FixedPolicy>(0);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("static-L2", [&](const sim::Scenario&, nn::Network& net) {
    ProviderPtr p = std::make_unique<core::StaticProvider>(
        net, pm.levels, 2, pm.bn_states);
    PolicyPtr pol = std::make_unique<core::CriticalityGreedyPolicy>(
        certified, 6, levels);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("static-L4", [&](const sim::Scenario&, nn::Network& net) {
    ProviderPtr p = std::make_unique<core::StaticProvider>(
        net, pm.levels, 4, pm.bn_states);
    PolicyPtr pol = std::make_unique<core::CriticalityGreedyPolicy>(
        certified, 6, levels);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("reload+adaptive", [&](const sim::Scenario&, nn::Network& net) {
    ProviderPtr p = std::make_unique<core::ReloadProvider>(
        net, pm.levels, core::ReloadProvider::Source::Memory, "",
        pm.bn_states);
    PolicyPtr pol = std::make_unique<core::CriticalityGreedyPolicy>(
        certified, 6, levels);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("reversible (ours)", [&](const sim::Scenario&, nn::Network& net) {
    ProviderPtr p = make_pruner(net);
    PolicyPtr pol = std::make_unique<core::CriticalityGreedyPolicy>(
        certified, 6, levels);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("fastpath (ours)", [&](const sim::Scenario&, nn::Network& net) {
    // Provisioned compacted ladder: O(1) swap, physically smaller math on
    // the frame path, masked golden arm riding along for scrub/restore.
    ProviderPtr p = std::make_unique<core::CompactedLadderProvider>(
        net, pm.levels, sim::input_shape(base_cfg.vision), pm.bn_states);
    PolicyPtr pol = std::make_unique<core::CriticalityGreedyPolicy>(
        certified, 6, levels);
    return std::make_pair(std::move(p), std::move(pol));
  });
  run_system("oracle", [&](const sim::Scenario& sc, nn::Network& net) {
    ProviderPtr p = make_pruner(net);
    PolicyPtr pol = std::make_unique<core::OraclePolicy>(
        certified, sim::criticality_trace(sc, base_cfg.criticality), 15);
    return std::make_pair(std::move(p), std::move(pol));
  });

  TableFormatter table({"system", "accuracy", "crit_acc", "missed_crit_%",
                        "deadline_miss_%", "energy_mJ", "mean_level",
                        "switches", "mean_switch_us", "violations"});
  for (const auto& r : rows) {
    const core::RunSummary& s = r.summary;
    table.row({r.system, fmt(s.accuracy, 3), fmt(s.critical_accuracy, 3),
               fmt(100.0 * s.missed_critical_rate, 1),
               fmt(100.0 * s.deadline_miss_rate, 1),
               fmt(s.total_energy_mj, 1), fmt(s.mean_level, 2),
               std::to_string(s.level_switches), fmt(s.mean_switch_us, 1),
               std::to_string(s.safety_violations)});
  }
  std::cout << "\n--- suite: " << replicas.front().name << " ("
            << replicas.front().frame_count() << " frames x "
            << replicas.size() << " seeds, averaged) ---\n";
  table.print(std::cout);

  // Machine-readable mirror of the table — everything is modeled
  // (accuracy, deadline slack, energy from the platform model), so the
  // values reproduce exactly and the regression gate can band them.
  const std::string suite = replicas.front().name;
  for (const auto& r : rows) {
    const core::RunSummary& s = r.summary;
    const std::string base = suite + "." + system_key(r.system) + ".";
    report.set(base + "accuracy", s.accuracy, "fraction");
    report.set(base + "missed_critical_rate", s.missed_critical_rate,
               "fraction");
    report.set(base + "deadline_miss_rate", s.deadline_miss_rate, "fraction");
    report.set(base + "energy_mj", s.total_energy_mj, "mJ");
    report.set(base + "mean_switch_us", s.mean_switch_us, "us");
    report.set(base + "violations", static_cast<double>(s.safety_violations),
               "count");
  }

  // Measured wall-clock mirror (gate-exempt): mean per-frame inference
  // wall time per system, plus the per-level breakdown where a level
  // actually executed frames.
  if (base_cfg.measure_wall) {
    for (std::size_t ri = 0; ri < rows.size(); ++ri) {
      const std::string base = suite + "." + system_key(rows[ri].system) + ".";
      report.set_wall(base + "wall_infer_mean_us", walls[ri].mean_infer_us(),
                      "us");
      for (int k = 0; k < levels; ++k) {
        const double us = walls[ri].mean_infer_us(k);
        if (us > 0.0)
          report.set_wall(base + "wall_infer_us.l" + std::to_string(k), us,
                          "us");
      }
    }
    const auto mean_of = [&](const std::string& name) -> double {
      for (std::size_t ri = 0; ri < rows.size(); ++ri)
        if (rows[ri].system == name) return walls[ri].mean_infer_us();
      return 0.0;
    };
    const double fast = mean_of("fastpath (ours)");
    const double noprune = mean_of("no-prune");
    const double masked = mean_of("reversible (ours)");
    if (fast > 0.0 && noprune > 0.0 && masked > 0.0) {
      report.set_wall(suite + ".wall_speedup_fastpath_vs_noprune",
                      noprune / fast, "x");
      report.set_wall(suite + ".wall_speedup_fastpath_vs_masked",
                      masked / fast, "x");
      std::cout << "measured wall: fastpath " << fmt(fast, 1)
                << " us/frame vs no-prune " << fmt(noprune, 1) << " ("
                << fmt(noprune / fast, 2) << "x) vs reversible-masked "
                << fmt(masked, 1) << " (" << fmt(masked / fast, 2) << "x)\n";
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  // --trace out.json: arm the span tracer for the whole bench and dump a
  // Chrome trace_event file at exit.  Replica runs execute inside pool
  // chunks, so their spans are suppressed (deterministic); the trace shows
  // the top-level fan-out structure (pool.parallel_for per system).
  //
  // --gate 1: reduced recipe (cut_in suite only, 300 frames, 1 seed) for
  // the bench-regression gate — small enough to run on every check.sh
  // invocation, and marked mode=gate in BENCH_t2.json so baselines never
  // get compared against full-recipe runs.
  //
  // --wall 1: the gate recipe with per-frame MEASURED inference wall-clock
  // on (RunConfig::measure_wall).  One seed so replicas never contend for
  // cores; measured numbers land under the gate-exempt wall_metrics key.
  std::string trace_path;
  bool gate = false;
  bool wall = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
    else if (std::strcmp(argv[i], "--gate") == 0)
      gate = bench::switch_arg(argc, argv, i);
    else if (std::strcmp(argv[i], "--wall") == 0)
      wall = bench::switch_arg(argc, argv, i);
  }

  bench::print_banner("R-T2", "end-to-end safety/efficiency across suites");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::ResNetLite);
  std::cout << "model: resnetlite, per-level accuracy:";
  for (double a : models::level_accuracy(pm)) std::cout << " " << fmt(a, 3);
  std::cout << "\n";

  if (!trace_path.empty()) {
    core::reset_observability();
    trace::set_enabled(true);
  }

  const bool reduced = gate || wall;
  const int frames = reduced ? 300 : 900;
  const int seeds = reduced ? 1 : 3;
  const int suites = reduced ? 1 : 4;  // reduced: cut_in only (index 2)
  bench::BenchReport report("t2");
  report.config("model", "resnetlite");
  report.config("mode", gate ? "gate" : (wall ? "wall" : "full"));
  report.config("frames", frames);
  report.config("seeds", seeds);

  sim::RunConfig cfg = bench::standard_run_config();
  cfg.measure_wall = wall;
  for (int suite = 0; suite < suites; ++suite) {
    const std::size_t index = reduced ? 2u : static_cast<std::size_t>(suite);
    const std::string name = sim::builtin_scenario_names()[index];
    std::vector<sim::Scenario> replicas;
    for (int rep = 0; rep < seeds; ++rep)
      replicas.push_back(sim::make_suite_or_dsl(
          name, frames, 20240325 + 1000ull * rep + index + 1));
    run_suite(pm, replicas, cfg, report);
  }
  if (!report.write()) return 1;

  if (!trace_path.empty()) {
    trace::set_enabled(false);
    std::ofstream f(trace_path);
    if (!f) {
      std::cerr << "cannot write " << trace_path << "\n";
      return 1;
    }
    trace::write_chrome_trace(f);
    std::cout << "\nchrome trace (" << trace::spans().size()
              << " spans) written to " << trace_path << "\n";
  }
  return 0;
}
