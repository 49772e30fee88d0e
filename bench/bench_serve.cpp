// R-S1 — fleet-scale serving: streams x frame-rate sweep.
//
// Drives the multi-stream serving engine (src/serve) over a grid of fleet
// sizes and per-frame deadlines against ONE shared compacted ladder, and
// reports per-point throughput, congestion-adjusted p99 frame latency
// (util/qsketch) and the overload actions (degrades/sheds) the SLO-driven
// admission layer took.
//
// Everything gated is *modeled*: per-frame times come from the platform
// model and the congestion factor is demand/budget, so BENCH_serve.json
// reproduces byte-exactly from the cached artifacts at any RRP_THREADS
// (DESIGN.md invariant 16).  The only measured numbers (wall seconds,
// frames/s) go through set_wall() and are never compared.
//
// --gate 1: reduced recipe (2 fleet sizes x 2 deadlines, 120 frames) for
// the bench-regression gate; the full recipe sweeps to 16 streams.
// --wall:   the saturation study (EXPERIMENTS.md R-S2): uncontended
//           streams in {1,2,4,8,16,32,64} at a fixed 12 ms deadline, wall
//           frames/s per point (machine-dependent, gate-exempt) — the
//           input to `rrp_cli report --bench` for the knee table.  The
//           measured wall channel is armed: every stream's RunResult::wall
//           folds into one per-level infer profile across the sweep.
#include <cstring>
#include <vector>

#include "bench_common.h"
#include "bench_report.h"
#include "serve/obs.h"
#include "serve/serve_engine.h"

using namespace rrp;

namespace {

struct SweepPoint {
  int streams = 0;
  double deadline_ms = 0.0;
};

std::vector<serve::StreamSpec> fleet_specs(int streams, double deadline_ms,
                                           int frames) {
  // Round-robin over the four standard suites, earliest arrival = highest
  // priority, so overload sheds the newest stream first.
  static const char* kSuites[] = {"cut_in", "urban", "highway", "degraded"};
  std::vector<serve::StreamSpec> specs;
  specs.reserve(static_cast<std::size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    serve::StreamSpec spec;
    spec.scenario = kSuites[i % 4];
    spec.frames = frames;
    spec.priority = streams - i;
    spec.deadline_ms = deadline_ms;
    specs.push_back(std::move(spec));
  }
  return specs;
}

}  // namespace

int main(int argc, char** argv) {
  bool gate = false;
  bool wall = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0)
      gate = bench::switch_arg(argc, argv, i);
    else if (std::strcmp(argv[i], "--wall") == 0)
      wall = true;
  }

  bench::print_banner("R-S1", "multi-stream serving: streams x fps sweep");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::LeNet);

  serve::ServeInputs inputs;
  inputs.net = &pm.net;
  inputs.levels = &pm.levels;
  inputs.bn_states = pm.bn_states;
  inputs.certified = bench::standard_certified();

  const int frames = gate ? 120 : 300;
  serve::ServeConfig cfg;
  cfg.seed = 20240807;
  // A fixed modeled host budget per tick: small fleets fit, large fleets
  // overflow it and the congestion factor + overload ladder engage.
  cfg.tick_budget_ms = wall ? 0.0 : 1.0;
  cfg.admission.max_streams = wall ? 64 : 16;
  cfg.measure_wall = wall;

  serve::ServeEngine engine(inputs, cfg);

  std::vector<SweepPoint> points;
  if (wall) {
    points = {{1, 12.0},  {2, 12.0},  {4, 12.0}, {8, 12.0},
              {16, 12.0}, {32, 12.0}, {64, 12.0}};
  } else if (gate) {
    // The last point's deadline sits below the congested frame time, so
    // the gate pins the overload ladder (degrades/floor), not just the
    // uncontended path.
    points = {{2, 12.0}, {2, 6.0}, {6, 12.0}, {6, 0.5}};
  } else {
    points = {{2, 12.0}, {4, 12.0}, {8, 12.0}, {16, 12.0},
              {2, 6.0},  {4, 6.0},  {8, 6.0},  {16, 6.0}};
  }

  bench::BenchReport report("serve");
  report.config("model", "lenet");
  report.config("mode", wall ? "wall" : (gate ? "gate" : "full"));
  report.config("frames", frames);
  report.config("budget_ms", wall ? "0" : "1");

  TableFormatter table({"streams", "fps", "frames", "miss%", "p99_ms",
                        "congestion", "degr", "shed", "wall_kfps"});
  double total_wall_s = 0.0;
  std::vector<serve::WallLevelStat> profile;
  for (const SweepPoint& p : points) {
    Timer timer;
    const serve::ServeReport rep =
        engine.run(fleet_specs(p.streams, p.deadline_ms, frames));
    const double wall_s = timer.elapsed_s();
    total_wall_s += wall_s;
    serve::fold_wall_profile(rep, profile);
    const double fps = 1000.0 / p.deadline_ms;
    const double miss_rate =
        rep.frames > 0
            ? static_cast<double>(rep.deadline_misses) / rep.frames
            : 0.0;
    table.row({std::to_string(p.streams), fmt(fps, 0),
               std::to_string(rep.frames), fmt(100.0 * miss_rate, 1),
               fmt(rep.p99_frame_ms, 2), fmt(rep.mean_congestion, 2),
               std::to_string(rep.degrades), std::to_string(rep.sheds),
               fmt(rep.frames / wall_s / 1e3, 1)});

    const std::string id =
        "s" + std::to_string(p.streams) + "_fps" + fmt(fps, 0);
    report.set(id + ".frames", static_cast<double>(rep.frames), "count");
    report.set(id + ".deadline_miss_rate", miss_rate, "fraction");
    report.set(id + ".p99_frame_ms", rep.p99_frame_ms, "ms");
    report.set(id + ".mean_congestion", rep.mean_congestion, "x");
    report.set(id + ".degrades", static_cast<double>(rep.degrades), "count");
    report.set(id + ".sheds", static_cast<double>(rep.sheds), "count");
    report.set(id + ".final_floor", static_cast<double>(rep.final_floor),
               "level");
    report.set_wall("wall_" + id + ".frames_per_s", rep.frames / wall_s,
                    "frames/s");
  }
  table.print(std::cout);
  std::cout << "wall: " << fmt(total_wall_s, 2) << " s total\n";

  // Measured wall time: printed for the record, never exported to the
  // gated metrics.
  if (wall) serve::write_wall_profile(profile, std::cout);

  // Pins the fleet-snapshot schema so an unversioned layout change fails
  // the gate instead of silently breaking downstream snapshot consumers.
  report.set("snapshot.schema_version",
             static_cast<double>(serve::kSnapshotSchemaVersion), "version");
  report.set_wall("wall_total_s", total_wall_s, "s");
  return report.write() ? 0 : 1;
}
