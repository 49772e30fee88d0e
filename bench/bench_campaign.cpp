// R-C1 — Monte-Carlo robustness campaign: streaming tail statistics.
//
// Fans scenario x policy x fault-plan cells (sim/campaign.h) over the
// thread pool and reports the campaign's tail metrics: the p99/p99.9
// missed-critical rate across cells, worst-case fault detection latency
// and recovery time, and the deadline-slack distribution — the numbers
// the statistical safety case (DESIGN.md) argues from.
//
// Everything gated is *modeled* (platform-model latency, modeled repair
// cost), so BENCH_campaign.json reproduces byte-exactly from the cached
// artifacts at any RRP_THREADS; the only measured numbers (campaign wall
// time, cells/s) go through set_wall() and are never compared.
//
// --gate 1: reduced recipe (2 scenarios x 2 policies x 3 replicates,
// 150 frames) for the bench-regression gate; the full recipe sweeps the
// generated scenario families at 300 frames.
#include <cstring>

#include "bench_common.h"
#include "bench_report.h"
#include "sim/campaign.h"

using namespace rrp;

int main(int argc, char** argv) {
  bool gate = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--gate") == 0)
      gate = bench::switch_arg(argc, argv, i);

  bench::print_banner("R-C1",
                      "Monte-Carlo robustness campaign tail statistics");
  models::ProvisionedModel pm = bench::provision(models::ModelKind::LeNet);

  sim::CampaignSpec spec;
  spec.seed = 20240325;
  spec.frames = gate ? 150 : 300;
  spec.replicates = gate ? 3 : 16;
  spec.faults_per_cell = 4;
  spec.worst_cells = 3;
  const std::vector<std::string> families =
      gate ? std::vector<std::string>{"cut_in", "fog_ramp"}
           : std::vector<std::string>{"cut_in", "swarm_cut_in", "rush_hour",
                                      "fog_ramp"};
  for (const std::string& name : families)
    spec.scenarios.push_back(sim::builtin_scenario_spec(name));
  spec.policies = {"greedy", "fixed2"};

  sim::CampaignInputs inputs;
  inputs.net = &pm.net;
  inputs.levels = &pm.levels;
  inputs.bn_states = pm.bn_states;
  inputs.certified = bench::standard_certified();

  const std::int64_t cells = sim::campaign_cell_count(spec);
  Timer timer;
  const sim::CampaignAggregate agg = sim::run_campaign(spec, inputs);
  const double wall_s = timer.elapsed_s();

  sim::write_campaign_report(spec, agg, std::cout);
  std::cout << "\nwall: " << fmt(wall_s, 2) << " s ("
            << fmt(static_cast<double>(cells) / wall_s, 1) << " cells/s)\n";

  bench::BenchReport report("campaign");
  report.config("model", "lenet");
  report.config("mode", gate ? "gate" : "full");
  report.config("frames", spec.frames);
  report.config("cells", cells);

  const auto count = [&](const std::string& id, std::int64_t v) {
    report.set(id, static_cast<double>(v), "count");
  };
  count("cells", agg.cells);
  count("critical_frames", agg.critical_frames);
  count("missed_critical_frames", agg.missed_critical_frames);
  count("deadline_misses", agg.deadline_misses);
  count("true_safety_violations", agg.true_safety_violations);
  count("watchdog_degrades", agg.watchdog_degrades);
  count("weight_faults.injected", agg.weight_faults_injected);
  count("weight_faults.detected", agg.weight_faults_detected);
  count("weight_faults.healed", agg.weight_faults_healed);

  report.set("missed_critical_rate.p99",
             agg.missed_critical_rate.quantile(0.99), "fraction");
  report.set("missed_critical_rate.p999",
             agg.missed_critical_rate.quantile(0.999), "fraction");
  report.set("missed_critical_rate.max", agg.missed_critical_rate.max(),
             "fraction");
  report.set("detect_latency_frames.p99",
             agg.detect_latency_frames.quantile(0.99), "frames");
  report.set("detect_latency_frames.max", agg.detect_latency_frames.max(),
             "frames");
  report.set("recovery_ms.p99", agg.recovery_ms.quantile(0.99), "ms");
  report.set("recovery_ms.max", agg.recovery_ms.max(), "ms");
  report.set("deadline_slack_ms.p50", agg.deadline_slack_ms.quantile(0.5),
             "ms");
  report.set("deadline_slack_ms.min", agg.deadline_slack_ms.min(), "ms");
  if (!agg.worst.empty()) {
    count("worst.missed_critical", agg.worst[0].missed_critical);
    report.set("worst.min_slack_ms", agg.worst[0].min_slack_ms, "ms");
  }

  report.set_wall("wall_campaign_s", wall_s, "s");
  report.set_wall("wall_cells_per_s", static_cast<double>(cells) / wall_s,
                  "cells/s");
  return report.write() ? 0 : 1;
}
