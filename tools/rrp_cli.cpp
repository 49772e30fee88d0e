// rrp_cli — command-line front end for the rrp library.
//
//   rrp_cli models                         list the model zoo
//   rrp_cli provision <model>|all          train + co-train + calibrate
//                                          (all = every model, in parallel)
//   rrp_cli evaluate  <model>              per-level accuracy/latency table
//   rrp_cli sensitivity <model>            per-layer sensitivity sweep
//   rrp_cli run <model> <suite> [opts]     closed-loop scenario run
//        --policy greedy|hybrid|oracle|fixed<K>   (default greedy)
//        --frames N      (default 900)
//        --seed S        (default 20240325)
//        --hysteresis K  (default 6)
//        --csv FILE        export per-frame telemetry
//        --trace FILE      replay a recorded trace instead of a suite
//        --export-trace F  save the generated scenario as a trace CSV
//        --assurance FILE  export the safety-case evidence as JSON
//   rrp_cli trace <model> <suite> [opts]   closed-loop run with the span
//                                          tracer + metrics registry armed
//        --policy greedy|fixed<K>   (default greedy)
//        --frames N      (default 900)
//        --seed S        (default 20240325)
//        --json FILE     Chrome trace_event JSON (default trace.json)
//        --spans FILE    per-frame span CSV (default trace_spans.csv)
//        --metrics FILE  metrics snapshot CSV (default trace_metrics.csv)
//        --wall 1        also capture wall-clock per span (forfeits
//                        byte-identity; never used by tests)
//   rrp_cli faults <model> [opts]          seeded fault-injection campaign;
//                                          prints per-arm streaming tail
//                                          stats (quantile sketches)
//        --suites a,b,c  (default cut_in,urban; also accepts dsl:<line>)
//        --arms a,b      reversible|reload-memory|reload-disk
//                        (default reversible,reload-memory)
//        --kinds a,b     restrict the fault mix to the named kinds
//                        (sensor_blackout|weight_bit_flip|store_bit_flip|
//                        stuck_criticality|stale_criticality|latency_spike|
//                        dropped_decision|artifact_read_failure)
//        --frames N      (default 600)
//        --seed S        (default 20240325)
//        --faults N      faults per run (default 10)
//        --policy P      greedy|fixed<K> (default greedy)
//        --csv FILE      export the per-fault outcome table (the only way
//                        to get per-fault rows; default output is streamed)
//   rrp_cli campaign <model> <spec-file> [opts]
//                                          Monte-Carlo robustness campaign:
//                                          scenario x policy x fault-plan
//                                          cells fanned over the thread
//                                          pool, folded into one streaming
//                                          aggregate report (byte-identical
//                                          for a given --seed at any
//                                          --threads), plus a replayable
//                                          incident bundle per worst cell
//        --seed S        override the spec seed
//        --frames N      override frames per cell
//        --out FILE      also write the report to FILE
//        --bundle BASE   worst-cell bundle basename (default
//                        campaign_worst -> campaign_worst_<i>.rrpb)
//        --bundles 0     skip dumping worst-cell bundles
//   rrp_cli serve <model> [opts]           fleet-scale multi-stream serving:
//                                          one shared compacted ladder, N
//                                          concurrent streams, SLO-driven
//                                          admission/degrade/shed (report is
//                                          byte-identical at any --threads)
//        --streams N     number of streams (default 4)
//        --suites a,b    scenario cycle, assigned round-robin
//                        (default cut_in,urban,highway,degraded;
//                        also accepts dsl:<line>)
//        --frames N      frames per stream (default 300)
//        --seed S        engine seed (default 20240807)
//        --budget MS     modeled compute budget per tick; demand above it
//                        stretches frames by demand/budget (default 0 =
//                        uncontended)
//        --capacity N    admission capacity (default 8)
//        --stagger N     arrival stagger in ticks between streams (def. 0)
//        --policy P      greedy|fixed<K> (default greedy)
//        --deadline MS   per-frame deadline (default 12.0)
//        --out FILE      also write the report to FILE
//        --report-json F machine-readable report (schema-versioned JSON)
//        --wall 1        enable the measured wall-clock channel: the run's
//                        wall seconds and a per-level infer profile folded
//                        from each stream's RunResult::wall (printed after
//                        the report; never gated, never deterministic)
//        --snapshot-every K  capture a fleet snapshot every K ticks
//        --snapshot-out BASE write BASE_tick<N>.json / .prom per snapshot
//                        plus BASE_timeline.csv (implies --snapshot-every
//                        50 when not given)
//   rrp_cli report [opts]                  offline observability analyzer
//        --bench FILE    BENCH_serve.json from `bench_serve --wall`:
//                        renders the streams-vs-throughput saturation
//                        table with marginal scaling efficiency + knee
//        --snapshot F    fleet snapshot JSON (repeatable, tick order)
//        --heatmap BASE  write BASE_level.csv / BASE_p99.csv heatmaps
//                        (rows = snapshot ticks, cols = streams) from the
//                        --snapshot files
//   rrp_cli inspect <file.rrpn>            dump a serialized network
//   rrp_cli blackbox dump <model> <suite> [opts]
//                                          closed-loop fault run with the
//                                          flight recorder + SLO monitor
//                                          armed; dumps an incident bundle
//                                          (BASE.rrpb + BASE.csv) when any
//                                          SLO incident fires
//        --frames N      (default 600)
//        --seed S        (default 20240325)
//        --policy P      greedy|fixed<K> (default greedy)
//        --hysteresis K  (default 6)
//        --faults N      seeded random faults (default 10)
//        --scrub N       scrub period frames (default 20)
//        --watchdog N    watchdog overrun frames (default 8)
//        --deadline MS   (default 12.0)
//        --capacity N    recorder ring capacity (default 256)
//        --trace 1       arm span tracing (span digests in the records)
//        --out BASE      output basename (default blackbox_<model>_<suite>)
//        --force 1       dump even when no incident fired
//   rrp_cli blackbox inspect <bundle.rrpb> print a bundle's context,
//                                          incidents and window extremes
//   rrp_cli blackbox replay <bundle.rrpb>  re-run the recorded window from
//                                          the bundle's seed/config and
//                                          assert byte-identical telemetry
//
// Global flags (any command):
//   --threads N    size of the process thread pool (1 = serial legacy
//                  path); overrides the RRP_THREADS environment variable,
//                  default hardware_concurrency.  Results are identical
//                  for every thread count.
//
// Model caches are read/written in $RRP_CACHE_DIR (default "cache",
// auto-created on first save).
#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/assurance_export.h"
#include "core/flight_recorder.h"
#include "core/metrics.h"
#include "core/reversible_pruner.h"
#include "models/trained_cache.h"
#include "nn/serialize.h"
#include "prune/sensitivity.h"
#include "sim/campaign.h"
#include "sim/faults.h"
#include "sim/incident_replay.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "serve/serve_engine.h"
#include "sim/trace_io.h"
#include "util/checks.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/trace.h"

using namespace rrp;

namespace {

std::string cache_dir() {
  const char* dir = std::getenv("RRP_CACHE_DIR");
  return dir != nullptr && *dir != '\0' ? dir : "cache";
}

/// A malformed command line: main prints the message and exits 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The value after the flag at argv[i]; a flag with none is a UsageError.
std::string flag_value(int argc, char** argv, int i) {
  if (i + 1 >= argc)
    throw UsageError(std::string(argv[i]) + " expects a value");
  return argv[i + 1];
}

/// `value` parsed strictly (util/cli.h) for `flag`, or a UsageError.
template <typename T>
T number_flag(const std::optional<T>& parsed, const std::string& flag,
              const std::string& value, const char* kind) {
  if (!parsed)
    throw UsageError(flag + " expects " + kind + ", got '" + value + "'");
  return *parsed;
}
int int_flag(const std::string& flag, const std::string& value) {
  return number_flag(parse_int(value), flag, value, "an integer");
}
std::uint64_t u64_flag(const std::string& flag, const std::string& value) {
  return number_flag(parse_u64(value), flag, value,
                     "an unsigned 64-bit integer");
}
double double_flag(const std::string& flag, const std::string& value) {
  return number_flag(parse_double(value), flag, value, "a finite number");
}
bool switch_flag(const std::string& flag, const std::string& value) {
  return number_flag(parse_switch(value), flag, value, "0 or 1");
}

/// Opens `path`, runs `emit`, flushes, and verifies the stream at every
/// step.  Every output file the CLI writes goes through here, so an
/// unwritable directory / full disk always yields a clear diagnostic
/// (with the OS error) and a non-zero exit — never a silent truncation.
template <typename Emit>
bool write_output_file(const std::string& path, Emit&& emit,
                       bool binary = false) {
  errno = 0;
  std::ofstream f(path, binary ? std::ios::binary | std::ios::trunc
                               : std::ios::trunc);
  if (!f) {
    std::cerr << "error: cannot open '" << path << "' for writing ("
              << (errno != 0 ? std::strerror(errno) : "unknown error")
              << ")\n";
    return false;
  }
  emit(f);
  f.flush();
  if (!f) {
    std::cerr << "error: write failed for '" << path << "' ("
              << (errno != 0 ? std::strerror(errno) : "unknown error")
              << ")\n";
    return false;
  }
  return true;
}

int usage() {
  std::cerr
      << "usage:\n"
         "  rrp_cli models\n"
         "  rrp_cli provision <model>|all\n"
         "  rrp_cli evaluate <model>\n"
         "  rrp_cli sensitivity <model>\n"
         "  rrp_cli run <model> <suite|dsl:spec> "
         "[--policy greedy|hybrid|oracle|fixed<K>] [--frames N] [--seed S] "
         "[--hysteresis K] [--csv FILE]\n"
         "  rrp_cli trace <model> <suite|dsl:spec> "
         "[--policy greedy|fixed<K>] [--frames N] [--seed S] "
         "[--json FILE] [--spans FILE] [--metrics FILE] [--wall 1]\n"
         "  rrp_cli faults <model> [--suites a,b,c] [--arms a,b] "
         "[--kinds a,b] [--frames N] [--seed S] [--faults N] "
         "[--policy greedy|fixed<K>] [--csv FILE]\n"
         "  rrp_cli campaign <model> <spec-file> [--seed S] [--frames N] "
         "[--out FILE] [--bundle BASE] [--bundles 0]\n"
         "  rrp_cli serve <model> [--streams N] [--suites a,b] [--frames N] "
         "[--seed S] [--budget MS] [--capacity N] [--stagger N] "
         "[--policy greedy|fixed<K>] [--deadline MS] [--out FILE] "
         "[--report-json FILE] [--wall 1] [--snapshot-every K] "
         "[--snapshot-out BASE]\n"
         "  rrp_cli report [--bench BENCH_serve.json] [--snapshot FILE]... "
         "[--heatmap BASE]\n"
         "  rrp_cli inspect <file.rrpn>\n"
         "  rrp_cli blackbox dump <model> <suite> [--frames N] [--seed S] "
         "[--policy greedy|fixed<K>] [--hysteresis K] [--faults N] "
         "[--scrub N] [--watchdog N] [--deadline MS] [--capacity N] "
         "[--trace 1] [--out BASE] [--force 1]\n"
         "  rrp_cli blackbox inspect <bundle.rrpb>\n"
         "  rrp_cli blackbox replay <bundle.rrpb>\n"
         "global flags: --threads N   (pool size; 1 = serial, default "
         "$RRP_THREADS or hardware)\n";
  return 2;
}

std::optional<models::ModelKind> parse_model(const std::string& name) {
  for (models::ModelKind kind : models::all_model_kinds())
    if (name == models::model_kind_name(kind)) return kind;
  std::cerr << "unknown model '" << name << "' (try: ";
  for (models::ModelKind kind : models::all_model_kinds())
    std::cerr << models::model_kind_name(kind) << " ";
  std::cerr << ")\n";
  return std::nullopt;
}

int cmd_models() {
  TableFormatter table({"model", "params", "dense_MMACs", "layers"});
  Rng rng(1);
  for (models::ModelKind kind : models::all_model_kinds()) {
    nn::Network net = models::build_model(kind, rng);
    table.row({models::model_kind_name(kind),
               std::to_string(net.param_count()),
               fmt(static_cast<double>(net.macs(models::zoo_input_shape())) /
                       1e6,
                   3),
               std::to_string(net.leaf_layers().size())});
  }
  table.print(std::cout);
  return 0;
}

int cmd_provision(models::ModelKind kind) {
  set_log_level(LogLevel::Info);
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  std::cout << "provisioned " << models::model_kind_name(kind)
            << "; per-level eval accuracy:";
  for (double a : models::level_accuracy(pm)) std::cout << " " << fmt(a, 3);
  std::cout << "\n";
  return 0;
}

int cmd_provision_all() {
  set_log_level(LogLevel::Info);
  const std::vector<models::ModelKind> kinds = models::all_model_kinds();
  auto provisioned = models::get_provisioned_all(kinds, {}, {}, cache_dir());
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    std::cout << "provisioned " << models::model_kind_name(kinds[i])
              << "; per-level eval accuracy:";
    for (double a : models::level_accuracy(provisioned[i]))
      std::cout << " " << fmt(a, 3);
    std::cout << "\n";
  }
  return 0;
}

int cmd_evaluate(models::ModelKind kind) {
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  const std::vector<double> accuracy = models::level_accuracy(pm);
  core::ReversiblePruner rp = pm.make_pruner();
  const sim::PlatformModel platform;
  const nn::Shape in = models::zoo_input_shape();

  TableFormatter table({"level", "ratio", "sparsity", "eff_MMACs",
                        "model_latency_ms", "model_energy_mJ", "accuracy"});
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    const std::int64_t macs = rp.active_macs(in);
    table.row({std::to_string(k), fmt(pm.levels.ratio(k), 2),
               fmt(pm.levels.mask(k).sparsity(pm.net), 3),
               fmt(macs / 1e6, 3), fmt(platform.latency_ms(macs), 3),
               fmt(platform.energy_mj(macs), 3),
               fmt(accuracy[static_cast<std::size_t>(k)], 3)});
  }
  rp.set_level(0);
  table.print(std::cout);
  return 0;
}

int cmd_sensitivity(models::ModelKind kind) {
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  prune::SensitivityOptions opt;
  const auto points = prune::layer_sensitivity(
      pm.net, pm.eval_data, models::zoo_input_shape(), opt);
  TableFormatter table({"layer", "ratio", "accuracy", "net_sparsity"});
  for (const auto& p : points)
    table.row({p.layer, fmt(p.ratio, 2), fmt(p.accuracy, 3),
               fmt(p.sparsity, 3)});
  table.print(std::cout);
  return 0;
}

/// Every closed-loop command checks --policy against the shared
/// greedy|fixed<K> vocabulary (core::parse_policy_name) before it touches
/// the model cache; false after printing the diagnostic.
bool known_policy(const std::string& name) {
  try {
    core::parse_policy_name(name);
    return true;
  } catch (const PreconditionError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return false;
  }
}

/// The model inputs every closed-loop driver takes, with the default
/// certified ladder.
sim::CampaignInputs model_inputs(models::ProvisionedModel& pm) {
  sim::CampaignInputs inputs;
  inputs.net = &pm.net;
  inputs.levels = &pm.levels;
  inputs.bn_states = pm.bn_states;
  return inputs;
}

/// run and trace accept the shared scenario vocabulary of
/// sim::make_suite_or_dsl: a built-in scenario name or a dsl:<line> spec.
bool known_suite(const std::string& suite) {
  if (sim::is_dsl_suite(suite) || sim::is_builtin_scenario(suite)) return true;
  std::cerr << "unknown suite '" << suite << "' (try:";
  for (const std::string& name : sim::builtin_scenario_names())
    std::cerr << " " << name;
  std::cerr << ", or dsl:<spec>)\n";
  return false;
}

struct RunOutputs {
  std::string csv_path;
  std::string trace_in;
  std::string trace_out;
  std::string assurance_path;
};

int cmd_run(models::ModelKind kind, const std::string& suite, int frames,
            std::uint64_t seed, const std::string& policy_name,
            int hysteresis, const RunOutputs& io) {
  if (io.trace_in.empty() && !known_suite(suite)) return 2;
  if (policy_name != "hybrid" && policy_name != "oracle" &&
      !known_policy(policy_name))
    return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());

  const sim::Scenario scenario =
      io.trace_in.empty() ? sim::make_suite_or_dsl(suite, frames, seed)
                          : sim::load_scenario_csv(io.trace_in);
  if (!io.trace_out.empty()) {
    sim::save_scenario_csv(scenario, io.trace_out);
    std::cout << "trace written to " << io.trace_out << "\n";
  }

  const core::SafetyConfig certified;
  sim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  cfg.noise_seed = seed ^ 0xC0FFEEull;

  core::ReversiblePruner provider = pm.make_pruner();
  std::unique_ptr<core::Policy> policy;
  if (policy_name == "hybrid") {
    const sim::PlatformModel platform(cfg.platform);
    const core::LevelProfile prof = sim::profile_levels(
        provider, platform, pm.eval_data, models::zoo_input_shape());
    policy = std::make_unique<core::HybridPolicy>(certified, prof, hysteresis);
  } else if (policy_name == "oracle") {
    policy = std::make_unique<core::OraclePolicy>(
        certified, sim::criticality_trace(scenario, cfg.criticality), 15);
  } else {
    policy = core::make_policy(policy_name, certified, hysteresis,
                               provider.level_count());
  }

  core::SafetyMonitor monitor(certified);
  core::RuntimeController controller(*policy, provider, &monitor);
  const sim::RunResult result = sim::run_scenario(scenario, controller, cfg);

  const core::RunSummary& s = result.summary;
  TableFormatter table({"metric", "value"});
  table.row({"scenario", result.scenario});
  table.row({"policy", result.policy});
  table.row({"frames", std::to_string(s.frames)});
  table.row({"accuracy", fmt(s.accuracy, 3)});
  table.row({"critical accuracy", fmt(s.critical_accuracy, 3)});
  table.row({"missed critical %", fmt(100.0 * s.missed_critical_rate, 1)});
  table.row({"deadline miss %", fmt(100.0 * s.deadline_miss_rate, 1)});
  table.row({"total energy mJ", fmt(s.total_energy_mj, 1)});
  table.row({"mean level", fmt(s.mean_level, 2)});
  table.row({"level switches", std::to_string(s.level_switches)});
  table.row({"mean switch us", fmt(s.mean_switch_us, 1)});
  table.row({"safety vetoes", std::to_string(s.vetoes)});
  table.row({"safety violations", std::to_string(s.safety_violations)});
  table.print(std::cout);

  if (!io.csv_path.empty()) {
    if (!write_output_file(io.csv_path, [&](std::ostream& o) {
          result.telemetry.write_csv(o);
        }))
      return 1;
    std::cout << "telemetry written to " << io.csv_path << "\n";
  }
  if (!io.assurance_path.empty()) {
    core::AssuranceReport report;
    report.scenario = result.scenario;
    report.provider = result.provider;
    report.policy = result.policy;
    report.certified = certified;
    report.summary = result.summary;
    report.log = monitor.log();
    if (!write_output_file(io.assurance_path, [&](std::ostream& o) {
          core::write_assurance_json(report, o);
        }))
      return 1;
    std::cout << "assurance report written to " << io.assurance_path << "\n";
  }
  return 0;
}

struct TraceOutputs {
  std::string json_path = "trace.json";
  std::string spans_path = "trace_spans.csv";
  std::string metrics_path = "trace_metrics.csv";
  bool wall = false;
};

int cmd_trace(models::ModelKind kind, const std::string& suite, int frames,
              std::uint64_t seed, const std::string& policy_name,
              const TraceOutputs& io) {
  if (!known_suite(suite) || !known_policy(policy_name)) return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  const sim::Scenario scenario = sim::make_suite_or_dsl(suite, frames, seed);

  const core::SafetyConfig certified;
  sim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  cfg.noise_seed = seed ^ 0xC0FFEEull;

  core::ReversiblePruner provider = pm.make_pruner();
  const std::unique_ptr<core::Policy> policy = core::make_policy(
      policy_name, certified, /*hysteresis=*/6, provider.level_count());

  core::SafetyMonitor monitor(certified);
  core::RuntimeController controller(*policy, provider, &monitor);

  // Arm the observability layer only for the run itself, so provisioning
  // noise never leaks into the exported snapshot.
  core::reset_observability();
  trace::set_wall_clock(io.wall);
  trace::set_enabled(true);
  const sim::RunResult result = sim::run_scenario(scenario, controller, cfg);
  trace::set_enabled(false);

  const core::FrameReconciliation rec =
      core::reconcile_frame_spans(result.telemetry);
  const core::MetricsSnapshot snap = core::capture_metrics();

  if (!write_output_file(io.json_path,
                         [](std::ostream& o) { trace::write_chrome_trace(o); }))
    return 1;
  if (!write_output_file(io.spans_path,
                         [](std::ostream& o) { trace::write_span_csv(o); }))
    return 1;
  if (!write_output_file(io.metrics_path,
                         [&](std::ostream& o) { snap.write_csv(o); }))
    return 1;

  TableFormatter table({"metric", "value"});
  table.row({"scenario", result.scenario});
  table.row({"frames", std::to_string(result.summary.frames)});
  table.row({"spans", std::to_string(trace::spans().size())});
  table.row({"dropped spans", std::to_string(trace::dropped_spans())});
  table.row({"frames reconciled", std::to_string(rec.frames_compared)});
  table.row({"missing frame spans", std::to_string(rec.missing_frame_spans)});
  table.row({"max |telemetry - span| us",
             CsvWriter::num(rec.max_abs_delta_us, 12)});
  table.print(std::cout);
  std::cout << "chrome trace written to " << io.json_path << "\n"
            << "span csv written to " << io.spans_path << "\n"
            << "metrics csv written to " << io.metrics_path << "\n";

  if (!rec.ok()) {
    std::cerr << "reconciliation FAILED: per-frame span modeled time "
                 "diverges from Telemetry (> 1e-9 us)\n";
    return 1;
  }
  std::cout << "reconciliation OK (<= 1e-9 us)\n";
  return 0;
}

std::vector<std::string> split_csv_list(const std::string& value) {
  std::vector<std::string> out;
  std::string current;
  for (char c : value) {
    if (c == ',') {
      if (!current.empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) out.push_back(current);
  return out;
}

/// Parses the `--kinds a,b,c` flag into a FaultMix with exactly the named
/// kinds enabled (unit weight).  An unknown or empty kind name is a
/// diagnostic + false — the caller exits non-zero, never silently runs a
/// different campaign than the one asked for.
bool parse_fault_kinds(const std::string& value, sim::FaultMix& mix) {
  sim::FaultMix selected;
  selected.sensor_blackout = selected.weight_bit_flip =
      selected.store_bit_flip = selected.stuck_criticality =
          selected.stale_criticality = selected.latency_spike =
              selected.dropped_decision = selected.artifact_read_failure = 0.0;
  const std::vector<std::string> names = split_csv_list(value);
  const auto diag = [](const std::string& got) {
    std::cerr << "unknown fault kind '" << got << "' (expected one of:";
    for (int k = 0; k < sim::kFaultKinds; ++k)
      std::cerr << " "
                << sim::fault_kind_name(static_cast<sim::FaultKind>(k));
    std::cerr << ")\n";
  };
  if (names.empty()) {
    diag(value);
    return false;
  }
  for (const std::string& name : names) {
    if (name == "sensor_blackout") selected.sensor_blackout = 1.0;
    else if (name == "weight_bit_flip") selected.weight_bit_flip = 1.0;
    else if (name == "store_bit_flip") selected.store_bit_flip = 1.0;
    else if (name == "stuck_criticality") selected.stuck_criticality = 1.0;
    else if (name == "stale_criticality") selected.stale_criticality = 1.0;
    else if (name == "latency_spike") selected.latency_spike = 1.0;
    else if (name == "dropped_decision") selected.dropped_decision = 1.0;
    else if (name == "artifact_read_failure")
      selected.artifact_read_failure = 1.0;
    else {
      diag(name);
      return false;
    }
  }
  mix = selected;
  return true;
}

int cmd_faults(models::ModelKind kind, const sim::FaultCampaignConfig& config,
               const std::string& csv_path) {
  if (!known_policy(config.policy)) return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  const sim::FaultCampaignResult result =
      sim::run_fault_campaign(model_inputs(pm), config);

  // Default output is the streaming aggregator: per-arm counters plus
  // mergeable quantile sketches of detection latency / recovery cost.
  // Per-fault rows only exist behind --csv.
  sim::write_fault_tail_stats(sim::fold_fault_outcomes(result), std::cout);
  std::cout << result.outcomes.size() << " fault outcomes across "
            << config.suites.size() << " suite(s) x " << config.arms.size()
            << " arm(s), seed " << config.seed << "\n";

  if (!csv_path.empty()) {
    if (!write_output_file(csv_path, [&](std::ostream& o) {
          sim::write_campaign_csv(result, o);
        }))
      return 1;
    std::cout << "campaign CSV written to " << csv_path << "\n";
  }
  return 0;
}

struct BlackboxDumpOptions {
  int frames = 600;
  std::uint64_t seed = 20240325;
  std::string policy = "greedy";
  int hysteresis = 6;
  int faults = 10;
  int scrub = 20;
  int watchdog = 8;
  double deadline_ms = 12.0;
  int capacity = 256;
  bool trace = false;
  bool force = false;
  std::string out;  ///< basename; empty -> blackbox_<model>_<suite>
};

void print_incidents(const core::IncidentBundle& bundle) {
  for (const core::Incident& inc : bundle.incidents)
    std::cout << "incident frame=" << inc.frame << " id=" << inc.slo_id
              << " observed=" << fmt(inc.observed, 4)
              << " threshold=" << fmt(inc.threshold, 4)
              << (inc.detail.empty() ? "" : " (" + inc.detail + ")") << "\n";
  if (bundle.dropped_incidents > 0)
    std::cout << "(" << bundle.dropped_incidents
              << " further incidents dropped at the cap)\n";
}

int cmd_blackbox_dump(models::ModelKind kind, const std::string& suite,
                      const BlackboxDumpOptions& opt) {
  if (!known_policy(opt.policy)) return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());

  sim::BlackboxRunSpec spec;
  spec.model = models::model_kind_name(kind);
  spec.suite = suite;
  spec.policy = opt.policy;
  spec.frames = opt.frames;
  spec.scenario_seed = opt.seed;
  spec.noise_seed = opt.seed ^ 0x5DEECE66Dull;
  spec.deadline_ms = opt.deadline_ms;
  spec.hysteresis = opt.hysteresis;
  spec.scrub_period_frames = opt.scrub;
  spec.watchdog_overrun_frames = opt.watchdog;
  spec.trace_enabled = opt.trace;
  spec.recorder_capacity = static_cast<std::size_t>(opt.capacity);
  if (opt.faults > 0)
    spec.faults = sim::FaultPlan::random_plan(opt.seed ^ 0x9E3779B97F4A7C15ull,
                                              opt.frames, opt.faults);

  const sim::BlackboxRunResult res =
      sim::run_blackbox(spec, model_inputs(pm));

  const core::RunSummary& s = res.run.summary;
  TableFormatter table({"metric", "value"});
  table.row({"scenario", res.run.scenario});
  table.row({"frames", std::to_string(s.frames)});
  table.row({"accuracy", fmt(s.accuracy, 3)});
  table.row({"deadline miss %", fmt(100.0 * s.deadline_miss_rate, 1)});
  table.row({"safety violations", std::to_string(s.safety_violations)});
  table.row({"incidents", std::to_string(res.bundle.incidents.size())});
  table.row({"recorded frames",
             std::to_string(res.bundle.records.size())});
  table.print(std::cout);
  print_incidents(res.bundle);

  if (!res.incident && !opt.force) {
    std::cout << "no SLO incident fired; nothing dumped (use --force 1 to "
                 "dump anyway)\n";
    return 0;
  }
  const std::string base =
      opt.out.empty()
          ? "blackbox_" + std::string(models::model_kind_name(kind)) + "_" +
                suite
          : opt.out;
  if (!write_output_file(
          base + ".rrpb",
          [&](std::ostream& o) { core::write_incident_bundle(res.bundle, o); },
          /*binary=*/true))
    return 1;
  if (!write_output_file(base + ".csv", [&](std::ostream& o) {
        core::write_incident_csv(res.bundle, o);
      }))
    return 1;
  std::cout << "incident bundle written to " << base << ".rrpb (+ " << base
            << ".csv)\n";
  return 0;
}

core::IncidentBundle load_bundle(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f)
    throw rrp::SerializationError("cannot open incident bundle '" + path +
                                  "'");
  return core::read_incident_bundle(f);
}

int cmd_blackbox_inspect(const std::string& path) {
  std::cout << core::incident_summary_string(load_bundle(path));
  return 0;
}

int cmd_blackbox_replay(const std::string& path) {
  const core::IncidentBundle bundle = load_bundle(path);
  const auto kind = parse_model(bundle.context.model);
  if (!kind) return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(*kind, {}, {}, cache_dir());
  const sim::ReplayResult res = sim::replay_bundle(bundle, model_inputs(pm));
  TableFormatter table({"check", "result"});
  table.row({"window records byte-identical",
             res.records_match ? "yes" : "NO"});
  table.row({"telemetry digest match", res.telemetry_match ? "yes" : "NO"});
  table.row({"incidents match", res.incidents_match ? "yes" : "NO"});
  table.row({"bundle bytes identical", res.match ? "yes" : "NO"});
  table.print(std::cout);
  if (!res.match) {
    std::cerr << "replay MISMATCH: the re-run did not reproduce the recorded "
                 "bundle (model weights changed, or a nondeterminism bug)\n";
    return 1;
  }
  std::cout << "replay OK: " << bundle.records.size()
            << " recorded frames reproduced byte-identically\n";
  return 0;
}

struct CampaignCliOptions {
  std::uint64_t seed = 0;
  bool seed_set = false;
  int frames = 0;       ///< 0 = use the spec's value
  std::string out;      ///< optional report file (stdout always gets it)
  std::string bundle;   ///< worst-cell bundle basename
  bool dump_bundles = true;
};

int cmd_campaign(models::ModelKind kind, const std::string& spec_path,
                 const CampaignCliOptions& opt) {
  sim::CampaignSpec spec = sim::load_campaign_spec(spec_path);
  if (opt.seed_set) spec.seed = opt.seed;
  if (opt.frames > 0) spec.frames = opt.frames;

  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());
  const sim::CampaignInputs inputs = model_inputs(pm);

  const sim::CampaignAggregate agg = sim::run_campaign(spec, inputs);
  sim::write_campaign_report(spec, agg, std::cout);
  if (!opt.out.empty()) {
    if (!write_output_file(opt.out, [&](std::ostream& o) {
          sim::write_campaign_report(spec, agg, o);
        }))
      return 1;
    std::cout << "campaign report written to " << opt.out << "\n";
  }

  if (!opt.dump_bundles) return 0;
  // Re-run each worst cell serially under the flight recorder and pack a
  // self-contained incident bundle ("dsl:" suite string), so the exact
  // worst runs of the campaign replay byte-identically via
  // `rrp_cli blackbox replay`.
  const std::string base =
      opt.bundle.empty() ? "campaign_worst" : opt.bundle;
  for (std::size_t i = 0; i < agg.worst.size(); ++i) {
    const sim::CampaignWorstCell& w = agg.worst[i];
    const sim::BlackboxRunSpec bspec = sim::blackbox_spec_for_cell(
        spec, w.cell, models::model_kind_name(kind));
    const sim::BlackboxRunResult res = sim::run_blackbox(bspec, inputs);
    const std::string path = base + "_" + std::to_string(i) + ".rrpb";
    if (!write_output_file(
            path,
            [&](std::ostream& o) { core::write_incident_bundle(res.bundle, o); },
            /*binary=*/true))
      return 1;
    std::cout << "worst[" << i << "] cell " << w.cell.index << " ("
              << w.cell.policy << ") bundle written to " << path
              << "  [rrp_cli blackbox replay " << path << "]\n";
  }
  return 0;
}

struct ServeCliOptions {
  int streams = 4;
  std::vector<std::string> suites = {"cut_in", "urban", "highway", "degraded"};
  int frames = 300;
  std::uint64_t seed = 20240807;
  double budget_ms = 0.0;
  int capacity = 8;
  int stagger = 0;
  std::string policy = "greedy";
  double deadline_ms = 12.0;
  std::string out;
  std::string report_json;
  bool wall = false;
  int snapshot_every = 0;
  std::string snapshot_out;
};

int cmd_serve(models::ModelKind kind, const ServeCliOptions& opt) {
  if (!known_policy(opt.policy)) return 2;
  models::ProvisionedModel pm =
      models::get_provisioned(kind, {}, {}, cache_dir());

  serve::ServeConfig cfg;
  cfg.seed = opt.seed;
  cfg.tick_budget_ms = opt.budget_ms;
  cfg.admission.max_streams = opt.capacity;
  cfg.measure_wall = opt.wall;
  cfg.snapshot_every_ticks =
      opt.snapshot_every > 0 ? opt.snapshot_every
                             : (!opt.snapshot_out.empty() ? 50 : 0);

  std::vector<serve::StreamSpec> specs;
  specs.reserve(static_cast<std::size_t>(opt.streams));
  for (int i = 0; i < opt.streams; ++i) {
    serve::StreamSpec spec;
    spec.scenario = opt.suites[static_cast<std::size_t>(i) % opt.suites.size()];
    spec.policy = opt.policy;
    spec.frames = opt.frames;
    spec.arrival_tick = static_cast<std::int64_t>(i) * opt.stagger;
    // Earlier arrivals survive shedding longer, so overload trims the
    // newest streams first — the least surprising default.
    spec.priority = opt.streams - i;
    spec.deadline_ms = opt.deadline_ms;
    specs.push_back(std::move(spec));
  }

  serve::ServeEngine engine(model_inputs(pm), cfg);
  const Timer run_timer;
  const serve::ServeReport report = engine.run(specs);
  const double run_wall_s = run_timer.elapsed_s();
  serve::write_serve_report(report, std::cout);
  if (opt.wall) {
    // Measured wall-clock channel only: never part of the byte-identity
    // contract, never gated.
    std::cout << "\nwall: " << fmt(run_wall_s, 6) << " s over "
              << report.ticks << " ticks\n";
    std::vector<serve::WallLevelStat> profile;
    serve::fold_wall_profile(report, profile);
    serve::write_wall_profile(profile, std::cout);
  }
  if (!opt.out.empty()) {
    if (!write_output_file(opt.out, [&](std::ostream& o) {
          serve::write_serve_report(report, o);
        }))
      return 1;
    std::cout << "serve report written to " << opt.out << "\n";
  }
  if (!opt.report_json.empty()) {
    if (!write_output_file(opt.report_json, [&](std::ostream& o) {
          serve::write_serve_report_json(report, o);
        }))
      return 1;
    std::cout << "serve report JSON written to " << opt.report_json << "\n";
  }
  if (!opt.snapshot_out.empty()) {
    for (const serve::FleetSnapshot& s : report.snapshots) {
      const std::string base =
          opt.snapshot_out + "_tick" + std::to_string(s.tick);
      if (!write_output_file(base + ".json",
                             [&](std::ostream& o) { o << s.json; }))
        return 1;
      if (!write_output_file(base + ".prom",
                             [&](std::ostream& o) { o << s.prom; }))
        return 1;
    }
    if (!write_output_file(opt.snapshot_out + "_timeline.csv",
                           [&](std::ostream& o) {
                             o << serve::timeline_csv(report.timeline);
                           }))
      return 1;
    std::cout << report.snapshots.size() << " snapshot(s) + timeline written "
              << "to " << opt.snapshot_out << "_*\n";
  }
  return 0;
}

// ---------------------------------------------------------------------------
// rrp_cli report — offline analyzer over the CLI's own JSON artifacts.

/// One `"name"/"id": "<string>", ... "value": <number>` pair scanned out
/// of a JSON document.  Escape-aware on the string; NOT a general JSON
/// parser — just enough to round-trip files this toolchain writes itself
/// (fleet snapshots, bench reports), whose layout is deterministic.
struct ScannedRow {
  std::string name;
  double value = 0.0;
};

std::vector<ScannedRow> scan_json_rows(const std::string& text,
                                       const std::string& key) {
  std::vector<ScannedRow> rows;
  const std::string key_tok = "\"" + key + "\"";
  std::size_t pos = 0;
  while ((pos = text.find(key_tok, pos)) != std::string::npos) {
    std::size_t p = pos + key_tok.size();
    while (p < text.size() && (text[p] == ' ' || text[p] == ':')) ++p;
    if (p >= text.size() || text[p] != '"') {
      pos = p;
      continue;
    }
    ++p;
    std::string name;
    bool closed = false;
    while (p < text.size()) {
      const char c = text[p++];
      if (c == '\\' && p < text.size()) {
        const char e = text[p++];
        name += e == 'n' ? '\n' : e;  // \" \\ \n are the writer's escapes
      } else if (c == '"') {
        closed = true;
        break;
      } else {
        name += c;
      }
    }
    if (!closed) break;
    const std::size_t vpos = text.find("\"value\"", p);
    if (vpos == std::string::npos) break;
    std::size_t v = vpos + 7;
    while (v < text.size() && (text[v] == ' ' || text[v] == ':')) ++v;
    rows.push_back({name, std::strtod(text.c_str() + v, nullptr)});
    pos = v;
  }
  return rows;
}

bool read_text_file(const std::string& path, std::string& out) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::cerr << "error: cannot read '" << path << "'\n";
    return false;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  out = ss.str();
  return true;
}

/// Splits a labeled per-stream metric name into (stream index, suffix
/// after the label block).  Returns false for unlabeled / non-stream rows.
bool parse_stream_metric(const std::string& name, const std::string& base,
                         int& stream, std::string& suffix) {
  const std::string want = base + "{stream=\"";
  if (name.rfind(want, 0) != 0) return false;
  std::size_t p = want.size();
  std::size_t digits = 0;
  int idx = 0;
  while (p < name.size() && name[p] >= '0' && name[p] <= '9') {
    idx = idx * 10 + (name[p] - '0');
    ++p;
    ++digits;
  }
  if (digits == 0 || p + 1 >= name.size() || name[p] != '"' ||
      name[p + 1] != '}')
    return false;
  stream = idx;
  suffix = name.substr(p + 2);
  return true;
}

int report_saturation(const std::string& bench_path) {
  std::string text;
  if (!read_text_file(bench_path, text)) return 1;
  // wall ids: wall_s<N>_fps<F>.frames_per_s (bench_serve --wall).
  std::map<int, double> throughput;  // streams -> fleet frames/s
  for (const ScannedRow& r : scan_json_rows(text, "id")) {
    if (r.name.rfind("wall_s", 0) != 0) continue;
    if (r.name.size() < 13 ||
        r.name.compare(r.name.size() - 13, 13, ".frames_per_s") != 0)
      continue;
    std::size_t p = 6;
    int streams = 0, digits = 0;
    while (p < r.name.size() && r.name[p] >= '0' && r.name[p] <= '9') {
      streams = streams * 10 + (r.name[p] - '0');
      ++p;
      ++digits;
    }
    if (digits == 0) continue;
    throughput[streams] = r.value;
  }
  if (throughput.empty()) {
    std::cerr << "no wall_s<N>*.frames_per_s metrics in " << bench_path
              << " (run bench_serve --wall 1 first)\n";
    return 1;
  }
  std::cout << "streams-vs-throughput saturation (" << bench_path << "):\n";
  TableFormatter table(
      {"streams", "frames_per_s", "per_stream", "efficiency", "marginal", ""});
  const double base = throughput.begin()->second /
                      static_cast<double>(throughput.begin()->first);
  int prev_n = 0;
  double prev_t = 0.0;
  bool knee_seen = false;
  for (const auto& [n, t] : throughput) {
    // Marginal efficiency: extra throughput per extra stream, relative to
    // the single-stream rate.  The knee is the first point where adding
    // streams returns less than half a stream's worth of throughput each.
    double marginal = 1.0;
    if (prev_n > 0 && n > prev_n && base > 0.0)
      marginal = (t - prev_t) / (base * static_cast<double>(n - prev_n));
    const bool knee = !knee_seen && prev_n > 0 && marginal < 0.5;
    if (knee) knee_seen = true;
    table.row({std::to_string(n), fmt(t, 1), fmt(t / n, 1),
               base > 0.0 ? fmt(t / (base * n), 3) : "-", fmt(marginal, 3),
               knee ? "<- knee" : ""});
    prev_n = n;
    prev_t = t;
  }
  table.print(std::cout);
  return 0;
}

int report_heatmaps(const std::vector<std::string>& snapshot_paths,
                    const std::string& heatmap_base) {
  struct TickData {
    std::int64_t tick = 0;
    std::map<int, double> level;                          // stream -> gauge
    std::map<int, std::map<std::string, double>> hist;    // stream -> rows
  };
  std::vector<TickData> ticks;
  std::map<int, bool> stream_set;
  for (const std::string& path : snapshot_paths) {
    std::string text;
    if (!read_text_file(path, text)) return 1;
    TickData td;
    const std::size_t tpos = text.find("\"tick\":");
    if (tpos != std::string::npos)
      td.tick = std::strtoll(text.c_str() + tpos + 7, nullptr, 10);
    for (const ScannedRow& r : scan_json_rows(text, "name")) {
      int stream = 0;
      std::string suffix;
      if (parse_stream_metric(r.name, "serve.stream.level", stream, suffix) &&
          suffix.empty()) {
        td.level[stream] = r.value;
        stream_set[stream] = true;
      } else if (parse_stream_metric(r.name, "serve.stream.frame_ms", stream,
                                     suffix) &&
                 !suffix.empty()) {
        td.hist[stream][suffix] = r.value;  // ".le_<b>" | ".overflow" | ".total"
        stream_set[stream] = true;
      }
    }
    ticks.push_back(std::move(td));
  }
  std::sort(ticks.begin(), ticks.end(),
            [](const TickData& a, const TickData& b) { return a.tick < b.tick; });

  // p99 upper bound from the cumulative bucket counts: the first bound
  // whose cumulative count covers 99% of the total ("inf" on overflow).
  const auto hist_p99 = [](const std::map<std::string, double>& rows)
      -> std::string {
    const auto tot_it = rows.find(".total");
    if (tot_it == rows.end() || tot_it->second <= 0.0) return "";
    const double want = 0.99 * tot_it->second;
    std::vector<std::pair<double, double>> buckets;  // bound -> count
    for (const auto& [suffix, count] : rows)
      if (suffix.rfind(".le_", 0) == 0)
        buckets.emplace_back(std::strtod(suffix.c_str() + 4, nullptr), count);
    std::sort(buckets.begin(), buckets.end());
    double cum = 0.0;
    for (const auto& [bound, count] : buckets) {
      cum += count;
      if (cum >= want) return fmt(bound, 6);
    }
    return "inf";
  };

  for (int which = 0; which < 2; ++which) {
    const bool level = which == 0;
    const std::string path =
        heatmap_base + (level ? "_level.csv" : "_p99.csv");
    const bool ok = write_output_file(path, [&](std::ostream& o) {
      o << "tick";
      for (const auto& [s, _] : stream_set) o << ",stream" << s;
      o << "\n";
      for (const TickData& td : ticks) {
        o << td.tick;
        for (const auto& [s, _] : stream_set) {
          o << ",";
          if (level) {
            const auto it = td.level.find(s);
            if (it != td.level.end()) o << fmt(it->second, 6);
          } else {
            const auto it = td.hist.find(s);
            if (it != td.hist.end()) o << hist_p99(it->second);
          }
        }
        o << "\n";
      }
    });
    if (!ok) return 1;
    std::cout << (level ? "level" : "p99") << " heatmap written to " << path
              << " (" << ticks.size() << " tick(s) x " << stream_set.size()
              << " stream(s))\n";
  }
  return 0;
}

int cmd_report(const std::string& bench_path,
               const std::vector<std::string>& snapshot_paths,
               const std::string& heatmap_base) {
  if (bench_path.empty() && snapshot_paths.empty()) {
    std::cerr << "report needs --bench and/or --snapshot inputs\n";
    return 2;
  }
  if (!bench_path.empty()) {
    const int rc = report_saturation(bench_path);
    if (rc != 0) return rc;
  }
  if (!snapshot_paths.empty()) {
    if (heatmap_base.empty()) {
      std::cerr << "--snapshot inputs need --heatmap BASE for the output\n";
      return 2;
    }
    return report_heatmaps(snapshot_paths, heatmap_base);
  }
  return 0;
}

int cmd_inspect(const std::string& path) {
  nn::Network net = nn::load_network(path);
  std::cout << "network '" << net.name() << "'\n";
  TableFormatter table({"layer", "kind", "params", "out_prunable"});
  for (nn::Layer* l : net.leaf_layers()) {
    std::int64_t params = 0;
    for (auto& p : l->params()) params += p.value->numel();
    std::string prunable = "-";
    if (auto* c = dynamic_cast<nn::Conv2D*>(l))
      prunable = c->out_prunable() ? "yes" : "no";
    else if (auto* lin = dynamic_cast<nn::Linear*>(l))
      prunable = lin->out_prunable() ? "yes" : "no";
    else if (auto* dw = dynamic_cast<nn::DepthwiseConv2D*>(l))
      prunable = dw->out_prunable() ? "yes" : "no";
    table.row({l->name(), nn::layer_kind_name(l->kind()),
               std::to_string(params), prunable});
  }
  table.print(std::cout);
  std::cout << "total parameters: " << net.param_count() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Extract the global --threads flag (any position) before dispatch.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--threads expects a value\n";
        return 2;
      }
      // Strict full-string parse (util/cli.h): "0", "-3", "abc" and
      // "4abc" are all diagnostics + exit 2, never a silent fallback.
      const std::optional<int> threads = parse_thread_count(argv[i + 1]);
      if (!threads) {
        std::cerr << "--threads expects a positive integer, got '"
                  << argv[i + 1] << "'\n";
        return 2;
      }
      ThreadPool::set_global_threads(*threads);
      ++i;  // skip the value
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "models") return cmd_models();
    if (cmd == "inspect") {
      if (argc < 3) return usage();
      return cmd_inspect(argv[2]);
    }
    if (cmd == "provision" || cmd == "evaluate" || cmd == "sensitivity") {
      if (argc < 3) return usage();
      if (cmd == "provision" && std::string(argv[2]) == "all")
        return cmd_provision_all();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      if (cmd == "provision") return cmd_provision(*kind);
      if (cmd == "evaluate") return cmd_evaluate(*kind);
      return cmd_sensitivity(*kind);
    }
    if (cmd == "blackbox") {
      if (argc < 3) return usage();
      const std::string sub = argv[2];
      if (sub == "inspect" || sub == "replay") {
        if (argc < 4) return usage();
        return sub == "inspect" ? cmd_blackbox_inspect(argv[3])
                                : cmd_blackbox_replay(argv[3]);
      }
      if (sub != "dump" || argc < 5) return usage();
      const auto kind = parse_model(argv[3]);
      if (!kind) return 2;
      const std::string suite = argv[4];
      BlackboxDumpOptions opt;
      for (int i = 5; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--frames") opt.frames = int_flag(flag, value);
        else if (flag == "--seed") opt.seed = u64_flag(flag, value);
        else if (flag == "--policy") opt.policy = value;
        else if (flag == "--hysteresis") opt.hysteresis = int_flag(flag, value);
        else if (flag == "--faults") opt.faults = int_flag(flag, value);
        else if (flag == "--scrub") opt.scrub = int_flag(flag, value);
        else if (flag == "--watchdog") opt.watchdog = int_flag(flag, value);
        else if (flag == "--deadline") opt.deadline_ms = double_flag(flag, value);
        else if (flag == "--capacity") opt.capacity = int_flag(flag, value);
        else if (flag == "--trace") opt.trace = switch_flag(flag, value);
        else if (flag == "--out") opt.out = value;
        else if (flag == "--force") opt.force = switch_flag(flag, value);
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_blackbox_dump(*kind, suite, opt);
    }
    if (cmd == "run") {
      if (argc < 4) return usage();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      const std::string suite = argv[3];
      int frames = 900, hysteresis = 6;
      std::uint64_t seed = 20240325;
      std::string policy = "greedy";
      RunOutputs io;
      for (int i = 4; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--frames") frames = int_flag(flag, value);
        else if (flag == "--seed") seed = u64_flag(flag, value);
        else if (flag == "--policy") policy = value;
        else if (flag == "--hysteresis") hysteresis = int_flag(flag, value);
        else if (flag == "--csv") io.csv_path = value;
        else if (flag == "--trace") io.trace_in = value;
        else if (flag == "--export-trace") io.trace_out = value;
        else if (flag == "--assurance") io.assurance_path = value;
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_run(*kind, suite, frames, seed, policy, hysteresis, io);
    }
    if (cmd == "trace") {
      if (argc < 4) return usage();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      const std::string suite = argv[3];
      int frames = 900;
      std::uint64_t seed = 20240325;
      std::string policy = "greedy";
      TraceOutputs io;
      for (int i = 4; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--frames") frames = int_flag(flag, value);
        else if (flag == "--seed") seed = u64_flag(flag, value);
        else if (flag == "--policy") policy = value;
        else if (flag == "--json") io.json_path = value;
        else if (flag == "--spans") io.spans_path = value;
        else if (flag == "--metrics") io.metrics_path = value;
        else if (flag == "--wall") io.wall = switch_flag(flag, value);
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_trace(*kind, suite, frames, seed, policy, io);
    }
    if (cmd == "faults") {
      if (argc < 3) return usage();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      sim::FaultCampaignConfig config;
      config.artifact_dir = cache_dir() + "/fault_artifacts";
      std::string csv_path;
      for (int i = 3; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--frames") config.frames = int_flag(flag, value);
        else if (flag == "--seed") config.seed = u64_flag(flag, value);
        else if (flag == "--faults") config.faults_per_run = int_flag(flag, value);
        else if (flag == "--policy") config.policy = value;
        else if (flag == "--suites") config.suites = split_csv_list(value);
        else if (flag == "--kinds") {
          if (!parse_fault_kinds(value, config.mix)) return 2;
        }
        else if (flag == "--csv") csv_path = value;
        else if (flag == "--arms") {
          config.arms.clear();
          for (const std::string& arm : split_csv_list(value)) {
            if (arm == "reversible")
              config.arms.push_back(sim::CampaignArm::Reversible);
            else if (arm == "reload-memory")
              config.arms.push_back(sim::CampaignArm::ReloadMemory);
            else if (arm == "reload-disk")
              config.arms.push_back(sim::CampaignArm::ReloadDisk);
            else {
              std::cerr << "unknown arm '" << arm
                        << "' (reversible|reload-memory|reload-disk)\n";
              return 2;
            }
          }
        } else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_faults(*kind, config, csv_path);
    }
    if (cmd == "serve") {
      if (argc < 3) return usage();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      ServeCliOptions opt;
      for (int i = 3; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--streams") opt.streams = int_flag(flag, value);
        else if (flag == "--suites") opt.suites = split_csv_list(value);
        else if (flag == "--frames") opt.frames = int_flag(flag, value);
        else if (flag == "--seed") opt.seed = u64_flag(flag, value);
        else if (flag == "--budget") opt.budget_ms = double_flag(flag, value);
        else if (flag == "--capacity") opt.capacity = int_flag(flag, value);
        else if (flag == "--stagger") opt.stagger = int_flag(flag, value);
        else if (flag == "--policy") opt.policy = value;
        else if (flag == "--deadline") opt.deadline_ms = double_flag(flag, value);
        else if (flag == "--out") opt.out = value;
        else if (flag == "--report-json") opt.report_json = value;
        else if (flag == "--wall") opt.wall = switch_flag(flag, value);
        else if (flag == "--snapshot-every") opt.snapshot_every = int_flag(flag, value);
        else if (flag == "--snapshot-out") opt.snapshot_out = value;
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      if (opt.streams < 1 || opt.suites.empty()) {
        std::cerr << "serve needs --streams >= 1 and a non-empty --suites\n";
        return 2;
      }
      if (opt.snapshot_every < 0) {
        std::cerr << "--snapshot-every expects K >= 0\n";
        return 2;
      }
      return cmd_serve(*kind, opt);
    }
    if (cmd == "report") {
      std::string bench_path, heatmap_base;
      std::vector<std::string> snapshot_paths;
      for (int i = 2; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--bench") bench_path = value;
        else if (flag == "--snapshot") snapshot_paths.push_back(value);
        else if (flag == "--heatmap") heatmap_base = value;
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_report(bench_path, snapshot_paths, heatmap_base);
    }
    if (cmd == "campaign") {
      if (argc < 4) return usage();
      const auto kind = parse_model(argv[2]);
      if (!kind) return 2;
      const std::string spec_path = argv[3];
      CampaignCliOptions opt;
      for (int i = 4; i < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = flag_value(argc, argv, i);
        if (flag == "--seed") {
          opt.seed = u64_flag(flag, value);
          opt.seed_set = true;
        } else if (flag == "--frames") opt.frames = int_flag(flag, value);
        else if (flag == "--out") opt.out = value;
        else if (flag == "--bundle") opt.bundle = value;
        else if (flag == "--bundles") opt.dump_bundles = switch_flag(flag, value);
        else {
          std::cerr << "unknown flag " << flag << "\n";
          return 2;
        }
      }
      return cmd_campaign(*kind, spec_path, opt);
    }
  } catch (const UsageError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
