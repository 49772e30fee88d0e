#include "sim/campaign.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <sstream>

#include "core/policies.h"
#include "util/checks.h"
#include "util/thread_pool.h"

namespace rrp::sim {

namespace {

constexpr std::uint64_t kCellSeedStride = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kNoiseSeedSalt = 0x5DEECE66Dull;
constexpr std::uint64_t kFaultSeedSalt = 0xA5C152EDB7E15133ull;

QuantileSketch::Config sketch_config(double gamma) {
  QuantileSketch::Config cfg;
  cfg.gamma = gamma;
  return cfg;
}

/// Fixed-size per-cell result: everything the fold consumes.  Vectors are
/// bounded by faults_per_cell; the slack sketch is O(1).
struct CellResult {
  CampaignWorstCell worst;  ///< identity + severity components
  std::int64_t frames = 0;
  std::int64_t critical_frames = 0;
  std::int64_t missed_critical = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t safety_violations = 0;
  std::int64_t true_safety_violations = 0;
  std::int64_t vetoes = 0;
  std::int64_t level_switches = 0;
  std::int64_t watchdog_degrades = 0;
  std::int64_t faults_injected = 0;
  std::int64_t faults_detected = 0;
  std::int64_t faults_healed = 0;
  double missed_critical_rate = 0.0;
  std::vector<double> detect_latencies;  ///< frames, per detected fault
  std::vector<double> recoveries_ms;     ///< modeled repair latency
  QuantileSketch slack;                  ///< per-frame deadline slack (ms)
};

CellResult run_cell(const CampaignSpec& spec, const CampaignInputs& inputs,
                    std::int64_t index) {
  const CampaignCell cell = campaign_cell(spec, index);
  // Faults corrupt weights (and possibly the golden store): every cell
  // works on a private clone, so in-flight cells never share state and the
  // caller's network is untouched.  The cell runs the very spec its
  // worst-cell bundle records, through the black box's own run path.
  nn::Network net = inputs.net->clone();
  ReversibleArm arm(net, inputs);
  core::SafetyMonitor monitor(inputs.certified);
  const RunResult run =
      run_loop(blackbox_spec_for_cell(spec, cell, ""), arm.pruner,
               arm.harness, monitor);

  CellResult res;
  res.slack = QuantileSketch(sketch_config(spec.sketch_gamma));
  res.worst.cell = cell;
  res.frames = run.summary.frames;
  res.safety_violations = run.summary.safety_violations;
  res.true_safety_violations = run.summary.true_safety_violations;
  res.vetoes = run.summary.vetoes;
  res.level_switches = run.summary.level_switches;
  res.watchdog_degrades = monitor.watchdog_degrade_count();

  double min_slack = spec.deadline_ms;
  for (const core::FrameRecord& r : run.telemetry.records()) {
    const double slack = r.deadline_ms - (r.latency_ms + r.switch_us * 1e-3);
    res.slack.add(slack);
    if (slack < min_slack) min_slack = slack;
    if (r.latency_ms + r.switch_us * 1e-3 > r.deadline_ms)
      ++res.deadline_misses;
    if (r.criticality >= core::CriticalityClass::High) {
      ++res.critical_frames;
      if (!r.correct) ++res.missed_critical;
    }
  }
  res.missed_critical_rate =
      res.critical_frames > 0
          ? static_cast<double>(res.missed_critical) / res.critical_frames
          : 0.0;

  // Detection latency / time-to-recovery: pair each recovery event with
  // the earliest not-yet-detected applied weight fault injected at or
  // before it (a scrub detects every divergence accumulated since the
  // previous scrub, so one recovery may consume several injections).
  std::vector<std::int64_t> pending;
  for (const InjectedFault& f : arm.harness.injected) {
    if ((f.kind == FaultKind::WeightBitFlip ||
         f.kind == FaultKind::StoreBitFlip) &&
        f.applied) {
      ++res.faults_injected;
      pending.push_back(f.frame);
    }
  }
  std::size_t next = 0;
  for (const FaultHarness::Recovery& r : arm.harness.recoveries) {
    while (next < pending.size() && pending[next] <= r.frame) {
      res.detect_latencies.push_back(
          static_cast<double>(r.frame - pending[next]));
      ++res.faults_detected;
      ++next;
    }
    res.recoveries_ms.push_back(r.modeled_latency_ms);
    if (r.recovered) ++res.faults_healed;
  }

  res.worst.missed_critical = res.missed_critical;
  res.worst.true_violations = res.true_safety_violations;
  res.worst.watchdog_degrades = res.watchdog_degrades;
  res.worst.deadline_misses = res.deadline_misses;
  res.worst.min_slack_ms = min_slack;
  return res;
}

void fold(CampaignAggregate& agg, CellResult& r, int worst_cells) {
  agg.cells += 1;
  agg.frames += r.frames;
  agg.critical_frames += r.critical_frames;
  agg.missed_critical_frames += r.missed_critical;
  agg.deadline_misses += r.deadline_misses;
  agg.safety_violations += r.safety_violations;
  agg.true_safety_violations += r.true_safety_violations;
  agg.vetoes += r.vetoes;
  agg.watchdog_degrades += r.watchdog_degrades;
  agg.level_switches += r.level_switches;
  agg.weight_faults_injected += r.faults_injected;
  agg.weight_faults_detected += r.faults_detected;
  agg.weight_faults_healed += r.faults_healed;
  agg.missed_critical_rate.add(r.missed_critical_rate);
  for (double v : r.detect_latencies) agg.detect_latency_frames.add(v);
  for (double v : r.recoveries_ms) agg.recovery_ms.add(v);
  agg.deadline_slack_ms.merge(r.slack);

  // Bounded worst-cell list, most severe first; comparator is total
  // (index tie-break), so the list is independent of fold batching.
  auto& worst = agg.worst;
  const auto pos = std::lower_bound(
      worst.begin(), worst.end(), r.worst,
      [](const CampaignWorstCell& a, const CampaignWorstCell& b) {
        return worse_cell(a, b);
      });
  if (pos != worst.end() ||
      worst.size() < static_cast<std::size_t>(worst_cells))
    worst.insert(pos, r.worst);
  if (worst.size() > static_cast<std::size_t>(worst_cells))
    worst.resize(static_cast<std::size_t>(worst_cells));
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void write_sketch_line(std::ostream& out, const char* name,
                       const QuantileSketch& s) {
  out << name << " count=" << s.count();
  if (!s.empty()) {
    out << " min=" << fmt(s.min()) << " p50=" << fmt(s.quantile(0.5))
        << " p90=" << fmt(s.quantile(0.9)) << " p99=" << fmt(s.quantile(0.99))
        << " p99.9=" << fmt(s.quantile(0.999)) << " max=" << fmt(s.max());
  }
  out << "\n";
}

std::string trim(const std::string& s) {
  const std::size_t b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return {};
  const std::size_t e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

std::int64_t campaign_cell_count(const CampaignSpec& spec) {
  return static_cast<std::int64_t>(spec.scenarios.size()) *
         static_cast<std::int64_t>(spec.policies.size()) * spec.replicates;
}

CampaignCell campaign_cell(const CampaignSpec& spec, std::int64_t index) {
  RRP_CHECK(index >= 0 && index < campaign_cell_count(spec));
  const std::int64_t reps = spec.replicates;
  const std::int64_t per_scenario =
      static_cast<std::int64_t>(spec.policies.size()) * reps;
  CampaignCell cell;
  cell.index = index;
  cell.scenario = encode_scenario_spec(
      spec.scenarios[static_cast<std::size_t>(index / per_scenario)]);
  cell.policy =
      spec.policies[static_cast<std::size_t>((index % per_scenario) / reps)];
  const std::uint64_t base =
      spec.seed + kCellSeedStride * static_cast<std::uint64_t>(index + 1);
  cell.scenario_seed = base;
  cell.noise_seed = base ^ kNoiseSeedSalt;
  cell.fault_seed = base ^ kFaultSeedSalt;
  return cell;
}

bool worse_cell(const CampaignWorstCell& a, const CampaignWorstCell& b) {
  if (a.missed_critical != b.missed_critical)
    return a.missed_critical > b.missed_critical;
  if (a.true_violations != b.true_violations)
    return a.true_violations > b.true_violations;
  if (a.watchdog_degrades != b.watchdog_degrades)
    return a.watchdog_degrades > b.watchdog_degrades;
  if (a.deadline_misses != b.deadline_misses)
    return a.deadline_misses > b.deadline_misses;
  if (a.min_slack_ms != b.min_slack_ms) return a.min_slack_ms < b.min_slack_ms;
  return a.cell.index < b.cell.index;
}

CampaignSpec parse_campaign_spec(std::istream& in) {
  CampaignSpec spec;
  spec.policies.clear();
  std::string line;
  int lineno = 0;
  const auto fail = [&lineno](const std::string& msg) {
    throw SerializationError("campaign spec line " + std::to_string(lineno) +
                             ": " + msg);
  };
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = trim(line);
    if (line.empty()) continue;
    const std::size_t sp = line.find_first_of(" \t");
    const std::string key = line.substr(0, sp);
    const std::string value =
        sp == std::string::npos ? std::string() : trim(line.substr(sp + 1));
    if (value.empty()) fail("key '" + key + "' needs a value");
    try {
      if (key == "seed") {
        spec.seed = std::stoull(value, nullptr, 0);
      } else if (key == "frames") {
        spec.frames = std::stoi(value);
      } else if (key == "replicates") {
        spec.replicates = std::stoi(value);
      } else if (key == "faults") {
        spec.faults_per_cell = std::stoi(value);
      } else if (key == "deadline_ms") {
        spec.deadline_ms = std::stod(value);
      } else if (key == "hysteresis") {
        spec.hysteresis = std::stoi(value);
      } else if (key == "scrub") {
        spec.scrub_period_frames = std::stoi(value);
      } else if (key == "watchdog") {
        spec.watchdog_overrun_frames = std::stoi(value);
      } else if (key == "sensing_delay") {
        spec.sensing_delay_frames = std::stoi(value);
      } else if (key == "gamma") {
        spec.sketch_gamma = std::stod(value);
      } else if (key == "worst") {
        spec.worst_cells = std::stoi(value);
      } else if (key == "block") {
        spec.block_cells = std::stoi(value);
      } else if (key == "policy") {
        try {
          core::parse_policy_name(value);
        } catch (const PreconditionError&) {
          fail("bad policy '" + value + "' (greedy|fixed<K>)");
        }
        spec.policies.push_back(value);
      } else if (key == "scenario") {
        if (value.find('=') == std::string::npos &&
            value.find('{') == std::string::npos) {
          if (!is_builtin_scenario(value))
            fail("unknown built-in scenario '" + value + "'");
          spec.scenarios.push_back(builtin_scenario_spec(value));
        } else {
          spec.scenarios.push_back(parse_scenario_spec(value));
        }
      } else {
        fail("unknown key '" + key + "'");
      }
    } catch (const SerializationError&) {
      throw;
    } catch (const std::exception&) {
      fail("bad value '" + value + "' for key '" + key + "'");
    }
  }
  if (spec.scenarios.empty())
    throw SerializationError("campaign spec: needs at least one scenario");
  if (spec.policies.empty()) spec.policies = {"greedy"};
  if (spec.frames <= 0)
    throw SerializationError("campaign spec: frames must be positive");
  if (spec.replicates <= 0)
    throw SerializationError("campaign spec: replicates must be positive");
  if (spec.faults_per_cell < 0)
    throw SerializationError("campaign spec: faults must be >= 0");
  if (spec.worst_cells < 1)
    throw SerializationError("campaign spec: worst must be >= 1");
  return spec;
}

CampaignSpec load_campaign_spec(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw SerializationError("cannot open campaign spec: " + path);
  return parse_campaign_spec(in);
}

CampaignAggregate run_campaign(const CampaignSpec& spec,
                               const CampaignInputs& inputs) {
  RRP_CHECK_MSG(inputs.net != nullptr && inputs.levels != nullptr,
                "campaign needs a provisioned network and level library");
  RRP_CHECK(!spec.scenarios.empty() && !spec.policies.empty());
  RRP_CHECK(spec.frames > 0 && spec.replicates > 0);
  for (const ScenarioSpec& s : spec.scenarios)
    (void)encode_scenario_spec(s);  // validate up front
  for (const std::string& p : spec.policies) core::parse_policy_name(p);

  const QuantileSketch::Config cfg = sketch_config(spec.sketch_gamma);
  CampaignAggregate agg;
  agg.missed_critical_rate = QuantileSketch(cfg);
  agg.detect_latency_frames = QuantileSketch(cfg);
  agg.recovery_ms = QuantileSketch(cfg);
  agg.deadline_slack_ms = QuantileSketch(cfg);

  const std::int64_t total = campaign_cell_count(spec);
  // Block size bounds cells in flight; it affects neither the per-cell
  // seeds nor the fold order, so aggregates are independent of it (and of
  // the thread count).
  const std::int64_t block = spec.block_cells > 0 ? spec.block_cells : 64;
  std::vector<CellResult> results;
  for (std::int64_t block_begin = 0; block_begin < total;
       block_begin += block) {
    const std::int64_t n = std::min(block, total - block_begin);
    // resize (not assign-from-temporary) value-initializes the new cells
    // in place; GCC 12's -Wmaybe-uninitialized misfires on the copied
    // temporary's string members under heavy inlining.
    results.clear();
    results.resize(static_cast<std::size_t>(n));
    parallel_for(0, n, 1, [&](std::int64_t chunk_begin,
                              std::int64_t chunk_end) {
      for (std::int64_t i = chunk_begin; i < chunk_end; ++i)
        results[static_cast<std::size_t>(i)] =
            run_cell(spec, inputs, block_begin + i);
    });
    // Fold on the calling thread in cell-index order.
    for (CellResult& r : results) fold(agg, r, spec.worst_cells);
    results.clear();
  }
  return agg;
}

void write_campaign_report(const CampaignSpec& spec,
                           const CampaignAggregate& agg, std::ostream& out) {
  out << "# rrp campaign report\n";
  out << "seed " << spec.seed << "\n";
  out << "cells " << agg.cells << " (scenarios " << spec.scenarios.size()
      << " x policies " << spec.policies.size() << " x replicates "
      << spec.replicates << ")\n";
  out << "frames_per_cell " << spec.frames << " faults_per_cell "
      << spec.faults_per_cell << " deadline_ms " << fmt(spec.deadline_ms)
      << " scrub " << spec.scrub_period_frames << " watchdog "
      << spec.watchdog_overrun_frames << "\n";
  out << "sketch_gamma " << fmt(spec.sketch_gamma) << "\n";
  out << "\n";
  out << "frames " << agg.frames << "\n";
  out << "critical_frames " << agg.critical_frames << "\n";
  out << "missed_critical_frames " << agg.missed_critical_frames << "\n";
  out << "deadline_misses " << agg.deadline_misses << "\n";
  out << "safety_violations " << agg.safety_violations
      << " true_safety_violations " << agg.true_safety_violations
      << " vetoes " << agg.vetoes << "\n";
  out << "watchdog_degrades " << agg.watchdog_degrades << "\n";
  out << "level_switches " << agg.level_switches << "\n";
  out << "weight_faults injected " << agg.weight_faults_injected
      << " detected " << agg.weight_faults_detected << " healed "
      << agg.weight_faults_healed << "\n";
  out << "\n";
  write_sketch_line(out, "missed_critical_rate", agg.missed_critical_rate);
  write_sketch_line(out, "detect_latency_frames", agg.detect_latency_frames);
  write_sketch_line(out, "recovery_ms", agg.recovery_ms);
  write_sketch_line(out, "deadline_slack_ms", agg.deadline_slack_ms);
  out << "\n";
  out << "worst_cells " << agg.worst.size() << "\n";
  for (std::size_t i = 0; i < agg.worst.size(); ++i) {
    const CampaignWorstCell& w = agg.worst[i];
    out << "worst[" << i << "] cell " << w.cell.index << " policy "
        << w.cell.policy << " missed_critical " << w.missed_critical
        << " true_violations " << w.true_violations << " watchdog "
        << w.watchdog_degrades << " deadline_misses " << w.deadline_misses
        << " min_slack_ms " << fmt(w.min_slack_ms) << "\n";
    out << "worst[" << i << "] seeds scenario " << w.cell.scenario_seed
        << " noise " << w.cell.noise_seed << " fault " << w.cell.fault_seed
        << "\n";
    out << "worst[" << i << "] scenario " << w.cell.scenario << "\n";
  }
}

BlackboxRunSpec blackbox_spec_for_cell(const CampaignSpec& spec,
                                       const CampaignCell& cell,
                                       const std::string& model) {
  BlackboxRunSpec b;
  b.model = model;
  b.suite = std::string(kDslSuitePrefix) + cell.scenario;
  b.policy = cell.policy;
  b.frames = spec.frames;
  b.scenario_seed = cell.scenario_seed;
  b.noise_seed = cell.noise_seed;
  b.deadline_ms = spec.deadline_ms;
  b.hysteresis = spec.hysteresis;
  b.scrub_period_frames = spec.scrub_period_frames;
  b.watchdog_overrun_frames = spec.watchdog_overrun_frames;
  b.sensing_delay_frames = spec.sensing_delay_frames;
  b.self_heal = true;
  if (spec.faults_per_cell > 0)
    b.faults = FaultPlan::random_plan(cell.fault_seed, spec.frames,
                                      spec.faults_per_cell, spec.mix);
  return b;
}

std::vector<FaultTailStats> fold_fault_outcomes(
    const FaultCampaignResult& result, double gamma) {
  const QuantileSketch::Config cfg = sketch_config(gamma);
  std::vector<FaultTailStats> out;
  for (const auto& [provider, summary] : result.summaries) {
    (void)summary;
    FaultTailStats s;
    s.provider = provider;
    s.detect_latency_frames = QuantileSketch(cfg);
    s.recovery_ms = QuantileSketch(cfg);
    s.recovery_bytes = QuantileSketch(cfg);
    out.push_back(std::move(s));
  }
  // Summaries are keyed by ARM name ("reversible"), while outcome rows
  // carry the provider's self-reported name ("reversible-masked"), so an
  // exact compare would silently drop the reversible arm's outcomes.
  // Exact match first, then arm-name-is-a-dashed-prefix of the provider.
  const auto find = [&out](const std::string& provider) -> FaultTailStats* {
    for (FaultTailStats& s : out)
      if (s.provider == provider) return &s;
    for (FaultTailStats& s : out)
      if (provider.rfind(s.provider + "-", 0) == 0) return &s;
    return nullptr;
  };
  for (const FaultOutcome& o : result.outcomes) {
    FaultTailStats* s = find(o.provider);
    if (s == nullptr) continue;
    const bool weight_fault = o.kind == FaultKind::WeightBitFlip ||
                              o.kind == FaultKind::StoreBitFlip;
    if (weight_fault && o.applied) {
      ++s->injected;
      if (o.detect_latency_frames >= 0) {
        ++s->detected;
        s->detect_latency_frames.add(
            static_cast<double>(o.detect_latency_frames));
      }
      if (o.healed) ++s->healed;
    }
    if (!o.recovery_mechanism.empty()) {
      s->recovery_ms.add(o.recovery_modeled_ms);
      s->recovery_bytes.add(static_cast<double>(o.recovery_bytes));
    }
  }
  return out;
}

void write_fault_tail_stats(const std::vector<FaultTailStats>& stats,
                            std::ostream& out) {
  out << "# streaming tail stats (mergeable quantile sketches)\n";
  for (const FaultTailStats& s : stats) {
    out << s.provider << ": weight faults injected=" << s.injected
        << " detected=" << s.detected << " healed=" << s.healed << "\n";
    write_sketch_line(out, "  detect_latency_frames",
                      s.detect_latency_frames);
    write_sketch_line(out, "  recovery_ms", s.recovery_ms);
    write_sketch_line(out, "  recovery_bytes", s.recovery_bytes);
  }
}

}  // namespace rrp::sim
