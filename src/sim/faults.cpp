#include "sim/faults.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <ostream>

#include "sim/incident_replay.h"
#include "util/checks.h"
#include "util/csv.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rrp::sim {

const char* fault_kind_name(FaultKind k) {
  switch (k) {
    case FaultKind::SensorBlackout: return "sensor_blackout";
    case FaultKind::WeightBitFlip: return "weight_bit_flip";
    case FaultKind::StoreBitFlip: return "store_bit_flip";
    case FaultKind::StuckCriticality: return "stuck_criticality";
    case FaultKind::StaleCriticality: return "stale_criticality";
    case FaultKind::LatencySpike: return "latency_spike";
    case FaultKind::DroppedDecision: return "dropped_decision";
    case FaultKind::ArtifactReadFailure: return "artifact_read_failure";
  }
  return "unknown";
}

std::vector<double> FaultMix::weights() const {
  return {sensor_blackout,   weight_bit_flip, store_bit_flip,
          stuck_criticality, stale_criticality, latency_spike,
          dropped_decision,  artifact_read_failure};
}

// rrp-frame-path-stop: fault-plan construction is scenario setup, not
// the frame path; reached only via receiver-blind 'add' name matching.
void FaultPlan::add(FaultEvent e) {
  const auto it = std::upper_bound(
      events.begin(), events.end(), e.frame,
      [](std::int64_t frame, const FaultEvent& ev) { return frame < ev.frame; });
  events.insert(it, e);
}

FaultPlan FaultPlan::random_plan(std::uint64_t seed, int frames, int n_faults,
                                 const FaultMix& mix, int warmup) {
  RRP_CHECK(frames > 0 && n_faults >= 0 && warmup >= 0);
  if (warmup >= frames) warmup = 0;
  const std::vector<double> w = mix.weights();
  double total = 0.0;
  for (double v : w) total += v;
  RRP_CHECK_MSG(total > 0.0, "fault mix enables no kinds");

  Rng rng(seed);
  FaultPlan plan;
  for (int i = 0; i < n_faults; ++i) {
    // Every field is drawn for every event so the stream stays stable: two
    // plans with the same seed but different mixes diverge only in kinds.
    FaultEvent e;
    e.kind = static_cast<FaultKind>(rng.categorical(w));
    e.frame = warmup + static_cast<std::int64_t>(rng.uniform_u64(
                           static_cast<std::uint64_t>(frames - warmup)));
    e.duration_frames = rng.uniform_int(3, 12);
    e.magnitude = rng.uniform(2.0, 6.0);
    e.target = rng.next_u64();
    e.bit = rng.uniform_int(0, 30);
    // Stuck UNDER-reporting (Low/Medium) is the dangerous direction: the
    // controller keeps pruning hard while the plant's true criticality rises.
    e.stuck = static_cast<core::CriticalityClass>(rng.uniform_int(0, 1));
    e.count = rng.uniform_int(1, 3);
    plan.add(e);
  }
  return plan;
}

FaultInjector::FaultInjector(const FaultPlan& plan, FaultTargets targets)
    : plan_(plan), targets_(targets) {
  std::stable_sort(
      plan_.events.begin(), plan_.events.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.frame < b.frame; });
}

void FaultInjector::apply_point_fault(std::size_t idx, const FaultEvent& e) {
  InjectedFault inj;
  inj.event_index = idx;
  inj.kind = e.kind;
  inj.frame = e.frame;
  inj.bit = e.bit & 31;
  switch (e.kind) {
    case FaultKind::WeightBitFlip: {
      if (!targets_.live_net) break;
      auto params = targets_.live_net->params();
      std::int64_t total = 0;
      for (const auto& p : params) total += p.value->numel();
      if (total == 0) break;
      std::int64_t flat = static_cast<std::int64_t>(
          e.target % static_cast<std::uint64_t>(total));
      for (const auto& p : params) {
        if (flat < p.value->numel()) {
          float* v = p.value->raw() + flat;
          std::uint32_t bits = 0;
          std::memcpy(&bits, v, sizeof(bits));
          bits ^= (1u << (e.bit & 31));
          std::memcpy(v, &bits, sizeof(bits));
          inj.param = p.name;
          inj.element = flat;
          inj.applied = true;
          break;
        }
        flat -= p.value->numel();
      }
      break;
    }
    case FaultKind::StoreBitFlip: {
      if (!targets_.store) break;
      const std::int64_t total = targets_.store->total_elements();
      if (total == 0) break;
      std::int64_t flat = static_cast<std::int64_t>(
          e.target % static_cast<std::uint64_t>(total));
      for (const std::string& name : targets_.store->param_names()) {
        const std::int64_t count = targets_.store->get(name).numel();
        if (flat < count) {
          targets_.store->flip_bit(name, flat, e.bit & 31);
          inj.param = name;
          inj.element = flat;
          inj.applied = true;
          break;
        }
        flat -= count;
      }
      break;
    }
    case FaultKind::ArtifactReadFailure:
      if (!targets_.reload) break;
      targets_.reload->inject_read_failures(std::max(1, e.count));
      inj.applied = true;
      break;
    default:
      break;
  }
  static metrics::Counter& injected = metrics::counter("faults.injected");
  if (inj.applied) injected.add(1);
  injected_.push_back(std::move(inj));
}

// rrp-frame-path-stop: a planned fault fires this frame — the harness
// corrupting the system under test, not the system itself.  The injected
// log is the campaign's evidence, bounded by the fault plan.
void FaultInjector::fire_due_events(std::int64_t frame) {
  while (next_ < plan_.events.size() && plan_.events[next_].frame <= frame) {
    const FaultEvent& e = plan_.events[next_];
    switch (e.kind) {
      case FaultKind::WeightBitFlip:
      case FaultKind::StoreBitFlip:
      case FaultKind::ArtifactReadFailure:
        apply_point_fault(next_, e);
        break;
      default: {
        InjectedFault inj;
        inj.event_index = next_;
        inj.kind = e.kind;
        inj.frame = frame;
        inj.applied = true;
        static metrics::Counter& injected = metrics::counter("faults.injected");
        injected.add(1);
        injected_.push_back(std::move(inj));
        active_.emplace_back(frame + std::max(1, e.duration_frames), next_);
        break;
      }
    }
    ++next_;
  }
}

// rrp-frame-path: the per-frame fault cursor — on a frame with no due
// event it only reads the active bursts.
FrameFaults FaultInjector::begin_frame(std::int64_t frame) {
  if (next_ < plan_.events.size() && plan_.events[next_].frame <= frame)
    fire_due_events(frame);

  FrameFaults ff;
  std::size_t live = 0;
  for (std::size_t i = 0; i < active_.size(); ++i) {
    const auto [end_frame, idx] = active_[i];
    if (end_frame <= frame) continue;  // burst over
    active_[live++] = active_[i];
    const FaultEvent& e = plan_.events[idx];
    switch (e.kind) {
      case FaultKind::SensorBlackout:
        ff.blackout = true;
        break;
      case FaultKind::StuckCriticality:
        ff.stuck_criticality = e.stuck;
        break;
      case FaultKind::StaleCriticality:
        ff.stale_criticality = true;
        break;
      case FaultKind::LatencySpike:
        ff.latency_scale *= std::max(1.0, e.magnitude);
        break;
      case FaultKind::DroppedDecision:
        ff.drop_decision = true;
        break;
      default:
        break;
    }
  }
  // rrp-lint-allow(frame-path-alloc): shrinks to the bursts still live; a resize to at most the current size never reallocates.
  active_.resize(live);
  return ff;
}

// rrp-frame-path-stop: the reload arm's scrub digest — the baseline
// comparison arm, like ReloadProvider::set_level; it collects the
// network's parameters into vectors.
std::uint64_t live_network_digest(nn::Network& net) {
  std::vector<std::uint64_t> parts;
  for (const auto& p : net.params())
    parts.push_back(core::tensor_digest(*p.value));
  if (parts.empty()) return core::fnv1a64(nullptr, 0);
  return core::fnv1a64(parts.data(), parts.size() * sizeof(std::uint64_t));
}

std::vector<std::uint64_t> reload_level_digests(core::ReloadProvider& reload) {
  const int original = reload.current_level();
  std::vector<std::uint64_t> digests;
  digests.reserve(static_cast<std::size_t>(reload.level_count()));
  for (int k = 0; k < reload.level_count(); ++k) {
    reload.set_level(k);
    digests.push_back(live_network_digest(reload.active_network()));
  }
  reload.set_level(original);
  return digests;
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

const char* campaign_arm_name(CampaignArm arm) {
  switch (arm) {
    case CampaignArm::Reversible: return "reversible";
    case CampaignArm::ReloadMemory: return "reload-memory";
    case CampaignArm::ReloadDisk: return "reload-disk";
  }
  return "unknown";
}

namespace {

bool is_weight_fault(FaultKind k) {
  return k == FaultKind::WeightBitFlip || k == FaultKind::StoreBitFlip;
}

struct SummaryAcc {
  std::int64_t injected = 0;
  std::int64_t detected = 0;
  std::int64_t healed = 0;
  double detect_latency_sum = 0.0;
  double recovery_ms_sum = 0.0;
  double recovery_bytes_sum = 0.0;
  std::int64_t recoveries = 0;
};

}  // namespace

FaultCampaignResult run_fault_campaign(const CampaignInputs& inputs,
                                       const FaultCampaignConfig& config) {
  RRP_CHECK_MSG(inputs.net != nullptr && inputs.levels != nullptr,
                "campaign needs a provisioned network and level library");
  RRP_CHECK(inputs.levels->level_count() >= 1);
  RRP_CHECK(!config.suites.empty() && !config.arms.empty());
  RRP_CHECK(config.frames > 0 && config.faults_per_run >= 0);

  RRP_SPAN_VAR(campaign_span, "faults.campaign");
  campaign_span.add_items(
      static_cast<std::int64_t>(config.suites.size() * config.arms.size()));
  FaultCampaignResult result;
  std::vector<SummaryAcc> acc(config.arms.size());
  // Faults mutate *inputs.net (and, via a corrupted golden store, what a
  // provider's destructor restores into it); re-baseline between arms so
  // every arm starts from identical weights.
  const core::WeightStore pristine = core::WeightStore::snapshot(*inputs.net);

  for (std::size_t s = 0; s < config.suites.size(); ++s) {
    const std::string& suite = config.suites[s];
    const std::uint64_t suite_seed =
        config.seed + 0x1000ull * static_cast<std::uint64_t>(s);
    // One run spec per suite, fault plan included, shared by every arm:
    // recovery numbers are paired.
    BlackboxRunSpec run_spec;
    run_spec.suite = suite;
    run_spec.policy = config.policy;
    run_spec.frames = config.frames;
    run_spec.scenario_seed = suite_seed;
    run_spec.noise_seed = suite_seed ^ 0x5DEECE66Dull;
    run_spec.deadline_ms = config.deadline_ms;
    run_spec.hysteresis = config.hysteresis;
    run_spec.scrub_period_frames = config.scrub_period_frames;
    run_spec.watchdog_overrun_frames = config.watchdog_overrun_frames;
    run_spec.faults = FaultPlan::random_plan(
        suite_seed ^ 0x9E3779B97F4A7C15ull, config.frames,
        config.faults_per_run, config.mix);

    for (std::size_t a = 0; a < config.arms.size(); ++a) {
      const CampaignArm arm = config.arms[a];
      std::optional<ReversibleArm> reversible;
      std::unique_ptr<core::ReloadProvider> reload;
      std::vector<std::uint64_t> digests;
      FaultHarness reload_harness;
      core::InferenceProvider* provider = nullptr;
      FaultHarness* harness = &reload_harness;

      if (arm == CampaignArm::Reversible) {
        reversible.emplace(*inputs.net, inputs);
        provider = &reversible->pruner;
        harness = &reversible->harness;
      } else {
        const auto source = arm == CampaignArm::ReloadMemory
                                ? core::ReloadProvider::Source::Memory
                                : core::ReloadProvider::Source::Disk;
        reload = std::make_unique<core::ReloadProvider>(
            *inputs.net, *inputs.levels, source, config.artifact_dir,
            inputs.bn_states);
        digests = reload_level_digests(*reload);
        reload_harness.targets.live_net = &reload->active_network();
        reload_harness.targets.reload = reload.get();
        reload_harness.reload = reload.get();
        reload_harness.reload_digests = &digests;
        provider = reload.get();
      }

      core::SafetyMonitor monitor(inputs.certified);
      RRP_SPAN_VAR(run_span, "faults.run");
      const RunResult run = run_loop(run_spec, *provider, *harness, monitor);
      run_span.add_items(
          static_cast<std::int64_t>(harness->injected.size()));

      for (const InjectedFault& inj : harness->injected) {
        FaultOutcome row;
        row.suite = suite;
        row.provider = run.provider;
        row.policy = run.policy;
        row.seed = config.seed;
        row.fault_id = inj.event_index;
        row.kind = inj.kind;
        row.inject_frame = inj.frame;
        row.applied = inj.applied;
        if (is_weight_fault(inj.kind) && inj.applied) {
          // Prefer a detection naming the corrupted parameter (reversible
          // scrub); fall back to the first digest-mismatch detection at or
          // after the injection frame (reload arm).
          const core::AssuranceRecord* hit = nullptr;
          for (const core::AssuranceRecord& rec : monitor.log()) {
            if (rec.kind != core::AssuranceKind::IntegrityDetect) continue;
            if (rec.frame < inj.frame) continue;
            const bool names_param =
                !inj.param.empty() &&
                rec.detail.find(inj.param) != std::string::npos;
            if (names_param) {
              hit = &rec;
              break;
            }
            if (hit == nullptr) hit = &rec;
          }
          if (hit != nullptr) {
            row.detect_frame = hit->frame;
            row.detect_latency_frames = hit->frame - inj.frame;
            for (const FaultHarness::Recovery& rcv : harness->recoveries) {
              if (rcv.frame < row.detect_frame) continue;
              row.recovery_mechanism = rcv.mechanism;
              row.recovery_elements = rcv.elements;
              row.recovery_bytes = rcv.bytes;
              row.recovery_modeled_ms = rcv.modeled_latency_ms;
              // A corrupted golden store is detected but has no local
              // repair; everything else heals bit-exactly.
              row.healed =
                  rcv.recovered && inj.kind != FaultKind::StoreBitFlip;
              break;
            }
          }
        }
        row.run_safety_violations = run.summary.safety_violations;
        row.run_watchdog_degrades = monitor.watchdog_degrade_count();
        row.run_accuracy = run.summary.accuracy;
        result.outcomes.push_back(row);

        if (is_weight_fault(inj.kind) && inj.applied) {
          SummaryAcc& arm_acc = acc[a];
          ++arm_acc.injected;
          if (row.detect_frame >= 0) {
            ++arm_acc.detected;
            arm_acc.detect_latency_sum +=
                static_cast<double>(row.detect_latency_frames);
          }
          if (row.healed) ++arm_acc.healed;
          if (!row.recovery_mechanism.empty()) {
            ++arm_acc.recoveries;
            arm_acc.recovery_ms_sum += row.recovery_modeled_ms;
            arm_acc.recovery_bytes_sum +=
                static_cast<double>(row.recovery_bytes);
          }
        }
      }

      // Destroy the provider (its destructor restores into *inputs.net),
      // then re-baseline from the pristine snapshot.
      reversible.reset();
      reload.reset();
      pristine.restore_all(*inputs.net);
    }
  }

  for (std::size_t a = 0; a < config.arms.size(); ++a) {
    FaultCampaignSummary sum;
    sum.weight_faults_injected = acc[a].injected;
    sum.weight_faults_detected = acc[a].detected;
    sum.weight_faults_healed = acc[a].healed;
    if (acc[a].detected > 0)
      sum.mean_detect_latency_frames =
          acc[a].detect_latency_sum / static_cast<double>(acc[a].detected);
    if (acc[a].recoveries > 0) {
      sum.mean_recovery_ms =
          acc[a].recovery_ms_sum / static_cast<double>(acc[a].recoveries);
      sum.mean_recovery_bytes =
          acc[a].recovery_bytes_sum / static_cast<double>(acc[a].recoveries);
    }
    result.summaries.emplace_back(campaign_arm_name(config.arms[a]), sum);
  }
  return result;
}

void write_campaign_csv(const FaultCampaignResult& result, std::ostream& out) {
  CsvWriter csv(out);
  csv.header({"suite", "provider", "policy", "seed", "fault_id", "kind",
              "inject_frame", "applied", "detect_frame",
              "detect_latency_frames", "recovery_mechanism",
              "recovery_elements", "recovery_bytes", "recovery_modeled_ms",
              "healed", "run_safety_violations", "run_watchdog_degrades",
              "run_accuracy"});
  for (const FaultOutcome& row : result.outcomes) {
    csv.row({row.suite, row.provider, row.policy, std::to_string(row.seed),
             std::to_string(row.fault_id), fault_kind_name(row.kind),
             std::to_string(row.inject_frame), row.applied ? "1" : "0",
             std::to_string(row.detect_frame),
             std::to_string(row.detect_latency_frames),
             row.recovery_mechanism, std::to_string(row.recovery_elements),
             std::to_string(row.recovery_bytes),
             CsvWriter::num(row.recovery_modeled_ms, 6),
             row.healed ? "1" : "0",
             std::to_string(row.run_safety_violations),
             std::to_string(row.run_watchdog_degrades),
             CsvWriter::num(row.run_accuracy, 6)});
  }
}

}  // namespace rrp::sim
