#include "sim/incident_replay.h"

#include <memory>
#include <sstream>

#include "core/controller.h"
#include "core/integrity.h"
#include "core/metrics.h"
#include "core/policies.h"
#include "core/reversible_pruner.h"
#include "sim/scenario_gen.h"
#include "util/checks.h"
#include "util/trace.h"

namespace rrp::sim {
namespace {

std::uint64_t telemetry_digest(const core::Telemetry& telemetry) {
  std::ostringstream os;
  telemetry.write_csv(os);
  const std::string csv = os.str();
  return core::fnv1a64(csv.data(), csv.size());
}

std::string bundle_bytes(const core::IncidentBundle& bundle) {
  std::ostringstream os;
  core::write_incident_bundle(bundle, os);
  return os.str();
}

}  // namespace

core::RecordedFault to_recorded_fault(const FaultEvent& e) {
  core::RecordedFault r;
  r.kind = static_cast<std::int32_t>(e.kind);
  r.frame = e.frame;
  r.duration_frames = e.duration_frames;
  r.magnitude = e.magnitude;
  r.target = e.target;
  r.bit = e.bit;
  r.stuck = static_cast<std::int32_t>(e.stuck);
  r.count = e.count;
  return r;
}

FaultEvent from_recorded_fault(const core::RecordedFault& r) {
  RRP_CHECK_MSG(r.kind >= 0 && r.kind < kFaultKinds,
                "recorded fault kind " << r.kind << " out of range");
  RRP_CHECK_MSG(r.stuck >= 0 && r.stuck < core::kCriticalityClasses,
                "recorded fault criticality " << r.stuck << " out of range");
  FaultEvent e;
  e.kind = static_cast<FaultKind>(r.kind);
  e.frame = r.frame;
  e.duration_frames = r.duration_frames;
  e.magnitude = r.magnitude;
  e.target = r.target;
  e.bit = r.bit;
  e.stuck = static_cast<core::CriticalityClass>(r.stuck);
  e.count = r.count;
  return e;
}

std::vector<core::RecordedFault> record_fault_plan(const FaultPlan& plan) {
  std::vector<core::RecordedFault> v;
  v.reserve(plan.events.size());
  for (const FaultEvent& e : plan.events) v.push_back(to_recorded_fault(e));
  return v;
}

FaultPlan fault_plan_from_recorded(const std::vector<core::RecordedFault>& v) {
  FaultPlan plan;
  for (const core::RecordedFault& r : v) plan.add(from_recorded_fault(r));
  return plan;
}

BlackboxRunSpec spec_from_bundle(const core::IncidentBundle& bundle) {
  const core::IncidentContext& c = bundle.context;
  BlackboxRunSpec spec;
  spec.model = c.model;
  spec.suite = c.suite;
  spec.policy = c.policy;
  spec.frames = c.frames;
  spec.scenario_seed = c.scenario_seed;
  spec.noise_seed = c.noise_seed;
  spec.deadline_ms = c.deadline_ms;
  spec.hysteresis = c.hysteresis;
  spec.scrub_period_frames = c.scrub_period_frames;
  spec.watchdog_overrun_frames = c.watchdog_overrun_frames;
  spec.sensing_delay_frames = c.sensing_delay_frames;
  spec.self_heal = c.self_heal;
  spec.trace_enabled = c.trace_enabled;
  spec.recorder_capacity = c.recorder_capacity;
  spec.faults = fault_plan_from_recorded(bundle.faults);
  spec.slos = bundle.slos;
  return spec;
}

ReversibleArm::ReversibleArm(nn::Network& net, const CampaignInputs& inputs)
    : pruner(net, *inputs.levels), checker(pruner.store()) {
  if (!inputs.bn_states.empty()) pruner.set_bn_states(inputs.bn_states);
  harness.targets.live_net = &pruner.network();
  harness.targets.store = &pruner.mutable_store();
  harness.checker = &checker;
  harness.levels = inputs.levels;
}

RunResult run_loop(const BlackboxRunSpec& spec,
                   core::InferenceProvider& provider, FaultHarness& harness,
                   core::SafetyMonitor& monitor,
                   core::FlightRecorder* recorder, core::SloMonitor* slo) {
  const std::unique_ptr<core::Policy> policy =
      core::make_policy(spec.policy, monitor.config(), spec.hysteresis,
                        provider.level_count());
  core::RuntimeController controller(*policy, provider, &monitor);

  RunConfig rc;
  rc.deadline_ms = spec.deadline_ms;
  rc.sensing_delay_frames = spec.sensing_delay_frames;
  rc.faults = spec.faults;
  rc.scrub_period_frames = spec.scrub_period_frames;
  rc.self_heal = spec.self_heal;
  rc.watchdog_overrun_frames = spec.watchdog_overrun_frames;
  rc.noise_seed = spec.noise_seed;
  rc.flight_recorder = recorder;
  rc.slo = slo;

  // Built-in names and "dsl:<line>" strings resolve alike, so a campaign
  // worst-cell bundle replays with no side-channel files.
  const Scenario scenario =
      make_suite_or_dsl(spec.suite, spec.frames, spec.scenario_seed);
  return run_scenario(scenario, controller, rc, &harness);
}

BlackboxRunResult run_blackbox(const BlackboxRunSpec& spec,
                               const CampaignInputs& inputs) {
  RRP_CHECK_MSG(inputs.net != nullptr && inputs.levels != nullptr,
                "blackbox run needs a provisioned network and level library");
  RRP_CHECK(spec.frames > 0);
  RRP_CHECK(spec.recorder_capacity > 0);

  // Faults corrupt the live network and possibly the golden store; restore
  // the caller's network bit-exact afterwards (same idiom as the campaign).
  const core::WeightStore pristine = core::WeightStore::snapshot(*inputs.net);
  const bool trace_was = trace::enabled();
  core::reset_observability();
  trace::set_enabled(spec.trace_enabled);

  BlackboxRunResult out;
  core::FlightRecorder recorder(spec.recorder_capacity);
  core::SloMonitor slo(spec.slos.empty() ? core::standard_slos() : spec.slos);
  {
    ReversibleArm arm(*inputs.net, inputs);
    core::SafetyMonitor monitor(inputs.certified);
    out.run = run_loop(spec, arm.pruner, arm.harness, monitor, &recorder, &slo);
  }
  pristine.restore_all(*inputs.net);

  core::IncidentContext ctx;
  ctx.model = spec.model;
  ctx.suite = spec.suite;
  ctx.policy = spec.policy;
  ctx.provider = out.run.provider;
  ctx.frames = spec.frames;
  ctx.scenario_seed = spec.scenario_seed;
  ctx.noise_seed = spec.noise_seed;
  ctx.deadline_ms = spec.deadline_ms;
  ctx.hysteresis = spec.hysteresis;
  ctx.scrub_period_frames = spec.scrub_period_frames;
  ctx.watchdog_overrun_frames = spec.watchdog_overrun_frames;
  ctx.sensing_delay_frames = spec.sensing_delay_frames;
  ctx.self_heal = spec.self_heal;
  ctx.trace_enabled = spec.trace_enabled;
  for (int c = 0; c < core::kCriticalityClasses; ++c)
    ctx.certified[static_cast<std::size_t>(c)] =
        inputs.certified.max_level_for[static_cast<std::size_t>(c)];
  ctx.recorder_capacity = static_cast<std::uint32_t>(spec.recorder_capacity);
  ctx.telemetry_digest = telemetry_digest(out.run.telemetry);

  out.bundle.context = ctx;
  out.bundle.faults = record_fault_plan(spec.faults);
  out.bundle.slos = slo.specs();
  out.bundle.incidents = slo.incidents();
  out.bundle.dropped_incidents = slo.dropped_incidents();
  out.bundle.records = recorder.window();
  out.incident = slo.any_incident();

  trace::set_enabled(trace_was);
  core::reset_observability();
  return out;
}

ReplayResult replay_bundle(const core::IncidentBundle& bundle,
                           const CampaignInputs& inputs) {
  const BlackboxRunSpec spec = spec_from_bundle(bundle);
  const BlackboxRunResult rerun = run_blackbox(spec, inputs);

  ReplayResult res;
  res.recorded_csv = core::incident_csv_string(bundle);
  res.replayed_csv = core::incident_csv_string(rerun.bundle);
  res.records_match = res.recorded_csv == res.replayed_csv;
  res.recorded_telemetry_digest = bundle.context.telemetry_digest;
  res.replayed_telemetry_digest = rerun.bundle.context.telemetry_digest;
  res.telemetry_match =
      res.recorded_telemetry_digest == res.replayed_telemetry_digest;
  res.incidents_match =
      bundle.incidents.size() == rerun.bundle.incidents.size();
  if (res.incidents_match) {
    for (std::size_t i = 0; i < bundle.incidents.size(); ++i) {
      const core::Incident& a = bundle.incidents[i];
      const core::Incident& b = rerun.bundle.incidents[i];
      if (a.frame != b.frame || a.slo_id != b.slo_id ||
          a.observed != b.observed || a.threshold != b.threshold ||
          a.detail != b.detail) {
        res.incidents_match = false;
        break;
      }
    }
  }
  // The headline assertion: the whole replayed bundle re-serializes to the
  // recorded bundle's exact bytes.
  res.match = bundle_bytes(bundle) == bundle_bytes(rerun.bundle);
  res.summary = rerun.run.summary;
  return res;
}

}  // namespace rrp::sim
