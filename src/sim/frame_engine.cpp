#include "sim/frame_engine.h"

#include <algorithm>

#include "core/flight_recorder.h"
#include "core/slo.h"
#include "nn/loss.h"
#include "util/checks.h"
#include "util/timer.h"
#include "util/trace.h"

namespace rrp::sim {

StreamState::StreamState(const Scenario& scenario_in,
                         core::RuntimeController& controller_in,
                         FaultHarness* harness_in, const RunConfig& config)
    : scenario(&scenario_in),
      controller(&controller_in),
      harness(harness_in),
      noise(config.noise_seed),
      energy_left(config.energy_budget_mj),
      estimator(config.perception_criticality),
      injector(config.faults, harness_in ? harness_in->targets : FaultTargets{}),
      input(input_shape(config.vision)) {
  result.scenario = scenario_in.name;
  result.provider = controller_in.provider().name();
  result.policy = controller_in.policy().name();
  core::SafetyMonitor* monitor = controller_in.monitor();
  prev_detects = monitor ? monitor->integrity_detect_count() : 0;
  prev_repairs = monitor ? monitor->integrity_repair_count() : 0;
  prev_degrades = monitor ? monitor->watchdog_degrade_count() : 0;
}

FrameEngine::FrameEngine(const RunConfig& config,
                         const metrics::MetricDomain* stream_domain)
    : config_(config),
      platform_(config.platform),
      in_shape_(input_shape(config.vision)),
      frames_ctr_(&metrics::counter("runner.frames")),
      misses_ctr_(&metrics::counter("runner.deadline_misses")),
      budget_gauge_(&metrics::gauge("runner.energy_budget_frac")),
      frame_hist_(&metrics::histogram("runner.frame_ms")),
      switch_hist_(&metrics::histogram("prune.switch_us")),
      detect_hist_(&metrics::histogram("integrity.detect_latency_frames")) {
  if (stream_domain != nullptr)
    stream_frames_ctr_ = &stream_domain->counter("serve.stream.frames");
  RRP_CHECK(config_.sensing_delay_frames >= 0);
  RRP_CHECK(config_.sensor_blackout_prob >= 0.0 &&
            config_.sensor_blackout_prob <= 1.0);
  RRP_CHECK(config_.scrub_period_frames >= 0);
  RRP_CHECK(config_.watchdog_overrun_frames >= 0);
}

StreamState FrameEngine::make_stream(const Scenario& scenario,
                                     core::RuntimeController& controller,
                                     FaultHarness* harness) const {
  RRP_CHECK_MSG(!scenario.scenes.empty(), "scenario has no frames");
  StreamState s(scenario, controller, harness, config_);
  if (harness != nullptr && harness->checker != nullptr &&
      harness->targets.live_net != nullptr)
    s.live_params = harness->targets.live_net->params();
  std::size_t most_actors = 0;
  for (const Scene& scene : scenario.scenes)
    most_actors = std::max(most_actors, scene.actors.size());
  s.draw_order.reserve(most_actors);
  s.result.telemetry.reserve(scenario.scenes.size());
  if (config_.measure_wall) s.result.wall.frames.reserve(scenario.scenes.size());
  return s;
}

// First injected weight/store flip not yet credited to a detection; a
// scrub detection credits every applied flip up to that point (the
// scrub is exhaustive, so they are all detected at once).
void FrameEngine::credit_detect_latency(StreamState& s,
                                        std::int64_t at_frame) const {
  const std::vector<InjectedFault>& inj = s.injector.injected();
  for (; s.credit_idx < inj.size(); ++s.credit_idx) {
    const InjectedFault& fi = inj[s.credit_idx];
    if ((fi.kind == FaultKind::WeightBitFlip ||
         fi.kind == FaultKind::StoreBitFlip) &&
        fi.applied)
      detect_hist_->observe(static_cast<double>(at_frame - fi.frame));
  }
}

// rrp-frame-path: one frame of a stream's closed loop, solo or served.
void FrameEngine::step(StreamState& s) const {
  RRP_CHECK(!s.done());
  const RunConfig& config = config_;
  const PlatformModel& platform = platform_;
  core::RuntimeController& controller = *s.controller;
  core::SafetyMonitor* monitor = controller.monitor();
  FaultHarness* harness = s.harness;
  const Scenario& scenario = *s.scenario;
  core::FlightRecorder* recorder = config.flight_recorder;
  core::SloMonitor* slo = config.slo;

  const std::size_t f = s.frame;
  const std::size_t span_base = trace::spans().size();
  // Frame span: every sub-span (control, render, infer, scrub...) nests
  // under it, and its modeled_us is set to exactly the platform-model
  // time the FrameRecord charges (latency + switch), so the span CSV
  // reconciles with Telemetry to the bit (core/metrics.h).
  trace::ScopedFrame frame_tag(static_cast<std::int64_t>(f));
  RRP_SPAN_VAR(frame_span, "frame");
  const Scene& scene = scenario.scenes[f];
  const FrameFaults faults =
      s.injector.begin_frame(static_cast<std::int64_t>(f));
  // The controller and monitor see the criticality the perception stack
  // has already published — `sensing_delay_frames` behind the world.
  const std::size_t sensed_frame =
      f >= static_cast<std::size_t>(config.sensing_delay_frames)
          ? f - static_cast<std::size_t>(config.sensing_delay_frames)
          : 0;
  const Scene& sensed_scene = scenario.scenes[sensed_frame];

  // Monitor: perception context (criticality) and platform state.
  core::ControlInput input;
  input.frame = static_cast<std::int64_t>(f);
  switch (config.criticality_source) {
    case CriticalitySource::GroundTruthTtc:
      input.criticality = classify_scene(sensed_scene, config.criticality);
      break;
    case CriticalitySource::Perception:
      input.criticality = s.perceived;  // last frame's own assessment
      break;
    case CriticalitySource::PerceptionFloor:
      input.criticality =
          std::max(s.perceived, core::CriticalityClass::Medium);
      break;
  }
  // Sensor faults override what the controller gets to see; the plant's
  // true criticality (rec.criticality below) is unaffected.
  if (faults.stuck_criticality)
    input.criticality = *faults.stuck_criticality;
  else if (faults.stale_criticality)
    input.criticality = s.last_published;
  s.last_published = input.criticality;
  input.deadline_ms = config.deadline_ms;
  input.energy_budget_frac =
      config.energy_budget_mj > 0.0
          ? std::clamp(s.energy_left / config.energy_budget_mj, 0.0, 1.0)
          : 1.0;

  // Analyze/Plan/Execute: the controller applies a (screened) level —
  // unless this frame's decision is dropped by a fault, in which case the
  // provider coasts at its current level (still audited).
  core::ControlDecision d;
  {
    RRP_SPAN("control");
    if (faults.drop_decision) {
      d.requested_level = controller.provider().current_level();
      d.enforced_level = d.requested_level;
      if (monitor)
        monitor->audit(input.frame, input.criticality, d.enforced_level);
    } else {
      d = controller.step(input);
    }
  }

  // Perceive: render the sensor frame (maybe lost) and run inference.
  const bool blackout = (config.sensor_blackout_prob > 0.0 &&
                         s.noise.bernoulli(config.sensor_blackout_prob)) ||
                        faults.blackout;
  // A blackout renders an empty road (noise only): the scene without its
  // actors (an empty vector owns no storage), built only then, so a
  // normal frame copies nothing.
  Scene empty_road;
  if (blackout)
    empty_road = Scene{scene.time_s, scene.ego_speed_mps, scene.visibility, {}};
  {
    RRP_SPAN("render");
    // Straight into the stream's batch-1 input tensor.
    render_into(blackout ? empty_road : scene, config.vision, s.noise,
                s.input.raw(), s.draw_order);
  }
  double infer_wall_us = 0.0;
  {
    RRP_SPAN("infer");
    if (config.measure_wall) {
      // Measured wall-clock rides NEXT TO the deterministic pipeline:
      // the reading lands only in RunResult::wall, never in telemetry,
      // metrics or trace.
      Timer wall;
      controller.provider().infer_into(s.input, s.logits);
      infer_wall_us = wall.elapsed_us();
    } else {
      controller.provider().infer_into(s.input, s.logits);
    }
  }
  // The batch-1 logits are one row over the classes, read in place.
  const std::span<const float> logits = s.logits.data();
  const int pred = nn::argmax(logits);
  const int label = scene_label(scene);
  s.perceived = s.estimator.update(pred, logits);

  // Account: platform-model latency/energy for this frame.
  const std::int64_t macs = controller.provider().active_macs(in_shape_);
  const bool switched = d.transition.from_level != d.transition.to_level;
  double switch_us =
      (switched ? platform.switch_latency_us(d.transition.bytes_written)
                : 0.0) +
      d.transition.backoff_us + s.carried_switch_us;
  double switch_energy =
      (switched ? platform.switch_energy_mj(d.transition.bytes_written)
                : 0.0) +
      s.carried_switch_energy;
  s.carried_switch_us = 0.0;
  s.carried_switch_energy = 0.0;

  // Integrity scrub: verify live weights against golden ⊙ mask
  // (reversible arm) or against the clean artifact digest (reload arm),
  // and repair in place when configured.  Modeled repair cost is charged
  // to this frame's switch budget.
  if (harness != nullptr && config.scrub_period_frames > 0 &&
      (f + 1) % static_cast<std::size_t>(config.scrub_period_frames) == 0) {
    // Fast-path arm: the masked golden arm lags the active compacted
    // level; align it here (O(Δ), scrub cadence) so golden ⊙ mask below
    // references the level actually executing.
    if (harness->ladder != nullptr) harness->ladder->sync_masked();
    if (harness->checker != nullptr && harness->levels != nullptr &&
        harness->targets.live_net != nullptr) {
      const prune::NetworkMask& mask =
          harness->levels->mask(controller.provider().current_level());
      core::ScrubReport scrub =
          harness->checker->scrub_params(s.live_params, mask);
      scrub.frame = input.frame;
      if (!scrub.clean()) {
        credit_detect_latency(s, input.frame);
        if (monitor)
          for (const core::IntegrityFinding& finding : scrub.findings)
            monitor->record_integrity_detect(
                input.frame, finding.diverged_elements,
                finding.param +
                    (finding.store_corrupt ? " store-corrupt" : ""));
        if (config.self_heal) {
          const core::RepairReport fix = harness->checker->repair(
              *harness->targets.live_net, mask, scrub);
          const double heal_us = platform.switch_latency_us(fix.bytes_written);
          switch_us += heal_us;
          switch_energy += platform.switch_energy_mj(fix.bytes_written);
          if (monitor)
            monitor->record_integrity_repair(
                input.frame, fix.elements_repaired,
                fix.fully_repaired() ? "self-heal"
                                     : "self-heal (store corrupt)");
          // rrp-lint-allow(frame-path-alloc): repair path only — the scrub found corruption this frame, and the recovery log is the campaign's evidence.
          harness->recoveries.push_back(
              {input.frame, "self-heal", fix.elements_repaired,
               fix.bytes_written, heal_us / 1000.0, fix.fully_repaired()});
        }
      }
    } else if (harness->reload != nullptr &&
               harness->reload_digests != nullptr &&
               harness->targets.live_net != nullptr) {
      const int level = controller.provider().current_level();
      const std::uint64_t digest =
          live_network_digest(*harness->targets.live_net);
      if (digest !=
          (*harness->reload_digests)[static_cast<std::size_t>(level)]) {
        credit_detect_latency(s, input.frame);
        if (monitor)
          monitor->record_integrity_detect(
              input.frame, 0,
              "digest mismatch at level " + std::to_string(level));
        if (config.self_heal) {
          const core::TransitionStats reload =
              harness->reload->reload_current();
          const double reload_us =
              platform.switch_latency_us(reload.bytes_written) +
              reload.backoff_us;
          switch_us += reload_us;
          switch_energy += platform.switch_energy_mj(reload.bytes_written);
          if (monitor)
            monitor->record_integrity_repair(input.frame,
                                             reload.elements_changed,
                                             "full artifact reload");
          // rrp-lint-allow(frame-path-alloc): reload-repair path only — the digest mismatched this frame, and the recovery log is the campaign's evidence.
          harness->recoveries.push_back(
              {input.frame, "reload", reload.elements_changed,
               reload.bytes_written, reload_us / 1000.0, true});
        }
      }
    }
  }

  core::FrameRecord rec;
  rec.frame = input.frame;
  rec.criticality = classify_scene(scene, config.criticality);
  rec.requested_level = d.requested_level;
  rec.executed_level = controller.provider().current_level();
  rec.latency_ms = platform.latency_ms(macs) * faults.latency_scale;
  rec.energy_mj = platform.energy_mj(macs) + switch_energy;
  rec.switch_us = switch_us;
  rec.deadline_ms = config.deadline_ms;
  rec.correct = pred == label;
  rec.veto = d.veto;
  rec.violation = monitor != nullptr &&
                  rec.executed_level >
                      monitor->certified_max(input.criticality);
  rec.true_violation =
      monitor != nullptr &&
      rec.executed_level > monitor->certified_max(rec.criticality);
  s.result.telemetry.add(rec);
  if (config.measure_wall) {
    // rrp-lint-allow(frame-path-alloc): make_stream reserved the scenario's length, so this append never reallocates.
    s.result.wall.frames.push_back({rec.frame, rec.executed_level,
                                    infer_wall_us, rec.latency_ms * 1000.0});
  }

  const double frame_ms = rec.latency_ms + rec.switch_us / 1000.0;
  frame_span.add_modeled_us(rec.latency_ms * 1000.0 + rec.switch_us);
  frames_ctr_->add(1);
  if (stream_frames_ctr_ != nullptr) stream_frames_ctr_->add(1);
  if (frame_ms > rec.deadline_ms) misses_ctr_->add(1);
  budget_gauge_->set(input.energy_budget_frac);
  frame_hist_->observe(frame_ms);
  if (rec.switch_us > 0.0) switch_hist_->observe(rec.switch_us);

  s.energy_left -= rec.energy_mj;

  // Deadline watchdog: N consecutive overruns force the certified max
  // level for the SENSED criticality — degraded but certified service.
  if (config.watchdog_overrun_frames > 0) {
    const double frame_total_ms = rec.latency_ms + rec.switch_us / 1000.0;
    if (frame_total_ms > config.deadline_ms)
      ++s.consecutive_overruns;
    else
      s.consecutive_overruns = 0;
    if (s.consecutive_overruns >= config.watchdog_overrun_frames) {
      const int ladder_max = controller.provider().level_count() - 1;
      const int forced =
          monitor ? std::min(monitor->certified_max(input.criticality),
                             ladder_max)
                  : ladder_max;
      const int from = controller.provider().current_level();
      if (forced != from) {
        const core::TransitionStats t =
            controller.provider().set_level(forced);
        s.carried_switch_us =
            platform.switch_latency_us(t.bytes_written) + t.backoff_us;
        s.carried_switch_energy = platform.switch_energy_mj(t.bytes_written);
      }
      if (monitor)
        monitor->record_watchdog_degrade(input.frame, input.criticality,
                                         from, forced);
      s.consecutive_overruns = 0;
    }
  }

  // Black box + SLOs, last so watchdog/integrity interventions of THIS
  // frame land in this frame's record.  Pure bookkeeping on the driving
  // thread; byte-identical across RRP_THREADS like the rest of the
  // observability layer.
  if (recorder != nullptr || slo != nullptr) {
    const std::int64_t detects =
        monitor ? monitor->integrity_detect_count() : 0;
    const std::int64_t repairs =
        monitor ? monitor->integrity_repair_count() : 0;
    const std::int64_t degrades =
        monitor ? monitor->watchdog_degrade_count() : 0;
    if (recorder != nullptr) {
      core::FlightRecord fr;
      fr.frame = rec.frame;
      fr.criticality = static_cast<std::int32_t>(input.criticality);
      fr.true_criticality = static_cast<std::int32_t>(rec.criticality);
      fr.requested_level = rec.requested_level;
      fr.executed_level = rec.executed_level;
      fr.latency_ms = rec.latency_ms;
      fr.switch_us = rec.switch_us;
      fr.deadline_ms = rec.deadline_ms;
      fr.energy_mj = rec.energy_mj;
      fr.flags = (rec.correct ? core::FlightRecord::kCorrect : 0u) |
                 (rec.veto ? core::FlightRecord::kVeto : 0u) |
                 (rec.violation ? core::FlightRecord::kViolation : 0u) |
                 (rec.true_violation ? core::FlightRecord::kTrueViolation
                                     : 0u);
      fr.integrity_detects =
          static_cast<std::int32_t>(detects - s.prev_detects);
      fr.integrity_repairs =
          static_cast<std::int32_t>(repairs - s.prev_repairs);
      fr.watchdog_degrades =
          static_cast<std::int32_t>(degrades - s.prev_degrades);
      fr.span_digest =
          trace::enabled() ? core::span_window_digest(span_base) : 0;
      recorder->record(fr);
    }
    if (slo != nullptr) {
      if (rec.violation)
        slo->note_event(rec.frame, "safety.violation",
                        static_cast<double>(rec.executed_level),
                        "executed level above certified max");
      if (degrades > s.prev_degrades)
        slo->note_event(rec.frame, "safety.watchdog_degrade",
                        static_cast<double>(degrades - s.prev_degrades),
                        "deadline watchdog forced certified level");
      if (detects > s.prev_detects)
        slo->note_event(rec.frame, "integrity.detect",
                        static_cast<double>(detects - s.prev_detects),
                        "scrub detected weight divergence");
      slo->evaluate(rec.frame);
    }
    s.prev_detects = detects;
    s.prev_repairs = repairs;
    s.prev_degrades = degrades;
  }

  ++s.frame;
}

RunResult FrameEngine::finish(StreamState& s) const {
  if (s.harness != nullptr) s.harness->injected = s.injector.injected();
  s.result.wall.enabled = config_.measure_wall;
  s.result.summary = s.result.telemetry.summarize();
  return std::move(s.result);
}

}  // namespace rrp::sim
