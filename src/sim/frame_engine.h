// frame_engine.h — the reusable per-stream frame loop.
//
// Extracted from sim/runner so the closed perception-control loop can be
// driven one frame at a time by more than one client: the single-scenario
// simulator (run_scenario, which remains byte-identical to its pre-split
// behaviour — pinned by the golden-trace and observability-parity suites)
// and the multi-stream serving engine (src/serve), which interleaves many
// StreamStates over one shared provider.
//
// Split of responsibilities:
//   - StreamState carries ALL mutable per-stream loop state: sensor-noise
//     RNG, energy budget, perception estimator, fault-injector cursor,
//     watchdog overrun count, carried switch cost, flight-recorder/SLO
//     deltas, and the accumulating RunResult.  It is self-contained and
//     movable, so a serving engine can hold an arbitrary, changing set of
//     them.
//   - FrameEngine holds the immutable per-stream configuration (RunConfig
//     copy, platform model, input shape, cached metric handles) and steps
//     a StreamState by exactly one frame.
//
// step() preserves the historical runner frame order exactly: span open,
// fault begin_frame, sensed criticality, control, render, infer, account,
// scrub, record, metrics, watchdog, flight-recorder/SLO — in that order.
#pragma once

#include "sim/runner.h"
#include "util/metrics.h"

namespace rrp::sim {

/// All mutable state of one stream's closed loop.  Constructed by
/// FrameEngine::make_stream; advanced by FrameEngine::step.
struct StreamState {
  StreamState(const Scenario& scenario_in,
              core::RuntimeController& controller_in, FaultHarness* harness_in,
              const RunConfig& config);

  const Scenario* scenario = nullptr;
  core::RuntimeController* controller = nullptr;
  FaultHarness* harness = nullptr;

  Rng noise;
  double energy_left = 0.0;
  PerceptionCriticality estimator;
  core::CriticalityClass perceived = core::CriticalityClass::Low;
  FaultInjector injector;
  core::CriticalityClass last_published = core::CriticalityClass::Low;
  int consecutive_overruns = 0;
  // Watchdog interventions fire AFTER a frame is accounted; their switch
  // cost lands on the next frame's record.
  double carried_switch_us = 0.0;
  double carried_switch_energy = 0.0;
  // Black-box / SLO bookkeeping: per-frame deltas of the monitor's
  // assurance counts, and detection-latency credit for injected flips.
  std::int64_t prev_detects = 0;
  std::int64_t prev_repairs = 0;
  std::int64_t prev_degrades = 0;
  std::size_t credit_idx = 0;
  // The rendered batch-1 input (render_into writes it in place) and the
  // provider's output, kept across frames so each is sized once.
  nn::Tensor input;
  nn::Tensor logits;
  // render_into's draw-order scratch, reserved at make_stream for the
  // scenario's most actors in one scene.
  std::vector<const Actor*> draw_order;
  // The harness network's parameter list, collected once at make_stream,
  // so a cadence scrub walks it without allocating (empty: no scrub arm).
  std::vector<nn::ParamRef> live_params;

  std::size_t frame = 0;  ///< next frame to execute
  RunResult result;

  bool done() const { return frame >= scenario->scenes.size(); }
};

/// Steps StreamStates through the closed loop, one frame per call.  The
/// engine itself is immutable after construction, so one engine may step
/// many streams (or the same stream from different ticks) — every mutable
/// bit lives in the StreamState.
class FrameEngine {
 public:
  /// `stream_domain` (optional) labels this engine's per-stream serve
  /// metrics (serve.stream.frames) — the serve engine passes the
  /// stream's MetricDomain, whose names it pre-registered on the driving
  /// thread; the solo simulator passes nothing and stays label-free.
  /// The domain is only read during construction (handles are cached).
  explicit FrameEngine(const RunConfig& config,
                       const metrics::MetricDomain* stream_domain = nullptr);

  /// Validates the scenario and builds a fresh stream over it, with its
  /// per-frame records reserved for the scenario's length.
  StreamState make_stream(const Scenario& scenario,
                          core::RuntimeController& controller,
                          FaultHarness* harness = nullptr) const;

  /// Advances `s` by exactly one frame.  Precondition: !s.done().  A
  /// nominal frame allocates nothing: only an intervention (a veto, a
  /// violation, an integrity detection or repair) appends its evidence.
  void step(StreamState& s) const;

  /// Finalizes the stream: copies injected faults to the harness and
  /// summarizes telemetry.  Moves the result out of `s`.
  RunResult finish(StreamState& s) const;

  const RunConfig& config() const { return config_; }
  const PlatformModel& platform() const { return platform_; }

 private:
  void credit_detect_latency(StreamState& s, std::int64_t at_frame) const;

  RunConfig config_;
  PlatformModel platform_;
  nn::Shape in_shape_;
  // Metric handles resolved once on the constructing thread.  All names
  // are pre-registered in the registry's built-in schema, so the handles
  // are the same objects for every engine and safe to hit from pool
  // chunk bodies (counters/histograms are commutative atomics; the gauge
  // write is suppressed inside parallel regions).
  metrics::Counter* frames_ctr_;
  metrics::Counter* misses_ctr_;
  metrics::Gauge* budget_gauge_;
  metrics::Histogram* frame_hist_;
  metrics::Histogram* switch_hist_;
  metrics::Histogram* detect_hist_;
  /// Labeled per-stream counter (serve only); nullptr when unlabeled.
  metrics::Counter* stream_frames_ctr_ = nullptr;
};

}  // namespace rrp::sim
