// serve_engine.h — the fleet-scale multi-stream serving runtime.
//
// One long-lived engine owns ONE shared, immutable compacted ladder (the
// "past" weights, core::CompactedLadderProvider) and serves N concurrent
// perception streams over it.  Each stream is a full closed loop of its
// own — a core::CompactedLadderView with its own mask level, a policy, a
// SafetyMonitor, a MAPE-K RuntimeController and a sim::StreamState — but
// the weights are resident exactly once: admitting a stream allocates a
// view (an index), not a model.
//
// Execution is tick-based.  Per tick the engine:
//   1. admits/rejects the streams arriving at this tick (driving thread,
//      arrival order — serve/admission.h);
//   2. steps every active stream by one frame, fanned over the
//      deterministic thread pool into pre-sized per-stream slots;
//   3. folds the slots on the driving thread in stream-index order:
//      congestion-adjusted frame times into serve.* metrics and the
//      quantile sketch, completed streams retired in order;
//   4. evaluates the online SLOs (core/slo.h) and feeds the windowed
//      miss ratio into the overload state machine, which may raise the
//      fleet level floor (Degrade), lower it (Restore) or drop the
//      lowest-priority stream (Shed).
//
// Determinism (DESIGN.md invariant 16): the fan-out writes disjoint
// per-stream state, the fold order is the stream index order, per-stream
// RNG streams are split from the engine seed by index, and spans/gauge
// writes are suppressed inside pool chunk bodies — so per-stream outputs,
// the admission/shed event trace and every aggregate are byte-identical
// at any RRP_THREADS.
//
// Modeled overload: the host grants `tick_budget_ms` of modeled compute
// per tick.  When the fleet's demand exceeds it, every frame of that tick
// is stretched by the congestion factor (demand / budget) in the SERVE
// accounting — per-stream telemetry stays the pure uncontended closed
// loop (and byte-identical to a solo sim/runner run of the same spec).
#pragma once

#include <iosfwd>
#include <memory>

#include "core/slo.h"
#include "serve/admission.h"
#include "serve/obs.h"
#include "sim/frame_engine.h"
#include "util/qsketch.h"

namespace rrp::serve {

/// One stream's workload description.
struct StreamSpec {
  std::string name;                 ///< default: "stream<index>"
  std::string scenario = "cut_in";  ///< suite | builtin spec | "dsl:<line>"
  std::string policy = "greedy";    ///< "greedy" | "fixed<K>"
  int frames = 300;
  std::int64_t arrival_tick = 0;  ///< tick at which admission is requested
  int priority = 0;               ///< higher survives shedding longer
  double deadline_ms = 12.0;
  int hysteresis = 6;
  std::uint64_t seed = 0;  ///< sensor-noise seed; 0: split from engine seed
};

/// Everything the engine needs about the one provisioned model it serves:
/// the same model-inputs type the campaigns and the black box take (the
/// network is snapshotted at construction and never mutated by streams).
using ServeInputs = sim::CampaignInputs;

struct ServeConfig {
  std::uint64_t seed = 20240807;  ///< per-stream RNG splits derive from this
  /// Modeled compute the host grants per tick, in platform-model ms.
  /// Demand above it stretches that tick's frames by demand/budget in the
  /// serve accounting.  0 = uncontended (congestion factor pinned to 1).
  double tick_budget_ms = 0.0;
  AdmissionConfig admission;  ///< max_floor 0 = deepest ladder level
  int sensing_delay_frames = 1;
  double sketch_gamma = 0.01;  ///< frame-latency quantile sketch accuracy
  /// Online SLOs over the serve.* metrics, evaluated once per tick on the
  /// driving thread; a breach counts as overload pressure.  Empty = use
  /// standard_serve_slos().
  std::vector<core::SloSpec> slos;
  /// Multi-window burn-rate alerts over serve.* counter ratios; an
  /// alerting tracker counts as overload pressure BEFORE the SLO itself
  /// latches.  Empty = use standard_serve_burn_rates().
  std::vector<core::BurnRateConfig> burn_rates;
  /// Capture a FleetSnapshot every K ticks (serve/obs.h); 0 = never.
  int snapshot_every_ticks = 0;
  /// Measured wall-clock channel: per-frame infer wall times land in
  /// each stream's RunResult::wall (folded per level by
  /// fold_wall_profile).  Never touches the deterministic
  /// telemetry/trace/metrics channels.
  bool measure_wall = false;
  sim::PlatformConfig platform;
  sim::CriticalityConfig criticality;
  sim::VisionTaskConfig vision;
};

/// Outcome of one spec (admitted or not), in spec order.
struct StreamResult {
  std::size_t spec_index = 0;
  std::string name;
  std::int64_t admitted_tick = -1;  ///< -1: rejected at arrival
  std::int64_t shed_tick = -1;      ///< -1: ran to completion
  std::int64_t frames_executed = 0;
  int priority = 0;
  /// Telemetry of the executed frames (partial when shed, empty when
  /// rejected).  Byte-identical to a solo sim/runner run of the same
  /// stream when the floor never engaged.
  sim::RunResult run;
  /// Congestion-adjusted per-stream frame-time tails (util/qsketch;
  /// 0 when the stream executed no frames).
  double p50_frame_ms = 0.0;
  double p99_frame_ms = 0.0;
};

/// Final state of one burn-rate tracker after a run.
struct BurnAlert {
  std::string id;
  bool latched = false;
  std::int64_t alert_tick = -1;  ///< first alerting tick (-1: never)
  double fast_burn = 0.0;        ///< burns at the END of the run
  double slow_burn = 0.0;
};

struct ServeReport {
  std::vector<StreamResult> streams;   ///< spec order, one per spec
  std::vector<AdmissionEvent> events;  ///< decision order
  std::int64_t ticks = 0;
  std::int64_t frames = 0;
  std::int64_t deadline_misses = 0;  ///< congestion-adjusted
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;
  std::int64_t degrades = 0;
  std::int64_t restores = 0;
  std::int64_t sheds = 0;
  int peak_active = 0;
  int final_floor = 0;
  double p50_frame_ms = 0.0;  ///< congestion-adjusted, via util/qsketch
  double p99_frame_ms = 0.0;
  double max_frame_ms = 0.0;
  double mean_congestion = 1.0;  ///< mean per-tick congestion factor
  std::vector<core::Incident> incidents;  ///< from the online SLO monitor
  std::vector<BurnAlert> burn_alerts;     ///< one per burn-rate tracker
  /// Unified fleet event timeline: every admission event plus slo_breach
  /// and burn_alert markers, in decision order (serve/obs.h).
  std::vector<FleetEvent> timeline;
  /// Periodic snapshots (config.snapshot_every_ticks; empty when 0).
  std::vector<FleetSnapshot> snapshots;
};

/// Engine-owned policy wrapper: max(inner decision, fleet level floor).
/// The floor is set on the driving thread between ticks; decide() runs
/// inside the stream's own chunk body, so there is no concurrent access.
/// name() delegates to the inner policy — the floor is an engine
/// intervention (visible in the event trace), not a policy identity.
class FloorPolicy : public core::Policy {
 public:
  explicit FloorPolicy(std::unique_ptr<core::Policy> inner)
      : inner_(std::move(inner)) {}

  const std::string& name() const override { return inner_->name(); }
  // rrp-frame-path: per-frame floored level decision.
  int decide(const core::ControlInput& in, int current_level) override {
    const int want = inner_->decide(in, current_level);
    return want > floor_ ? want : floor_;
  }
  void reset() override { inner_->reset(); }

  void set_floor(int floor) { floor_ = floor; }
  int floor() const { return floor_; }

 private:
  std::unique_ptr<core::Policy> inner_;
  int floor_ = 0;
};

/// The standard serving objectives: congestion-adjusted deadline-miss
/// rate <= 10% (>= 64 frames) and frame-time p99 <= 30 ms.
std::vector<core::SloSpec> standard_serve_slos();

/// The standard leading signal: deadline-miss budget 10%, fast window 8
/// ticks over burn 2x AND slow window 32 ticks over burn 1x (>= 8
/// samples in the fast window) — fires well before slo.serve_miss_rate
/// can even evaluate (64 samples).
std::vector<core::BurnRateConfig> standard_serve_burn_rates();

/// The per-stream metric-label schema: every spec index gets the domain
/// {stream="<spec_index>"} over these bases.  ServeEngine::run
/// pre-registers all of them on the driving thread before the first
/// fan-out, so worker-thread lookups never mutate the registry.
metrics::MetricDomain stream_metric_domain(std::size_t spec_index);

/// The documented per-stream seed split (DESIGN.md invariant 16): stream
/// `spec_index` derives its scenario and sensor-noise streams from the
/// engine seed via a fixed golden-ratio stride plus per-purpose salts —
/// collision-free across streams and reproducible outside the engine, so
/// any stream can be re-run solo through sim/runner from its spec alone
/// (the parity pin in tests/test_serve.cpp).
std::uint64_t stream_scenario_seed(std::uint64_t engine_seed,
                                   std::size_t spec_index);
std::uint64_t stream_noise_seed(std::uint64_t engine_seed,
                                std::size_t spec_index);

class ServeEngine {
 public:
  /// Materializes the shared compacted ladder once.  `inputs.net` must
  /// outlive the engine; its weights are snapshotted, not retained.
  ServeEngine(const ServeInputs& inputs, ServeConfig config);
  ~ServeEngine();  // out of line: ActiveStream is complete only in the .cpp

  /// Serves every spec to completion (or shedding) and returns the full
  /// report.  Callable repeatedly: each run resets the serve.* metrics
  /// and the overload state, so the report is a pure function of
  /// (specs, config, seed) — replaying the same schedule reproduces the
  /// identical event trace and aggregates.
  ServeReport run(const std::vector<StreamSpec>& specs);

  /// Streams currently admitted and not yet retired (0 after run()).
  int active_stream_count() const { return static_cast<int>(active_.size()); }
  core::CompactedLadderProvider& shared_provider() { return *shared_; }
  const ServeConfig& config() const { return config_; }

 private:
  struct ActiveStream;

  std::unique_ptr<ActiveStream> admit_stream(const StreamSpec& spec,
                                             std::size_t spec_index,
                                             std::int64_t tick);
  void retire_stream(std::size_t active_index, std::int64_t shed_tick,
                     std::vector<StreamResult>& results);

  ServeConfig config_;
  core::SafetyConfig certified_;
  std::unique_ptr<core::CompactedLadderProvider> shared_;
  std::vector<std::unique_ptr<ActiveStream>> active_;
};

/// Human-readable report (the `rrp_cli serve` output).
void write_serve_report(const ServeReport& report, std::ostream& out);

/// Machine-readable report (`rrp_cli serve --report-json`): the same
/// content as the text report, schema-versioned, deterministically
/// formatted (sorted keys, fixed precision).
void write_serve_report_json(const ServeReport& report, std::ostream& out);

/// One level's row of the measured inference profile.
struct WallLevelStat {
  int level = 0;
  std::int64_t count = 0;  ///< frames executed at `level`
  double total_us = 0.0;   ///< summed measured infer wall time
  double max_us = 0.0;
};

/// Folds every stream's RunResult::wall frames (ServeConfig::measure_wall)
/// into `profile`: one row per executed level, ascending.  Rows already
/// in `profile` accumulate, so a sweep folds run after run.  Counts are
/// deterministic; the microseconds are measured and never gated.
void fold_wall_profile(const ServeReport& report,
                       std::vector<WallLevelStat>& profile);

/// The `--wall` table of `rrp_cli serve` and `bench_serve`: one
/// infer.L<k> row per level with count, total_ms, mean_us, max_us.
void write_wall_profile(const std::vector<WallLevelStat>& profile,
                        std::ostream& out);

}  // namespace rrp::serve
