// admission.h — SLO-driven admission control and load shedding.
//
// The serving engine (serve_engine.h) runs many streams against one shared
// ladder; this file is the pure decision layer above them.  Two concerns:
//
//   * Admission — a stream arriving at a tick is admitted iff the active
//     set is below capacity; otherwise it is rejected.  A pure capacity
//     predicate, decided on the driving thread in arrival order.
//
//   * Overload — a windowed deadline-miss ratio over recent ticks (plus
//     any online SLO breach) drives a three-state escalation ladder:
//
//         Normal --miss ratio >= degrade--> Degraded (raise level floor)
//         Degraded --ratio >= shed, floor at max--> shed one stream
//         Degraded --sustained health--> lower the floor (Restore)
//
//     Raising the level floor deepens every active stream's prune level
//     (cheaper frames, lower fleet demand) BEFORE any stream is dropped;
//     shedding is the last resort.  Each action is followed by a cooldown
//     so its effect lands in the window before the next escalation.
//
// Everything here is a pure function of the call sequence — no clocks, no
// RNG, no global state — so replaying the same arrival schedule and tick
// outcomes yields the identical event trace (property-tested in
// tests/test_serve.cpp, DESIGN.md invariant 16).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace rrp::serve {

/// Every action the engine can take on a stream or the fleet.
enum class ServeAction : int {
  Admit = 0,    ///< stream accepted into the active set
  Reject = 1,   ///< stream refused: active set at capacity
  Degrade = 2,  ///< fleet level floor raised one step
  Restore = 3,  ///< fleet level floor lowered one step
  Shed = 4,     ///< lowest-priority stream dropped
};

const char* serve_action_name(ServeAction a);

/// One entry of the engine's decision trace, in decision order.
struct AdmissionEvent {
  std::int64_t tick = 0;
  std::string stream;  ///< stream name; "fleet" for Degrade/Restore
  ServeAction action = ServeAction::Admit;
  std::string detail;

  bool operator==(const AdmissionEvent& o) const {
    return tick == o.tick && stream == o.stream && action == o.action &&
           detail == o.detail;
  }
};

struct AdmissionConfig {
  int max_streams = 8;  ///< admission capacity of the active set
  /// Windowed deadline-miss ratio at which the floor is raised.
  double degrade_miss_ratio = 0.25;
  /// Ratio at which, with the floor already at max, a stream is shed.
  double shed_miss_ratio = 0.5;
  /// Ratio at or below which a tick counts toward the healthy streak.
  double restore_miss_ratio = 0.05;
  int window_ticks = 16;           ///< miss-ratio window length
  int restore_healthy_ticks = 32;  ///< healthy streak required to restore
  /// Ticks to wait after any Degrade/Restore/Shed before acting again,
  /// so the action's effect is visible in the window first.
  int cooldown_ticks = 16;
  /// Deepest level floor Degrade may reach (the engine sets this to the
  /// ladder's deepest level).
  int max_floor = 0;
};

/// The per-tick overload decision (at most one action per tick).
enum class OverloadDecision : int { None = 0, Degrade, Restore, Shed };

/// Deterministic overload state machine.  Feed one update() per tick with
/// that tick's aggregate frame/miss counts; read the current level floor
/// after each update.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig config);

  const AdmissionConfig& config() const { return config_; }

  /// Capacity predicate for one arriving stream.
  // rrp-frame-path: pure admission decision (no alloc/lock/IO).
  bool admit(int active_streams) const {
    return active_streams < config_.max_streams;
  }

  /// Feeds one tick's outcome and returns this tick's overload action.
  /// `slo_breach` is the post-hoc signal (a latched SLO fired this tick);
  /// `burn_alert` is the leading one (multi-window error-budget burn,
  /// core::BurnRateTracker) — both count as overload pressure, so a
  /// burning fleet degrades BEFORE the SLO itself is breached.
  OverloadDecision update(std::int64_t frames, std::int64_t misses,
                          bool slo_breach, bool burn_alert = false);

  int level_floor() const { return floor_; }
  /// Miss ratio over the current window (0 when the window is empty).
  double window_miss_ratio() const;

  void reset();

 private:
  AdmissionConfig config_;
  /// Per-tick (frames, misses) ring of the last window_ticks ticks.
  std::vector<std::pair<std::int64_t, std::int64_t>> window_;
  std::size_t window_next_ = 0;
  int floor_ = 0;
  int healthy_ticks_ = 0;
  int cooldown_ = 0;
};

// Note on observability: update() also publishes the fleet gauges
// serve.admission.floor and serve.admission.window_miss_ratio (the
// decision is still a pure function of the call sequence; the gauges are
// a read-only mirror for the snapshot exporter, written on the driving
// thread like every gauge).

}  // namespace rrp::serve
