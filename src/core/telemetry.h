// telemetry.h — per-frame records and run-level metrics.
//
// Every closed-loop experiment produces one Telemetry object; the
// RunSummary it aggregates contains exactly the columns of table R-T2
// (missed-critical-detection rate, deadline misses, energy, accuracy).
#pragma once

#include <iosfwd>

#include "core/safety_monitor.h"

namespace rrp::core {

/// One frame of the closed loop.
struct FrameRecord {
  std::int64_t frame = 0;
  CriticalityClass criticality = CriticalityClass::Low;
  int requested_level = 0;
  int executed_level = 0;
  double latency_ms = 0.0;   ///< modeled (or measured) inference latency
  double energy_mj = 0.0;    ///< modeled inference energy
  double switch_us = 0.0;    ///< level-transition cost paid this frame
  double deadline_ms = 0.0;
  bool correct = false;      ///< perception output matched ground truth
  bool veto = false;
  bool violation = false;       ///< above the cap for the SENSED criticality
  bool true_violation = false;  ///< above the cap for the TRUE criticality
};

/// Aggregated run metrics.
struct RunSummary {
  std::int64_t frames = 0;
  double accuracy = 0.0;              ///< fraction correct, all frames
  double critical_accuracy = 0.0;     ///< accuracy on crit >= High frames
  double missed_critical_rate = 0.0;  ///< 1 - critical_accuracy
  std::int64_t critical_frames = 0;
  double deadline_miss_rate = 0.0;    ///< latency+switch > deadline
  double total_energy_mj = 0.0;
  double mean_energy_mj = 0.0;
  double mean_latency_ms = 0.0;
  double p99_latency_ms = 0.0;
  double mean_level = 0.0;
  std::int64_t level_switches = 0;
  std::int64_t safety_violations = 0;       ///< sensed basis
  std::int64_t true_safety_violations = 0;  ///< ground-truth basis
  std::int64_t vetoes = 0;
  double mean_switch_us = 0.0;        ///< over frames with a switch
  double max_switch_us = 0.0;
};

class Telemetry {
 public:
  void add(const FrameRecord& record);
  /// Sizes the record store for `frames` adds, so they never reallocate.
  void reserve(std::size_t frames) { records_.reserve(frames); }
  std::size_t size() const { return records_.size(); }
  const std::vector<FrameRecord>& records() const { return records_; }

  RunSummary summarize() const;

  /// Emits one CSV row per frame (with header).
  void write_csv(std::ostream& out) const;

  void clear() { records_.clear(); }

 private:
  std::vector<FrameRecord> records_;
};

}  // namespace rrp::core
