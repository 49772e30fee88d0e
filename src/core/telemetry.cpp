#include "core/telemetry.h"

#include <algorithm>
#include <ostream>

#include "util/csv.h"
#include "util/stats.h"

namespace rrp::core {

// rrp-frame-path: one record per frame; FrameEngine::make_stream reserves
// the scenario's length, so the append never reallocates.
void Telemetry::add(const FrameRecord& record) {
  // rrp-lint-allow(frame-path-alloc): below the capacity make_stream reserved; a caller that did not reserve is a host-side collector off the frame path.
  records_.push_back(record);
}

RunSummary Telemetry::summarize() const {
  RunSummary s;
  s.frames = static_cast<std::int64_t>(records_.size());
  if (records_.empty()) return s;

  std::int64_t correct = 0, crit_frames = 0, crit_correct = 0;
  std::int64_t deadline_miss = 0, switches = 0;
  double level_sum = 0.0;
  std::vector<double> latencies;
  latencies.reserve(records_.size());
  RunningStats switch_stats;

  int prev_level = records_.front().executed_level;
  bool first = true;
  for (const FrameRecord& r : records_) {
    correct += r.correct;
    const bool critical = r.criticality >= CriticalityClass::High;
    if (critical) {
      ++crit_frames;
      crit_correct += r.correct;
    }
    // A level switch consumes frame time too: the transition cost counts
    // against the same deadline the inference must meet.
    const double frame_time_ms = r.latency_ms + r.switch_us * 1e-3;
    if (frame_time_ms > r.deadline_ms) ++deadline_miss;
    s.total_energy_mj += r.energy_mj;
    level_sum += r.executed_level;
    latencies.push_back(r.latency_ms);
    if (!first && r.executed_level != prev_level) ++switches;
    if (r.switch_us > 0.0) {
      switch_stats.add(r.switch_us);
      s.max_switch_us = std::max(s.max_switch_us, r.switch_us);
    }
    s.safety_violations += r.violation;
    s.true_safety_violations += r.true_violation;
    s.vetoes += r.veto;
    prev_level = r.executed_level;
    first = false;
  }

  const double n = static_cast<double>(records_.size());
  s.accuracy = static_cast<double>(correct) / n;
  s.critical_frames = crit_frames;
  s.critical_accuracy =
      crit_frames > 0 ? static_cast<double>(crit_correct) / crit_frames : 1.0;
  s.missed_critical_rate = 1.0 - s.critical_accuracy;
  s.deadline_miss_rate = static_cast<double>(deadline_miss) / n;
  s.mean_energy_mj = s.total_energy_mj / n;
  s.mean_latency_ms = mean(latencies);
  s.p99_latency_ms = quantile(latencies, 0.99);
  s.mean_level = level_sum / n;
  s.level_switches = switches;
  s.mean_switch_us = switch_stats.mean();
  return s;
}

void Telemetry::write_csv(std::ostream& out) const {
  CsvWriter w(out);
  w.header({"frame", "criticality", "requested_level", "executed_level",
            "latency_ms", "energy_mj", "switch_us", "deadline_ms", "correct",
            "veto", "violation", "true_violation"});
  for (const FrameRecord& r : records_) {
    w.row({std::to_string(r.frame), criticality_name(r.criticality),
           std::to_string(r.requested_level), std::to_string(r.executed_level),
           CsvWriter::num(r.latency_ms, 4), CsvWriter::num(r.energy_mj, 4),
           CsvWriter::num(r.switch_us, 2), CsvWriter::num(r.deadline_ms, 2),
           r.correct ? "1" : "0", r.veto ? "1" : "0",
           r.violation ? "1" : "0", r.true_violation ? "1" : "0"});
  }
}

}  // namespace rrp::core
