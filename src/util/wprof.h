// wprof.h — wall-clock sampling profiler (the MEASURED channel).
//
// Everything else in the observability stack (trace spans, metrics,
// telemetry) is *modeled* time and byte-deterministic; wprof is the one
// sanctioned place where measured wall time is aggregated, exactly like
// `bench_micro --wall`:
//
//   * disabled by default — add_sample() is a no-op until set_enabled(true)
//     (rrp_cli serve --wall / bench_serve --wall flip it);
//   * output never feeds telemetry, trace, metrics or any gate — it is
//     rendered only into the wall channel (console table, wall_metrics);
//   * keys are free-form spans ("infer.L2", "stream.cam_front"), so the
//     serve path gets per-kernel and per-level breakdowns for free.
//
// Aggregation is mutex-guarded (NOT deterministic, by design: measured
// time never is) and the map is keyed by std::string in a std::map, so
// stats() render in sorted key order — stable layout over unstable
// numbers.  wprof must never be called from an // rrp-frame-path root
// (the mutex would trip lint R6); the serve tick fold and the frame
// engine's measure_wall block are the intended call sites.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/timer.h"

namespace rrp::wprof {

/// Global enable switch; add_sample() is a no-op while disabled.
bool enabled();
void set_enabled(bool on);

/// Adds one measured sample (microseconds) under `key`.  Thread-safe;
/// no-op while disabled.
void add_sample(const std::string& key, double us);

/// Aggregated view of one key.
struct Stat {
  std::string key;
  std::int64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
  double mean_us() const { return count > 0 ? total_us / count : 0.0; }
};

/// All stats in sorted key order (empty while nothing was recorded).
std::vector<Stat> stats();

/// "key,count,total_us,mean_us,max_us" CSV of stats().
std::string csv_string();

/// Drops every aggregate (the enable switch is left as-is).
void reset();

/// RAII sample: measures construction->destruction wall time (through
/// the rrp::Timer facade — wprof itself never reads a clock directly)
/// and records it under `key`.  A sample is only recorded when the
/// profiler was enabled at construction AND is still enabled at
/// destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(std::string key);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  std::string key_;
  Timer timer_;
  bool armed_ = false;  // enabled() at construction
};

}  // namespace rrp::wprof
