// workloads.h — the three benchmark workloads and their traced variants.
//
// Each workload is a closed loop over rrp's public entry points, built
// from the workload seed alone.  An untraced run reports the end-to-end
// metrics; a traced run (Options::trace) reports the per-layer breakdown
// instead.  See perfbench/README.md for the metric map.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string cache_dir = "cache";
  std::string spans_path;  ///< traced run: where the span CSV is written
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::int64_t attempted = 0;  ///< frames requested
  std::int64_t failed = 0;     ///< not served, or in a run whose check failed
  std::vector<Metric> metrics; ///< the metrics the result line reports
  std::vector<Metric> info;    ///< printed for people only (sample counts…)
  std::vector<std::string> errors;
};

/// Runs one workload; throws rrp::Error / std::exception on misuse.
Result run_workload(const Options& options);

/// Trains (first time) or loads every model the workloads use, so no
/// training ever lands inside a timed run.
void provision_models(const std::string& cache_dir);

}  // namespace perfbench
