// metrics.h — process-wide metrics registry (DESIGN.md §8).
//
// Three primitive kinds, each chosen so that every value is byte-exact
// across RRP_THREADS (the registry is a regression oracle, like the rest
// of the observability layer):
//
//   * Counter   — monotonically added int64, striped per thread (below).
//                 Safe to add from ANY thread, including pool chunk
//                 bodies: integer addition is commutative, so the total is
//                 independent of scheduling.
//   * Gauge     — last-written double.  Writes are silently dropped
//                 inside pool parallel regions (a racing "last write"
//                 would be schedule-dependent); set it from the driving
//                 thread only.
//   * Histogram — fixed upper-bound buckets with int64 counts, one bucket
//                 row per stripe.  Safe from any thread for the same
//                 reason as Counter.
//
// Stripes: a counter (and each histogram bucket) is kStripes atomic
// cells, one 64-byte line apiece, so pool workers adding to the same
// metric on the frame path never write the same cache line.  A thread
// picks its stripe once, on its first add (the one fewest live threads
// hold); threads beyond kStripes share one, which stays exact because
// every add is an atomic fetch_add.  Reads sum the stripes as uint64, so
// a sum wraps like the single two's-complement counter it replaces
// (DESIGN.md §8).
//
// Registration discipline: every hot-path metric name is pre-registered
// by the Registry constructor, so lookups from worker threads never
// mutate the name map.  Creating a NEW name (tests, ad-hoc tooling) is
// only legal outside parallel regions (checked).  Call sites cache the
// reference:
//
//   static metrics::Counter& c = metrics::counter("gemm.flops");
//   c.add(2 * m * n * k);
//
// Snapshots / CSV / JSON export live one layer up in core/metrics.h.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rrp::metrics {

/// Cells per metric; a thread adds to cell stripe() of each.
inline constexpr int kStripes = 8;

namespace detail {

/// The calling thread's stripe, -1 until its first add.
inline constinit thread_local int t_stripe = -1;

/// Hands the calling thread the stripe fewest live threads hold, and
/// takes it back when the thread exits (metrics.cpp).
int next_stripe();

inline int stripe() {
  int s = t_stripe;
  if (s < 0) [[unlikely]] s = t_stripe = next_stripe();
  return s;
}

/// One cache line of counts.
struct alignas(64) Line {
  std::atomic<std::int64_t> v[8] = {};
};

}  // namespace detail

class Counter {
 public:
  void add(std::int64_t delta = 1) {
    cells_[detail::stripe()].v[0].fetch_add(delta, std::memory_order_relaxed);
  }
  /// The sum of every stripe.
  std::int64_t value() const;
  void reset();

 private:
  detail::Line cells_[kStripes];
};

class Gauge {
 public:
  /// No-op when called inside a pool parallel region (see header).
  void set(double v);
  double value() const { return v_; }
  void reset() { v_ = 0.0; }

 private:
  double v_ = 0.0;
};

class Histogram {
 public:
  /// `upper_bounds` must be strictly increasing; an implicit +inf
  /// overflow bucket is appended.
  explicit Histogram(std::vector<double> upper_bounds);

  /// Counts v into the first bucket with v <= bound (overflow otherwise).
  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// i in [0, bounds().size()]; the last index is the overflow bucket.
  std::int64_t bucket_count(std::size_t i) const;
  std::int64_t total() const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::size_t row_lines_;  // lines per stripe row (bounds + overflow)
  // kStripes rows of row_lines_ lines; bucket i of stripe s is
  // lines_[s * row_lines_ + i / 8].v[i % 8].
  std::unique_ptr<detail::Line[]> lines_;
};

/// Name -> metric map (std::map so iteration order is sorted == the
/// deterministic export order).  std::less<> makes lookups transparent:
/// a string_view finds a registered name without building a std::string.
template <class T>
using NameMap = std::map<std::string, std::unique_ptr<T>, std::less<>>;

class Registry {
 public:
  /// The process-wide registry, with the built-in schema pre-registered.
  static Registry& instance();

  /// Look up (or, outside parallel regions only, create) by name.  A
  /// lookup of an existing name allocates nothing.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Looks up an existing histogram (pre-registered or prior creation).
  Histogram& histogram(std::string_view name);
  /// Creates with explicit bounds, or returns the existing instance
  /// (bounds then must match what was registered).
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Zeroes every metric (counters, gauges, histogram buckets).
  void reset();

  const NameMap<Counter>& counters() const { return counters_; }
  const NameMap<Gauge>& gauges() const { return gauges_; }
  const NameMap<Histogram>& histograms() const { return histograms_; }

 private:
  Registry();  // pre-registers the built-in schema (metrics.cpp)

  NameMap<Counter> counters_;
  NameMap<Gauge> gauges_;
  NameMap<Histogram> histograms_;
};

/// Shorthands for Registry::instance().xxx(name).
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
Histogram& histogram(std::string_view name);

/// Zeroes every metric in the process-wide registry.
void reset_all();

/// Zeroes every metric whose name starts with `prefix` (labeled variants
/// included: "serve." also matches "serve.stream.frames{stream=\"0\"}").
void reset_prefix(const std::string& prefix);

/// Escapes a label VALUE for the {k="v"} grammar: backslash, double
/// quote and newline become \\ \" \n (the Prometheus escaping rules, so
/// the mangled registry key doubles as the exposition label string).
std::string escape_label_value(const std::string& v);

/// A (base name, labels) scope over the process-wide registry
/// (DESIGN.md §8: metric-label grammar).
///
/// `MetricDomain({{"stream", "3"}}).counter("serve.stream.frames")`
/// resolves to the registry entry `serve.stream.frames{stream="3"}`.
/// Label keys must match [a-zA-Z_][a-zA-Z0-9_]* and be unique; keys are
/// sorted and values escaped, so equal label SETS always mangle to the
/// same registry key (and therefore the same sorted export position).
///
/// The determinism contract is exactly the unlabeled one: the labeled
/// name is a plain registry key, so creation is only legal outside
/// parallel regions — pre-register every per-stream domain's metrics on
/// the driving thread (ServeEngine does this at the start of run())
/// before any worker thread looks them up.
class MetricDomain {
 public:
  using Label = std::pair<std::string, std::string>;

  /// The empty domain: labeled_name(base) == base (plain registry key).
  MetricDomain() = default;
  /// Validates keys, sorts by key, precomputes the {…} suffix.
  explicit MetricDomain(std::vector<Label> labels);

  const std::vector<Label>& labels() const { return labels_; }
  /// base -> base{k1="v1",k2="v2"} (empty domain: base unchanged).
  std::string labeled_name(const std::string& base) const {
    return base + suffix_;
  }

  Counter& counter(const std::string& base) const;
  Gauge& gauge(const std::string& base) const;
  Histogram& histogram(const std::string& base) const;
  Histogram& histogram(const std::string& base,
                       std::vector<double> bounds) const;

 private:
  std::vector<Label> labels_;  // sorted by key, keys unique
  std::string suffix_;         // "{k=\"v\",…}", or "" for the empty domain
};

}  // namespace rrp::metrics
