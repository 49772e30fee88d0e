#include "util/metrics.h"

#include <algorithm>

#include "util/checks.h"
#include "util/thread_pool.h"

namespace rrp::metrics {

void Gauge::set(double v) {
  // A last-write-wins double is only deterministic when the writes are
  // ordered; drop writes from inside parallel regions so a fanned-out
  // run records exactly what the serial run records.
  if (ThreadPool::in_parallel_region()) return;
  v_ = v;
}

namespace {

// Live threads holding each stripe.
std::atomic<int> g_stripe_holders[kStripes];

// Gives the thread's stripe back when the thread exits, so threads that
// come and go (pool resizes) do not pile onto the stripes of the ones
// that stay.
struct StripeLease {
  int stripe = -1;
  ~StripeLease() {
    if (stripe >= 0)
      g_stripe_holders[stripe].fetch_sub(1, std::memory_order_relaxed);
  }
};
thread_local StripeLease t_lease;

// Sums as uint64 so a total past INT64_MAX wraps (two's complement)
// instead of overflowing a signed sum.
std::int64_t sum_stripes(const detail::Line* lines, std::size_t stride,
                         std::size_t i) {
  std::uint64_t n = 0;
  for (int s = 0; s < kStripes; ++s)
    n += static_cast<std::uint64_t>(
        lines[s * stride + i / 8].v[i % 8].load(std::memory_order_relaxed));
  return static_cast<std::int64_t>(n);
}

void clear_lines(detail::Line* lines, std::size_t n) {
  for (std::size_t l = 0; l < n; ++l)
    for (auto& v : lines[l].v) v.store(0, std::memory_order_relaxed);
}

}  // namespace

int detail::next_stripe() {
  // The least-held stripe.  Two threads racing here may pick the same
  // one; they then share it, which costs speed, never an add.
  int best = 0;
  for (int s = 1; s < kStripes; ++s)
    if (g_stripe_holders[s].load(std::memory_order_relaxed) <
        g_stripe_holders[best].load(std::memory_order_relaxed))
      best = s;
  g_stripe_holders[best].fetch_add(1, std::memory_order_relaxed);
  t_lease.stripe = best;
  return best;
}

std::int64_t Counter::value() const { return sum_stripes(cells_, 1, 0); }

void Counter::reset() { clear_lines(cells_, kStripes); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      row_lines_(bounds_.size() / 8 + 1),
      lines_(new detail::Line[kStripes * row_lines_]) {
  RRP_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bound");
  for (std::size_t i = 1; i < bounds_.size(); ++i)
    RRP_CHECK_MSG(bounds_[i - 1] < bounds_[i],
                  "histogram bounds must be strictly increasing");
}

void Histogram::observe(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const std::size_t bucket =
      static_cast<std::size_t>(it - bounds_.begin());  // == size() -> overflow
  lines_[detail::stripe() * row_lines_ + bucket / 8]
      .v[bucket % 8]
      .fetch_add(1, std::memory_order_relaxed);
}

std::int64_t Histogram::bucket_count(std::size_t i) const {
  RRP_CHECK(i <= bounds_.size());
  return sum_stripes(lines_.get(), row_lines_, i);
}

std::int64_t Histogram::total() const {
  std::uint64_t n = 0;
  for (std::size_t i = 0; i <= bounds_.size(); ++i)
    n += static_cast<std::uint64_t>(bucket_count(i));
  return static_cast<std::int64_t>(n);
}

void Histogram::reset() { clear_lines(lines_.get(), kStripes * row_lines_); }

Registry& Registry::instance() {
  static Registry r;
  return r;
}

Registry::Registry() {
  // Built-in schema: every name the instrumented hot paths touch, so
  // worker-thread lookups never have to mutate the maps.  Keep sorted.
  static const char* const kCounters[] = {
      "bn.calibrations",        "bn.state_swaps",
      "controller.level_switch", "controller.steps",
      "controller.vetoes",      "conv.calls",
      "depthwise.calls",        "depthwise.flops",
      "faults.injected",        "gemm.calls",
      "gemm.flops",             "integrity.findings",
      "integrity.heal_bytes",   "integrity.heal_elems",
      "integrity.scrub_elems",  "integrity.scrubs",
      "pool.chunks",            "pool.jobs",
      "prune.bytes_touched",    "prune.elements_touched",
      "prune.ladder_rebuilds",  "prune.ladder_swaps",
      "prune.restores",         "prune.transitions",
      "runner.deadline_misses", "runner.frames",
      "serve.admitted",         "serve.deadline_misses",
      "serve.degraded",         "serve.frames",
      "serve.rejected",         "serve.restored",
      "serve.shed",             "serve.ticks",
  };
  for (const char* name : kCounters)
    counters_.emplace(name, std::make_unique<Counter>());
  gauges_.emplace("runner.energy_budget_frac", std::make_unique<Gauge>());
  gauges_.emplace("serve.admission.floor", std::make_unique<Gauge>());
  gauges_.emplace("serve.admission.window_miss_ratio",
                  std::make_unique<Gauge>());
  histograms_.emplace(
      "prune.switch_us",
      std::make_unique<Histogram>(std::vector<double>{
          10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 20000.0}));
  histograms_.emplace(
      "runner.frame_ms",
      std::make_unique<Histogram>(std::vector<double>{
          2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0}));
  histograms_.emplace(
      "serve.frame_ms",
      std::make_unique<Histogram>(std::vector<double>{
          2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0, 20.0, 30.0, 50.0}));
  histograms_.emplace(
      "integrity.detect_latency_frames",
      std::make_unique<Histogram>(std::vector<double>{
          1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0}));
}

Counter& Registry::counter(std::string_view name) {
  const auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  RRP_CHECK_MSG(!ThreadPool::in_parallel_region(),
                "new metric '" << name
                               << "' registered inside a parallel region; "
                                  "pre-register it in the Registry schema");
  return *counters_.emplace(std::string(name), std::make_unique<Counter>())
              .first->second;
}

Gauge& Registry::gauge(std::string_view name) {
  const auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  RRP_CHECK_MSG(!ThreadPool::in_parallel_region(),
                "new metric '" << name
                               << "' registered inside a parallel region; "
                                  "pre-register it in the Registry schema");
  return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
              .first->second;
}

Histogram& Registry::histogram(std::string_view name) {
  const auto it = histograms_.find(name);
  RRP_CHECK_MSG(it != histograms_.end(),
                "histogram '" << name << "' is not registered (bounds are "
                                         "required at first registration)");
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    RRP_CHECK_MSG(it->second->bounds() == bounds,
                  "histogram '" << name << "' re-registered with different "
                                           "bounds");
    return *it->second;
  }
  RRP_CHECK_MSG(!ThreadPool::in_parallel_region(),
                "new metric '" << name
                               << "' registered inside a parallel region; "
                                  "pre-register it in the Registry schema");
  return *histograms_
              .emplace(std::string(name),
                       std::make_unique<Histogram>(std::move(bounds)))
              .first->second;
}

void Registry::reset() {
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
Histogram& histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}
void reset_all() { Registry::instance().reset(); }

void reset_prefix(const std::string& prefix) {
  Registry& reg = Registry::instance();
  for (auto& [name, c] : reg.counters())
    if (name.rfind(prefix, 0) == 0) c->reset();
  for (auto& [name, g] : reg.gauges())
    if (name.rfind(prefix, 0) == 0) g->reset();
  for (auto& [name, h] : reg.histograms())
    if (name.rfind(prefix, 0) == 0) h->reset();
}

std::string escape_label_value(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

namespace {

bool label_key_ok(const std::string& k) {
  if (k.empty()) return false;
  const auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (!alpha(k[0])) return false;
  for (char c : k)
    if (!alpha(c) && !digit(c)) return false;
  return true;
}

}  // namespace

MetricDomain::MetricDomain(std::vector<Label> labels)
    : labels_(std::move(labels)) {
  std::sort(labels_.begin(), labels_.end());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    RRP_CHECK_MSG(label_key_ok(labels_[i].first),
                  "metric label key '" << labels_[i].first
                                       << "' must match "
                                          "[a-zA-Z_][a-zA-Z0-9_]*");
    if (i > 0)
      RRP_CHECK_MSG(labels_[i - 1].first != labels_[i].first,
                    "duplicate metric label key '" << labels_[i].first << "'");
  }
  if (!labels_.empty()) {
    // Append to the empty member rather than assign a literal: GCC 12's
    // -Wrestrict misfires on the inlined literal assignment at -O3.
    suffix_ += '{';
    for (std::size_t i = 0; i < labels_.size(); ++i) {
      if (i > 0) suffix_ += ',';
      suffix_ += labels_[i].first;
      suffix_ += "=\"";
      suffix_ += escape_label_value(labels_[i].second);
      suffix_ += '"';
    }
    suffix_ += '}';
  }
}

Counter& MetricDomain::counter(const std::string& base) const {
  return Registry::instance().counter(labeled_name(base));
}
Gauge& MetricDomain::gauge(const std::string& base) const {
  return Registry::instance().gauge(labeled_name(base));
}
Histogram& MetricDomain::histogram(const std::string& base) const {
  return Registry::instance().histogram(labeled_name(base));
}
Histogram& MetricDomain::histogram(const std::string& base,
                                   std::vector<double> bounds) const {
  return Registry::instance().histogram(labeled_name(base), std::move(bounds));
}

}  // namespace rrp::metrics
