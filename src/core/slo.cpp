#include "core/slo.h"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "util/checks.h"

namespace rrp::core {

const char* slo_kind_name(SloKind k) {
  switch (k) {
    case SloKind::RatioMax: return "ratio_max";
    case SloKind::HistogramQuantileMax: return "histogram_quantile_max";
  }
  return "?";
}

namespace {

constexpr double kOverflowBucket = std::numeric_limits<double>::infinity();

// rrp-frame-path-stop: an SLO fired — the frame is already off-nominal,
// and the incident text is its evidence.
Incident fired_incident(std::int64_t frame, const SloSpec& s, double observed,
                        std::int64_t num, std::int64_t den,
                        std::int64_t samples) {
  std::ostringstream detail;
  switch (s.kind) {
    case SloKind::RatioMax:
      detail << s.numerator << "/" << s.denominator << " = " << num << "/"
             << den;
      break;
    case SloKind::HistogramQuantileMax:
      detail << "p" << static_cast<int>(s.quantile * 100.0) << "("
             << s.histogram << ") over " << samples << " samples";
      break;
  }
  Incident inc;
  inc.frame = frame;
  inc.slo_id = s.id;
  inc.observed = observed;
  inc.threshold = s.threshold;
  inc.detail = detail.str();
  return inc;
}

}  // namespace

double histogram_quantile(const metrics::Histogram& h, double q) {
  RRP_CHECK_MSG(q >= 0.0 && q <= 1.0, "quantile must be in [0, 1]");
  const std::int64_t total = h.total();
  if (total == 0) return 0.0;
  // Smallest rank that covers the q-fraction; rank total at q == 1.
  const std::int64_t rank =
      std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                    q * static_cast<double>(total) + 0.999999));
  std::int64_t cum = 0;
  for (std::size_t i = 0; i < h.bounds().size(); ++i) {
    cum += h.bucket_count(i);
    if (cum >= rank) return h.bounds()[i];
  }
  return kOverflowBucket;
}

SloMonitor::SloMonitor(std::vector<SloSpec> specs)
    : specs_(std::move(specs)), fired_(specs_.size(), false) {
  for (const SloSpec& s : specs_)
    RRP_CHECK_MSG(!s.id.empty(), "SloSpec needs a non-empty id");
}

void SloMonitor::push(Incident incident) {
  if (incidents_.size() >= kMaxIncidents) {
    ++dropped_;
    return;
  }
  // rrp-lint-allow(frame-path-alloc): incident path only — an SLO fired or a safety event (violation, degrade, detection) was noted; the log is capped at kMaxIncidents.
  incidents_.push_back(std::move(incident));
}

// rrp-frame-path: the solo runner's per-frame SLO check.  A spec that
// holds reads its counters and allocates nothing; the incident text is
// built only when one fires.
void SloMonitor::evaluate(std::int64_t frame) {
  metrics::Registry& reg = metrics::Registry::instance();
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (fired_[i]) continue;
    const SloSpec& s = specs_[i];
    double observed = 0.0;
    std::int64_t num = 0, den = 0, samples = 0;
    switch (s.kind) {
      case SloKind::RatioMax: {
        den = reg.counter(s.denominator).value();
        if (den < s.min_samples) continue;
        num = reg.counter(s.numerator).value();
        observed = static_cast<double>(num) / static_cast<double>(den);
        break;
      }
      case SloKind::HistogramQuantileMax: {
        const metrics::Histogram& h = reg.histogram(s.histogram);
        samples = h.total();
        if (samples < s.min_samples) continue;
        observed = histogram_quantile(h, s.quantile);
        break;
      }
    }
    if (observed > s.threshold) {
      fired_[i] = true;
      push(fired_incident(frame, s, observed, num, den, samples));
    }
  }
}


void SloMonitor::note_event(std::int64_t frame, const std::string& id,
                            double observed, const std::string& detail) {
  Incident inc;
  inc.frame = frame;
  inc.slo_id = id;
  inc.observed = observed;
  inc.threshold = 0.0;
  inc.detail = detail;
  push(std::move(inc));
}

void SloMonitor::clear() {
  fired_.assign(specs_.size(), false);
  incidents_.clear();
  dropped_ = 0;
}

std::vector<SloSpec> standard_slos() {
  std::vector<SloSpec> v;
  {
    SloSpec s;
    s.id = "slo.deadline_miss_rate";
    s.kind = SloKind::RatioMax;
    s.numerator = "runner.deadline_misses";
    s.denominator = "runner.frames";
    s.threshold = 0.05;
    s.min_samples = 50;
    v.push_back(s);
  }
  {
    SloSpec s;
    s.id = "slo.recovery_latency_p99_us";
    s.kind = SloKind::HistogramQuantileMax;
    s.histogram = "prune.switch_us";
    s.quantile = 0.99;
    s.threshold = 20000.0;
    s.min_samples = 5;
    v.push_back(s);
  }
  {
    SloSpec s;
    s.id = "slo.scrub_detect_latency_p99_frames";
    s.kind = SloKind::HistogramQuantileMax;
    s.histogram = "integrity.detect_latency_frames";
    s.quantile = 0.99;
    s.threshold = 50.0;
    s.min_samples = 1;
    v.push_back(s);
  }
  return v;
}

BurnRateTracker::BurnRateTracker(BurnRateConfig cfg) : cfg_(std::move(cfg)) {
  RRP_CHECK_MSG(!cfg_.id.empty(), "BurnRateConfig needs a non-empty id");
  RRP_CHECK_MSG(cfg_.budget > 0.0, "error budget must be positive");
  RRP_CHECK_MSG(cfg_.fast_window >= 1 && cfg_.slow_window >= cfg_.fast_window,
                "windows must satisfy 1 <= fast_window <= slow_window");
  window_.reserve(static_cast<std::size_t>(cfg_.slow_window));
}

// rrp-frame-path-stop: the serve fold's per-tick burn-rate window, on the
// driving thread between fan-outs; reached by the analyzer only through
// receiver-blind matching of PerceptionCriticality::update.
const BurnRateState& BurnRateTracker::update(std::int64_t tick,
                                             std::int64_t num_total,
                                             std::int64_t den_total) {
  window_.emplace_back(num_total - last_num_, den_total - last_den_);
  last_num_ = num_total;
  last_den_ = den_total;
  if (window_.size() > static_cast<std::size_t>(cfg_.slow_window))
    window_.erase(window_.begin());

  const auto window_burn = [this](std::size_t ticks, std::int64_t* samples) {
    std::int64_t num = 0, den = 0;
    const std::size_t n = std::min(ticks, window_.size());
    for (std::size_t i = window_.size() - n; i < window_.size(); ++i) {
      num += window_[i].first;
      den += window_[i].second;
    }
    if (samples) *samples = den;
    if (den <= 0) return 0.0;
    return static_cast<double>(num) / static_cast<double>(den) / cfg_.budget;
  };

  std::int64_t fast_samples = 0;
  state_.fast_burn =
      window_burn(static_cast<std::size_t>(cfg_.fast_window), &fast_samples);
  state_.slow_burn =
      window_burn(static_cast<std::size_t>(cfg_.slow_window), nullptr);
  state_.alerting = fast_samples >= cfg_.min_samples &&
                    state_.fast_burn > cfg_.fast_burn_threshold &&
                    state_.slow_burn > cfg_.slow_burn_threshold;
  if (state_.alerting && !state_.latched) {
    state_.latched = true;
    state_.alert_tick = tick;
  }
  return state_;
}

void BurnRateTracker::reset() {
  state_ = BurnRateState{};
  last_num_ = 0;
  last_den_ = 0;
  window_.clear();
}

}  // namespace rrp::core
