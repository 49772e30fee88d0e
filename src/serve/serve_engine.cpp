#include "serve/serve_engine.h"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "sim/scenario_gen.h"
#include "util/checks.h"
#include "util/csv.h"
#include "util/thread_pool.h"

namespace rrp::serve {
namespace {

// Per-stream seed split, campaign-style: a golden-ratio stride walks the
// engine seed per spec index, and fixed salts derive the independent
// sensor-noise and scenario streams from each base.
constexpr std::uint64_t kStreamSeedStride = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kNoiseSalt = 0x5DEECE66Dull;
constexpr std::uint64_t kScenarioSalt = 0xA5C152EDB7E15133ull;

std::string stream_name(const StreamSpec& spec, std::size_t index) {
  return spec.name.empty() ? "stream" + std::to_string(index) : spec.name;
}

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

const char* stream_final_state(const StreamResult& r) {
  if (r.admitted_tick < 0) return "rejected";
  if (r.shed_tick >= 0) return "shed";
  return "completed";
}

std::string json_string_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

std::uint64_t stream_base_seed(std::uint64_t engine_seed,
                               std::size_t spec_index) {
  return engine_seed +
         kStreamSeedStride * (static_cast<std::uint64_t>(spec_index) + 1);
}

}  // namespace

std::uint64_t stream_scenario_seed(std::uint64_t engine_seed,
                                   std::size_t spec_index) {
  return stream_base_seed(engine_seed, spec_index) ^ kScenarioSalt;
}

std::uint64_t stream_noise_seed(std::uint64_t engine_seed,
                                std::size_t spec_index) {
  return stream_base_seed(engine_seed, spec_index) ^ kNoiseSalt;
}

std::vector<core::BurnRateConfig> standard_serve_burn_rates() {
  std::vector<core::BurnRateConfig> v;
  core::BurnRateConfig c;
  c.id = "burn.serve_miss";
  c.numerator = "serve.deadline_misses";
  c.denominator = "serve.frames";
  c.budget = 0.10;
  c.fast_window = 8;
  c.slow_window = 32;
  c.fast_burn_threshold = 2.0;
  c.slow_burn_threshold = 1.0;
  c.min_samples = 8;
  v.push_back(std::move(c));
  return v;
}

metrics::MetricDomain stream_metric_domain(std::size_t spec_index) {
  return metrics::MetricDomain({{"stream", std::to_string(spec_index)}});
}

namespace {

// Per-stream metric bases under the {stream="<i>"} domain.  frame_ms
// shares the fleet histogram's bounds so the per-stream histograms merge
// bucket-for-bucket into serve.frame_ms (property-tested).
const std::vector<double>& stream_frame_ms_bounds() {
  static const std::vector<double> bounds{2.0,  4.0,  6.0,  8.0,  10.0,
                                          12.0, 16.0, 20.0, 30.0, 50.0};
  return bounds;
}

// Creates every labeled metric of one stream's domain (driving thread).
void preregister_stream_metrics(const metrics::MetricDomain& d) {
  d.counter("serve.stream.frames");
  d.counter("serve.stream.deadline_misses");
  d.counter("serve.stream.admitted");
  d.counter("serve.stream.rejected");
  d.counter("serve.stream.shed");
  d.gauge("serve.stream.level");
  d.histogram("serve.stream.frame_ms", stream_frame_ms_bounds());
}

}  // namespace

std::vector<core::SloSpec> standard_serve_slos() {
  std::vector<core::SloSpec> specs;
  {
    core::SloSpec s;
    s.id = "slo.serve_miss_rate";
    s.kind = core::SloKind::RatioMax;
    s.numerator = "serve.deadline_misses";
    s.denominator = "serve.frames";
    s.threshold = 0.10;
    s.min_samples = 64;
    specs.push_back(s);
  }
  {
    core::SloSpec s;
    s.id = "slo.serve_frame_p99";
    s.kind = core::SloKind::HistogramQuantileMax;
    s.histogram = "serve.frame_ms";
    s.quantile = 0.99;
    s.threshold = 30.0;
    s.min_samples = 64;
    specs.push_back(s);
  }
  return specs;
}

/// One admitted stream: its own view over the shared ladder, policy,
/// monitor, controller and loop state.  Heap-held so every internal
/// pointer (StreamState -> scenario/controller) stays stable while the
/// active set grows, shrinks and reorders around it.
struct ServeEngine::ActiveStream {
  StreamSpec spec;
  std::size_t spec_index = 0;
  std::string name;
  std::int64_t admitted_tick = 0;

  sim::Scenario scenario;
  std::unique_ptr<core::CompactedLadderView> view;
  std::unique_ptr<FloorPolicy> policy;
  std::unique_ptr<core::SafetyMonitor> monitor;
  std::unique_ptr<core::RuntimeController> controller;
  std::unique_ptr<sim::FrameEngine> engine;
  std::unique_ptr<sim::StreamState> state;

  // Labeled observability: the stream's metric domain plus handles
  // resolved at admission (driving thread — run() pre-registered the
  // names, so these are pure lookups) and the per-stream latency sketch.
  metrics::MetricDomain domain;
  metrics::Counter* miss_ctr = nullptr;
  metrics::Counter* shed_ctr = nullptr;
  metrics::Gauge* level_gauge = nullptr;
  metrics::Histogram* frame_hist = nullptr;
  std::unique_ptr<QuantileSketch> sketch;
};

ServeEngine::~ServeEngine() = default;

ServeEngine::ServeEngine(const ServeInputs& inputs, ServeConfig config)
    : config_(std::move(config)), certified_(inputs.certified) {
  RRP_CHECK_MSG(inputs.net != nullptr, "serve needs a network");
  RRP_CHECK_MSG(inputs.levels != nullptr, "serve needs a level library");
  shared_ = std::make_unique<core::CompactedLadderProvider>(
      *inputs.net, *inputs.levels, sim::input_shape(config_.vision),
      inputs.bn_states);
  if (config_.admission.max_floor <= 0)
    config_.admission.max_floor = shared_->level_count() - 1;
  RRP_CHECK_MSG(config_.admission.max_floor < shared_->level_count(),
                "degrade floor outside the ladder");
  if (config_.slos.empty()) config_.slos = standard_serve_slos();
  if (config_.burn_rates.empty())
    config_.burn_rates = standard_serve_burn_rates();
  RRP_CHECK_MSG(config_.snapshot_every_ticks >= 0,
                "snapshot_every_ticks must be >= 0");
}

std::unique_ptr<ServeEngine::ActiveStream> ServeEngine::admit_stream(
    const StreamSpec& spec, std::size_t spec_index, std::int64_t tick) {
  auto s = std::make_unique<ActiveStream>();
  s->spec = spec;
  s->spec_index = spec_index;
  s->name = stream_name(spec, spec_index);
  s->admitted_tick = tick;
  s->scenario = sim::make_suite_or_dsl(
      spec.scenario, spec.frames, stream_scenario_seed(config_.seed, spec_index));
  s->view = std::make_unique<core::CompactedLadderView>(*shared_);
  s->policy = std::make_unique<FloorPolicy>(core::make_policy(
      spec.policy, certified_, spec.hysteresis, shared_->level_count()));
  s->monitor = std::make_unique<core::SafetyMonitor>(certified_);
  s->controller = std::make_unique<core::RuntimeController>(
      *s->policy, *s->view, s->monitor.get());

  s->domain = stream_metric_domain(spec_index);
  s->miss_ctr = &s->domain.counter("serve.stream.deadline_misses");
  s->shed_ctr = &s->domain.counter("serve.stream.shed");
  s->level_gauge = &s->domain.gauge("serve.stream.level");
  s->frame_hist = &s->domain.histogram("serve.stream.frame_ms");
  s->sketch = std::make_unique<QuantileSketch>(
      QuantileSketch::Config{config_.sketch_gamma, 1e-6, 1e9});

  sim::RunConfig rc;
  rc.deadline_ms = spec.deadline_ms;
  rc.measure_wall = config_.measure_wall;
  rc.sensing_delay_frames = config_.sensing_delay_frames;
  rc.platform = config_.platform;
  rc.criticality = config_.criticality;
  rc.vision = config_.vision;
  rc.noise_seed =
      spec.seed != 0 ? spec.seed : stream_noise_seed(config_.seed, spec_index);
  s->engine = std::make_unique<sim::FrameEngine>(rc, &s->domain);
  s->state = std::make_unique<sim::StreamState>(
      s->engine->make_stream(s->scenario, *s->controller));
  return s;
}

void ServeEngine::retire_stream(std::size_t active_index,
                                std::int64_t shed_tick,
                                std::vector<StreamResult>& results) {
  ActiveStream& s = *active_[active_index];
  StreamResult& r = results[s.spec_index];
  r.admitted_tick = s.admitted_tick;
  r.shed_tick = shed_tick;
  r.run = s.engine->finish(*s.state);
  r.frames_executed =
      static_cast<std::int64_t>(r.run.telemetry.records().size());
  if (!s.sketch->empty()) {
    r.p50_frame_ms = s.sketch->quantile(0.5);
    r.p99_frame_ms = s.sketch->quantile(0.99);
  }
  // Erasing the unique_ptr destroys the view, policy, controller and loop
  // state — the stream's entire footprint beyond the SHARED ladder — and
  // keeps the remaining streams in admission order (the fold order).
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(active_index));
}

ServeReport ServeEngine::run(const std::vector<StreamSpec>& specs) {
  metrics::Counter& ticks_ctr = metrics::counter("serve.ticks");
  metrics::Counter& frames_ctr = metrics::counter("serve.frames");
  metrics::Counter& misses_ctr = metrics::counter("serve.deadline_misses");
  metrics::Counter& admitted_ctr = metrics::counter("serve.admitted");
  metrics::Counter& rejected_ctr = metrics::counter("serve.rejected");
  metrics::Counter& degraded_ctr = metrics::counter("serve.degraded");
  metrics::Counter& restored_ctr = metrics::counter("serve.restored");
  metrics::Counter& shed_ctr = metrics::counter("serve.shed");
  metrics::Histogram& frame_hist = metrics::histogram("serve.frame_ms");
  // The serve.* metrics are reset per run (labeled per-stream names
  // included) so the online SLOs evaluate a pure function of THIS run —
  // replaying the same schedule reproduces the same breaches at the
  // same ticks (invariant 16).
  metrics::reset_prefix("serve.");

  // Pre-register every stream's labeled metrics on the driving thread
  // BEFORE the first fan-out, so worker-thread lookups never mutate the
  // registry (the MetricDomain contract, util/metrics.h).
  for (std::size_t i = 0; i < specs.size(); ++i)
    preregister_stream_metrics(stream_metric_domain(i));

  active_.clear();
  AdmissionController admission(config_.admission);
  core::SloMonitor slo(config_.slos);
  std::vector<core::BurnRateTracker> burns;
  burns.reserve(config_.burn_rates.size());
  for (const core::BurnRateConfig& bc : config_.burn_rates)
    burns.emplace_back(bc);
  QuantileSketch sketch(QuantileSketch::Config{config_.sketch_gamma, 1e-6,
                                               1e9});

  ServeReport report;
  report.streams.resize(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    report.streams[i].spec_index = i;
    report.streams[i].name = stream_name(specs[i], i);
    report.streams[i].priority = specs[i].priority;
  }

  // Arrival order: by arrival tick, spec order within a tick.
  std::vector<std::size_t> arrivals(specs.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) arrivals[i] = i;
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].arrival_tick < specs[b].arrival_tick;
                   });

  struct TickSlot {
    double frame_ms = 0.0;
    int executed_level = 0;
    bool done = false;
  };
  std::vector<TickSlot> slots;

  std::int64_t tick = 0;
  std::size_t next_arrival = 0;
  std::size_t prev_incidents = 0;
  double congestion_sum = 0.0;
  std::int64_t congestion_ticks = 0;

  while (next_arrival < arrivals.size() || !active_.empty()) {
    // Idle fast-forward: with nothing active, jump to the next arrival.
    if (active_.empty() &&
        specs[arrivals[next_arrival]].arrival_tick > tick)
      tick = specs[arrivals[next_arrival]].arrival_tick;

    // 1. Admission, in arrival order on the driving thread.
    while (next_arrival < arrivals.size() &&
           specs[arrivals[next_arrival]].arrival_tick <= tick) {
      const std::size_t idx = arrivals[next_arrival];
      ++next_arrival;
      const std::string name = stream_name(specs[idx], idx);
      if (admission.admit(static_cast<int>(active_.size()))) {
        std::unique_ptr<ActiveStream> s = admit_stream(specs[idx], idx, tick);
        s->policy->set_floor(admission.level_floor());
        s->domain.counter("serve.stream.admitted").add(1);
        active_.push_back(std::move(s));
        admitted_ctr.add(1);
        ++report.admitted;
        report.events.push_back(
            {tick, name, ServeAction::Admit,
             "active=" + std::to_string(active_.size())});
      } else {
        report.streams[idx].admitted_tick = -1;
        stream_metric_domain(idx).counter("serve.stream.rejected").add(1);
        rejected_ctr.add(1);
        ++report.rejected;
        report.events.push_back(
            {tick, name, ServeAction::Reject,
             "capacity=" + std::to_string(config_.admission.max_streams)});
      }
      const AdmissionEvent& ev = report.events.back();
      report.timeline.push_back(
          {ev.tick, ev.stream, serve_action_name(ev.action), ev.detail});
    }

    report.peak_active =
        std::max(report.peak_active, static_cast<int>(active_.size()));

    // 2. Fan-out: one frame per active stream.  Every chunk writes only
    // its own stream's state and slot, so any RRP_THREADS partition
    // produces the same bytes; counters hit inside step() are
    // commutative atomics and spans/gauges are suppressed in chunk
    // bodies (ThreadPool::in_parallel_region).
    const std::size_t n = active_.size();
    slots.assign(n, TickSlot{});
    if (n > 0) {
      parallel_for(0, static_cast<std::int64_t>(n), 1,
                   [&](std::int64_t begin, std::int64_t end) {
                     for (std::int64_t i = begin; i < end; ++i) {
                       ActiveStream& s = *active_[static_cast<std::size_t>(i)];
                       s.engine->step(*s.state);
                       const core::FrameRecord& rec =
                           s.state->result.telemetry.records().back();
                       slots[static_cast<std::size_t>(i)] = {
                           rec.latency_ms + rec.switch_us / 1000.0,
                           rec.executed_level, s.state->done()};
                     }
                   });
    }

    // 3. Fold on the driving thread, in stream-index (= admission) order.
    double demand_ms = 0.0;
    for (const TickSlot& slot : slots) demand_ms += slot.frame_ms;
    const double congestion =
        (config_.tick_budget_ms > 0.0 && demand_ms > config_.tick_budget_ms)
            ? demand_ms / config_.tick_budget_ms
            : 1.0;
    if (n > 0) {
      congestion_sum += congestion;
      ++congestion_ticks;
    }
    std::int64_t tick_frames = 0;
    std::int64_t tick_misses = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ActiveStream& s = *active_[i];
      const double effective_ms = slots[i].frame_ms * congestion;
      ++tick_frames;
      frames_ctr.add(1);
      frame_hist.observe(effective_ms);
      // Labeled per-stream mirror of the fleet accounting: same value
      // into the stream's histogram/sketch, so the per-stream histograms
      // merge bucket-for-bucket into serve.frame_ms.
      s.frame_hist->observe(effective_ms);
      s.level_gauge->set(static_cast<double>(slots[i].executed_level));
      s.sketch->add(effective_ms);
      sketch.add(effective_ms);
      if (effective_ms > s.spec.deadline_ms) {
        ++tick_misses;
        misses_ctr.add(1);
        s.miss_ctr->add(1);
      }
    }
    report.frames += tick_frames;
    report.deadline_misses += tick_misses;

    // Retire completed streams in index order.
    for (std::size_t i = 0; i < active_.size();) {
      if (active_[i]->state->done())
        retire_stream(i, /*shed_tick=*/-1, report.streams);
      else
        ++i;
    }

    // 4. Online SLOs and burn-rate trackers, then the overload state
    // machine.  Everything here runs on the driving thread over counter
    // values that are byte-identical at any RRP_THREADS, so the timeline
    // (and the admission decisions it records) is too (invariant 17).
    slo.evaluate(tick);
    const bool slo_breach = slo.incidents().size() > prev_incidents;
    for (std::size_t i = prev_incidents; i < slo.incidents().size(); ++i)
      report.timeline.push_back({tick, "fleet", "slo_breach",
                                 slo.incidents()[i].slo_id});
    prev_incidents = slo.incidents().size();

    bool burn_alert = false;
    for (core::BurnRateTracker& b : burns) {
      const bool was_latched = b.state().latched;
      const core::BurnRateState& bs = b.update(
          tick, metrics::counter(b.config().numerator).value(),
          metrics::counter(b.config().denominator).value());
      burn_alert = burn_alert || bs.alerting;
      if (bs.latched && !was_latched) {
        const std::string detail = b.config().id +
                                   " fast=" + fmt("%.4f", bs.fast_burn) +
                                   " slow=" + fmt("%.4f", bs.slow_burn);
        report.timeline.push_back({tick, "fleet", "burn_alert", detail});
        slo.note_event(tick, b.config().id, bs.fast_burn,
                       "error-budget burn alert (" + detail + ")");
        prev_incidents = slo.incidents().size();
      }
    }

    const std::size_t events_before = report.events.size();
    switch (admission.update(tick_frames, tick_misses, slo_breach,
                             burn_alert)) {
      case OverloadDecision::None:
        break;
      case OverloadDecision::Degrade: {
        for (auto& s : active_) s->policy->set_floor(admission.level_floor());
        degraded_ctr.add(1);
        ++report.degrades;
        report.events.push_back(
            {tick, "fleet", ServeAction::Degrade,
             "floor=" + std::to_string(admission.level_floor()) +
                 " miss_ratio=" + fmt("%.4f", admission.window_miss_ratio())});
        break;
      }
      case OverloadDecision::Restore: {
        for (auto& s : active_) s->policy->set_floor(admission.level_floor());
        restored_ctr.add(1);
        ++report.restores;
        report.events.push_back(
            {tick, "fleet", ServeAction::Restore,
             "floor=" + std::to_string(admission.level_floor()) +
                 " miss_ratio=" + fmt("%.4f", admission.window_miss_ratio())});
        break;
      }
      case OverloadDecision::Shed: {
        if (active_.empty()) break;
        // Victim: lowest priority; among ties, the most recently admitted
        // (latest index — LIFO, so long-running streams survive).
        std::size_t victim = 0;
        for (std::size_t i = 1; i < active_.size(); ++i)
          if (active_[i]->spec.priority <= active_[victim]->spec.priority)
            victim = i;
        const std::string name = active_[victim]->name;
        const int priority = active_[victim]->spec.priority;
        active_[victim]->shed_ctr->add(1);
        retire_stream(victim, tick, report.streams);
        shed_ctr.add(1);
        ++report.sheds;
        report.events.push_back(
            {tick, name, ServeAction::Shed,
             "priority=" + std::to_string(priority) +
                 " miss_ratio=" + fmt("%.4f", admission.window_miss_ratio())});
        break;
      }
    }

    for (std::size_t i = events_before; i < report.events.size(); ++i) {
      const AdmissionEvent& ev = report.events[i];
      report.timeline.push_back(
          {ev.tick, ev.stream, serve_action_name(ev.action), ev.detail});
    }

    ticks_ctr.add(1);
    ++report.ticks;
    ++tick;

    // Periodic exposition snapshot, end of tick on the driving thread —
    // all parallel work has joined, so the serve.* slice is settled.
    if (config_.snapshot_every_ticks > 0 &&
        report.ticks % config_.snapshot_every_ticks == 0)
      report.snapshots.push_back(capture_fleet_snapshot(tick - 1));
  }

  report.final_floor = admission.level_floor();
  for (const core::BurnRateTracker& b : burns) {
    BurnAlert a;
    a.id = b.config().id;
    a.latched = b.state().latched;
    a.alert_tick = b.state().alert_tick;
    a.fast_burn = b.state().fast_burn;
    a.slow_burn = b.state().slow_burn;
    report.burn_alerts.push_back(std::move(a));
  }
  if (!sketch.empty()) {
    report.p50_frame_ms = sketch.quantile(0.5);
    report.p99_frame_ms = sketch.quantile(0.99);
    report.max_frame_ms = sketch.max();
  }
  report.mean_congestion =
      congestion_ticks > 0
          ? congestion_sum / static_cast<double>(congestion_ticks)
          : 1.0;
  report.incidents = slo.incidents();
  return report;
}

void write_serve_report(const ServeReport& report, std::ostream& out) {
  out << "rrp_serve report\n";
  out << "  streams: " << report.streams.size() << " specs, "
      << report.admitted << " admitted, " << report.rejected << " rejected, "
      << report.sheds << " shed\n";
  const double miss_rate =
      report.frames > 0 ? static_cast<double>(report.deadline_misses) /
                              static_cast<double>(report.frames)
                        : 0.0;
  out << "  ticks: " << report.ticks << "  frames: " << report.frames
      << "  deadline misses: " << report.deadline_misses << " ("
      << fmt("%.2f", 100.0 * miss_rate) << "%)\n";
  out << "  frame_ms: p50=" << fmt("%.3f", report.p50_frame_ms)
      << " p99=" << fmt("%.3f", report.p99_frame_ms)
      << " max=" << fmt("%.3f", report.max_frame_ms) << "\n";
  out << "  congestion: mean x" << fmt("%.3f", report.mean_congestion)
      << "  peak active: " << report.peak_active << "\n";
  out << "  fleet: degrades=" << report.degrades
      << " restores=" << report.restores
      << " final floor=" << report.final_floor << "\n";
  out << "  events:\n";
  for (const AdmissionEvent& e : report.events)
    out << "    [tick " << e.tick << "] " << serve_action_name(e.action) << " "
        << e.stream << " (" << e.detail << ")\n";
  if (!report.incidents.empty()) {
    out << "  slo incidents:\n";
    for (const core::Incident& inc : report.incidents)
      out << "    [tick " << inc.frame << "] " << inc.slo_id
          << " observed=" << fmt("%.4f", inc.observed)
          << " threshold=" << fmt("%.4f", inc.threshold) << "\n";
  }
  if (!report.burn_alerts.empty()) {
    out << "  burn rates:\n";
    for (const BurnAlert& b : report.burn_alerts) {
      out << "    " << b.id << ": fast=" << fmt("%.4f", b.fast_burn)
          << " slow=" << fmt("%.4f", b.slow_burn);
      if (b.latched)
        out << " ALERT@tick " << b.alert_tick;
      else
        out << " ok";
      out << "\n";
    }
  }
  out << "  per-stream:\n";
  for (const StreamResult& r : report.streams) {
    out << "    " << r.name;
    if (r.admitted_tick < 0) {
      out << ": rejected\n";
      continue;
    }
    out << ": admitted@" << r.admitted_tick;
    if (r.shed_tick >= 0) out << " shed@" << r.shed_tick;
    out << " state=" << stream_final_state(r) << " frames="
        << r.frames_executed << " p50=" << fmt("%.3f", r.p50_frame_ms)
        << " p99=" << fmt("%.3f", r.p99_frame_ms)
        << " acc=" << fmt("%.4f", r.run.summary.accuracy)
        << " miss=" << fmt("%.4f", r.run.summary.deadline_miss_rate)
        << " mean_level=" << fmt("%.3f", r.run.summary.mean_level) << "\n";
  }
}

void write_serve_report_json(const ServeReport& report, std::ostream& out) {
  const auto num = [](double v) { return fmt("%.6f", v); };
  out << "{\"schema_version\":" << kSnapshotSchemaVersion << ",\n";
  out << "\"fleet\":{"
      << "\"ticks\":" << report.ticks << ",\"frames\":" << report.frames
      << ",\"deadline_misses\":" << report.deadline_misses
      << ",\"admitted\":" << report.admitted
      << ",\"rejected\":" << report.rejected
      << ",\"degrades\":" << report.degrades
      << ",\"restores\":" << report.restores << ",\"sheds\":" << report.sheds
      << ",\"peak_active\":" << report.peak_active
      << ",\"final_floor\":" << report.final_floor
      << ",\"p50_frame_ms\":" << num(report.p50_frame_ms)
      << ",\"p99_frame_ms\":" << num(report.p99_frame_ms)
      << ",\"max_frame_ms\":" << num(report.max_frame_ms)
      << ",\"mean_congestion\":" << num(report.mean_congestion) << "},\n";
  out << "\"streams\":[";
  for (std::size_t i = 0; i < report.streams.size(); ++i) {
    const StreamResult& r = report.streams[i];
    if (i) out << ",";
    out << "\n{\"spec_index\":" << r.spec_index << ",\"name\":\""
        << json_string_escape(r.name) << "\",\"state\":\""
        << stream_final_state(r) << "\",\"admitted_tick\":" << r.admitted_tick
        << ",\"shed_tick\":" << r.shed_tick
        << ",\"frames\":" << r.frames_executed
        << ",\"priority\":" << r.priority
        << ",\"p50_frame_ms\":" << num(r.p50_frame_ms)
        << ",\"p99_frame_ms\":" << num(r.p99_frame_ms)
        << ",\"accuracy\":" << num(r.run.summary.accuracy)
        << ",\"deadline_miss_rate\":" << num(r.run.summary.deadline_miss_rate)
        << ",\"mean_level\":" << num(r.run.summary.mean_level) << "}";
  }
  out << "\n],\n";
  out << "\"burn_alerts\":[";
  for (std::size_t i = 0; i < report.burn_alerts.size(); ++i) {
    const BurnAlert& b = report.burn_alerts[i];
    if (i) out << ",";
    out << "\n{\"id\":\"" << json_string_escape(b.id)
        << "\",\"latched\":" << (b.latched ? "true" : "false")
        << ",\"alert_tick\":" << b.alert_tick
        << ",\"fast_burn\":" << num(b.fast_burn)
        << ",\"slow_burn\":" << num(b.slow_burn) << "}";
  }
  out << "\n],\n";
  out << "\"timeline\":[";
  for (std::size_t i = 0; i < report.timeline.size(); ++i) {
    const FleetEvent& e = report.timeline[i];
    if (i) out << ",";
    out << "\n{\"tick\":" << e.tick << ",\"stream\":\""
        << json_string_escape(e.stream) << "\",\"kind\":\""
        << json_string_escape(e.kind) << "\",\"detail\":\""
        << json_string_escape(e.detail) << "\"}";
  }
  out << "\n]}\n";
}

void fold_wall_profile(const ServeReport& report,
                       std::vector<WallLevelStat>& profile) {
  for (const StreamResult& r : report.streams) {
    for (const sim::WallFrame& f : r.run.wall.frames) {
      auto it = std::lower_bound(
          profile.begin(), profile.end(), f.level,
          [](const WallLevelStat& s, int level) { return s.level < level; });
      if (it == profile.end() || it->level != f.level)
        it = profile.insert(it, WallLevelStat{f.level});
      ++it->count;
      it->total_us += f.infer_us;
      it->max_us = std::max(it->max_us, f.infer_us);
    }
  }
}

void write_wall_profile(const std::vector<WallLevelStat>& profile,
                        std::ostream& out) {
  out << "wall profile (measured; excluded from every gate):\n";
  TableFormatter table({"span", "count", "total_ms", "mean_us", "max_us"});
  for (const WallLevelStat& s : profile)
    table.row({"infer.L" + std::to_string(s.level), std::to_string(s.count),
               fmt("%.3f", s.total_us / 1000.0),
               fmt("%.3f", s.total_us / static_cast<double>(s.count)),
               fmt("%.3f", s.max_us)});
  table.print(out);
}

}  // namespace rrp::serve
