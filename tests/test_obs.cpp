// test_obs.cpp — the fleet observability plane (DESIGN.md §8,
// invariant 17).
//
// The acceptance properties:
//   (1) labeled metric names follow the {k="v"} grammar exactly: keys
//       sorted and validated, values escaped, empty domain = identity,
//       and parse_labeled_name is the byte-true inverse;
//   (2) the periodic fleet snapshots (sorted JSON + Prometheus text
//       exposition) and the event timeline are byte-identical at
//       RRP_THREADS=1/2/8;
//   (3) burn-rate window math matches hand-computed fixtures, with
//       strict-inequality thresholds and a latched first alert tick;
//   (4) the per-stream frame-time histograms merge bucket-for-bucket
//       into the fleet histogram (they observe the same fold values over
//       the same bounds);
//   (5) the measured wall channel is purely additive: arming it changes
//       no deterministic byte, and its per-level profile accounts for
//       every served frame.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/metrics_export.h"
#include "core/slo.h"
#include "models/zoo.h"
#include "serve/obs.h"
#include "serve/serve_engine.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace rrp::serve {
namespace {

// A single-element braced list ({{"k","v"}}) is ambiguous between the
// vector<Label> ctor and the copy ctor; routing through an explicit
// vector parameter keeps the test call sites readable.
metrics::MetricDomain domain(std::vector<metrics::MetricDomain::Label> ls) {
  return metrics::MetricDomain(std::move(ls));
}

// ---------------------------------------------------------------------------
// MetricDomain: the {k="v"} label grammar.
// ---------------------------------------------------------------------------

TEST(MetricDomain, LabeledNameSortsKeysAndEscapesValues) {
  const metrics::MetricDomain d(
      {{"zone", "b\"c"}, {"stream", "3"}, {"aaa", "x\\y\nz"}});
  EXPECT_EQ(d.labeled_name("serve.frames"),
            "serve.frames{aaa=\"x\\\\y\\nz\",stream=\"3\",zone=\"b\\\"c\"}");
  ASSERT_EQ(d.labels().size(), 3u);
  EXPECT_EQ(d.labels()[0].first, "aaa") << "labels sorted by key";
  EXPECT_EQ(d.labels()[2].first, "zone");
}

TEST(MetricDomain, EmptyDomainIsTheIdentity) {
  const metrics::MetricDomain d;
  EXPECT_EQ(d.labeled_name("test.obs.plain"), "test.obs.plain");
  d.counter("test.obs.plain").add(2);
  EXPECT_EQ(metrics::counter("test.obs.plain").value(), 2);
  metrics::counter("test.obs.plain").reset();
}

TEST(MetricDomain, RejectsInvalidAndDuplicateKeys) {
  EXPECT_THROW(domain({{"1bad", "v"}}), PreconditionError);
  EXPECT_THROW(domain({{"a-b", "v"}}), PreconditionError);
  EXPECT_THROW(domain({{"", "v"}}), PreconditionError);
  EXPECT_THROW(domain({{"k", "1"}, {"k", "2"}}), PreconditionError);
  EXPECT_NO_THROW(domain({{"_ok", "any value is fine"}}));
}

TEST(MetricDomain, EscapeLabelValue) {
  EXPECT_EQ(metrics::escape_label_value("plain"), "plain");
  EXPECT_EQ(metrics::escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(metrics::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(metrics::escape_label_value("a\nb"), "a\\nb");
}

TEST(MetricDomain, ParseLabeledNameIsTheInverse) {
  const metrics::MetricDomain d({{"stream", "7"}, {"cam", "front\"left"}});
  const std::string name = d.labeled_name("serve.stream.frames");
  const core::ParsedMetricName p = core::parse_labeled_name(name);
  EXPECT_EQ(p.base, "serve.stream.frames");
  ASSERT_EQ(p.labels.size(), 2u);
  EXPECT_EQ(p.labels[0].first, "cam");
  EXPECT_EQ(p.labels[0].second, "front\"left") << "unescaped round-trip";
  EXPECT_EQ(p.labels[1].first, "stream");
  EXPECT_EQ(p.labels[1].second, "7");

  const core::ParsedMetricName plain = core::parse_labeled_name("a.b.c");
  EXPECT_EQ(plain.base, "a.b.c");
  EXPECT_TRUE(plain.labels.empty());

  EXPECT_THROW(core::parse_labeled_name("x{k=\"v\""), SerializationError);
  EXPECT_THROW(core::parse_labeled_name("x{k=v}"), SerializationError);
  EXPECT_THROW(core::parse_labeled_name("x{k=\"unterminated}"),
               SerializationError);
}

TEST(MetricDomain, ResetPrefixCoversLabeledVariants) {
  metrics::counter("test.obs.reset.a").add(3);
  metrics::counter("test.obs.keep").add(5);
  const metrics::MetricDomain d = domain({{"stream", "0"}});
  d.counter("test.obs.reset.b").add(7);
  metrics::gauge("test.obs.reset.g").set(1.5);

  metrics::reset_prefix("test.obs.reset.");
  EXPECT_EQ(metrics::counter("test.obs.reset.a").value(), 0);
  EXPECT_EQ(d.counter("test.obs.reset.b").value(), 0) << "labeled variant";
  EXPECT_EQ(metrics::gauge("test.obs.reset.g").value(), 0.0);
  EXPECT_EQ(metrics::counter("test.obs.keep").value(), 5) << "prefix miss";
  metrics::counter("test.obs.keep").reset();
}

// ---------------------------------------------------------------------------
// Prometheus exposition: sanitized families, TYPE lines, cumulative
// buckets.  The registry is process-wide, so assertions are substring/
// order based under a prefix no other test uses.
// ---------------------------------------------------------------------------

TEST(PrometheusExposition, RendersFamiliesLabelsAndCumulativeBuckets) {
  metrics::counter("zzobs.count").add(5);
  const metrics::MetricDomain d = domain({{"stream", "0"}});
  d.counter("zzobs.count").add(2);
  metrics::gauge("zzobs.level").set(1.5);
  metrics::Registry::instance().histogram("zzobs.lat_ms", {1.0, 2.0});
  metrics::histogram("zzobs.lat_ms").observe(0.5);
  metrics::histogram("zzobs.lat_ms").observe(1.5);
  metrics::histogram("zzobs.lat_ms").observe(99.0);

  const std::string text = core::prometheus_exposition();
  // One TYPE line per family; the unlabeled and labeled series share it.
  EXPECT_NE(text.find("# TYPE zzobs_count counter\n"
                      "zzobs_count 5\n"
                      "zzobs_count{stream=\"0\"} 2\n"),
            std::string::npos);
  // Gauges render at fixed 9-digit precision; bucket bounds use fmt()'s
  // trimmed form (at least one decimal digit).
  EXPECT_NE(text.find("# TYPE zzobs_level gauge\nzzobs_level 1.500000000\n"),
            std::string::npos);
  // Cumulative buckets + +Inf + _count, no _sum.
  EXPECT_NE(text.find("# TYPE zzobs_lat_ms histogram\n"
                      "zzobs_lat_ms_bucket{le=\"1.0\"} 1\n"
                      "zzobs_lat_ms_bucket{le=\"2.0\"} 2\n"
                      "zzobs_lat_ms_bucket{le=\"+Inf\"} 3\n"
                      "zzobs_lat_ms_count 3\n"),
            std::string::npos);
  EXPECT_EQ(text.find("zzobs_lat_ms_sum"), std::string::npos);

  metrics::reset_prefix("zzobs.");
}

// ---------------------------------------------------------------------------
// Burn-rate window math, against hand-computed fixtures.
// ---------------------------------------------------------------------------

core::BurnRateConfig tiny_burn() {
  core::BurnRateConfig cfg;
  cfg.id = "burn.test";
  cfg.numerator = "n";
  cfg.denominator = "d";
  cfg.budget = 0.25;
  cfg.fast_window = 2;
  cfg.slow_window = 4;
  cfg.fast_burn_threshold = 2.0;
  cfg.slow_burn_threshold = 1.0;
  cfg.min_samples = 2;
  return cfg;
}

TEST(BurnRate, HandComputedWindowsAndStrictThresholds) {
  core::BurnRateTracker t(tiny_burn());

  // tick 0: delta (0, 10) — no errors yet.
  const core::BurnRateState& s0 = t.update(0, 0, 10);
  EXPECT_DOUBLE_EQ(s0.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s0.slow_burn, 0.0);
  EXPECT_FALSE(s0.alerting);

  // tick 1: delta (10, 10).  Fast window = [(0,10),(10,10)]: ratio 0.5,
  // burn 0.5/0.25 = 2.0 — NOT > 2.0, so the strict threshold holds it.
  const core::BurnRateState& s1 = t.update(1, 10, 20);
  EXPECT_DOUBLE_EQ(s1.fast_burn, 2.0);
  EXPECT_DOUBLE_EQ(s1.slow_burn, 2.0);
  EXPECT_FALSE(s1.alerting) << "burn == threshold must not alert";
  EXPECT_FALSE(s1.latched);

  // tick 2: delta (10, 10).  Fast = [(10,10),(10,10)]: ratio 1.0, burn
  // 4.0 > 2.0; slow = 20/30 -> burn 8/3 > 1.0; 20 samples >= 2: alert.
  const core::BurnRateState& s2 = t.update(2, 20, 30);
  EXPECT_DOUBLE_EQ(s2.fast_burn, 4.0);
  EXPECT_NEAR(s2.slow_burn, (20.0 / 30.0) / 0.25, 1e-12);
  EXPECT_TRUE(s2.alerting);
  EXPECT_TRUE(s2.latched);
  EXPECT_EQ(s2.alert_tick, 2);

  // tick 3: delta (0, 10).  Fast cools to burn 2.0 (== threshold, no
  // alert) but the latch and first-alert tick survive.
  const core::BurnRateState& s3 = t.update(3, 20, 40);
  EXPECT_DOUBLE_EQ(s3.fast_burn, 2.0);
  EXPECT_FALSE(s3.alerting);
  EXPECT_TRUE(s3.latched);
  EXPECT_EQ(s3.alert_tick, 2) << "latch keeps the FIRST alert tick";

  // tick 4: delta (0, 10).  The slow window is now exactly the last 4
  // deltas — tick 0 fell off: 20 errors / 40 samples -> burn 2.0.
  const core::BurnRateState& s4 = t.update(4, 20, 50);
  EXPECT_DOUBLE_EQ(s4.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s4.slow_burn, 2.0);

  t.reset();
  EXPECT_DOUBLE_EQ(t.state().fast_burn, 0.0);
  EXPECT_FALSE(t.state().latched);
  EXPECT_EQ(t.state().alert_tick, -1);
}

TEST(BurnRate, ZeroDenominatorIsZeroBurnNotDivisionByZero) {
  core::BurnRateTracker t(tiny_burn());
  const core::BurnRateState& s = t.update(0, 0, 0);
  EXPECT_DOUBLE_EQ(s.fast_burn, 0.0);
  EXPECT_DOUBLE_EQ(s.slow_burn, 0.0);
  EXPECT_FALSE(s.alerting);
}

TEST(BurnRate, RejectsDegenerateConfigs) {
  core::BurnRateConfig cfg = tiny_burn();
  cfg.id.clear();
  EXPECT_THROW(core::BurnRateTracker t(cfg), PreconditionError);
  cfg = tiny_burn();
  cfg.budget = 0.0;
  EXPECT_THROW(core::BurnRateTracker t(cfg), PreconditionError);
  cfg = tiny_burn();
  cfg.fast_window = 8;  // > slow_window = 4
  EXPECT_THROW(core::BurnRateTracker t(cfg), PreconditionError);
}

/// Every observability byte of one served run: report JSON, each
/// snapshot's JSON and exposition, and the timeline CSV.
std::string obs_digest(const ServeReport& report) {
  std::ostringstream os;
  write_serve_report_json(report, os);
  for (const FleetSnapshot& s : report.snapshots)
    os << "--- snapshot tick " << s.tick << " ---\n" << s.json << s.prom;
  os << "--- timeline ---\n" << timeline_csv(report.timeline);
  return os.str();
}

// ---------------------------------------------------------------------------
// The serving engine under observation: same closed-loop fixture as
// test_serve — a briefly trained conv net with a 3-level ladder.
// ---------------------------------------------------------------------------

class ObsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::Network("obs-net");
    net_.emplace<nn::Conv2D>("conv1", 1, 6, 3, 1, 1);
    net_.emplace<nn::ReLU>("relu1");
    net_.emplace<nn::MaxPool>("pool1", 4, 4);
    net_.emplace<nn::Flatten>("flatten");
    net_.emplace<nn::Linear>("fc1", 6 * 4 * 4, 16);
    net_.emplace<nn::ReLU>("relu2");
    auto& head = net_.emplace<nn::Linear>("head", 16, sim::kNumClasses);
    head.set_out_prunable(false);
    Rng rng(1);
    nn::init_network(net_, rng);

    sim::RunConfig cfg;
    Rng data_rng(2);
    data_ = sim::make_dataset(400, cfg.vision, data_rng);
    rrp::testing::quick_train(net_, data_, 4);

    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.3, 0.6}, sim::input_shape(cfg.vision));

    inputs_.net = &net_;
    inputs_.levels = &lib_;
    inputs_.certified.max_level_for = {2, 1, 1, 0};
  }

  static std::vector<StreamSpec> small_fleet(int frames) {
    std::vector<StreamSpec> specs(4);
    const char* suites[] = {"cut_in", "urban", "cut_in", "urban"};
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].scenario = suites[i];
      specs[i].frames = frames;
      specs[i].priority = static_cast<int>(specs.size() - i);
      if (i >= 2) specs[i].arrival_tick = 3;
    }
    return specs;
  }

  static ServeConfig contended_config() {
    ServeConfig cfg;
    cfg.seed = 4242;
    cfg.tick_budget_ms = 0.5;  // tiny modeled host: congestion engages
    cfg.admission.max_streams = 3;
    cfg.admission.window_ticks = 8;
    cfg.admission.cooldown_ticks = 4;
    cfg.admission.restore_healthy_ticks = 6;
    cfg.snapshot_every_ticks = 8;
    return cfg;
  }

  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
  ServeInputs inputs_;
};

TEST_F(ObsFixture, SnapshotsExpositionAndTimelineByteIdenticalAcrossThreads) {
  ServeEngine engine(inputs_, contended_config());
  const std::vector<StreamSpec> specs = small_fleet(40);

  std::string reference;
  {
    ThreadCountGuard guard(1);
    reference = obs_digest(engine.run(specs));
  }
  // The pin must cover real content: at least one periodic snapshot with
  // the versioned schema, labeled per-stream rows in both formats, and a
  // non-empty timeline that includes admission decisions.
  EXPECT_NE(reference.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(reference.find("serve.stream.frames{stream=\\\"0\\\"}"),
            std::string::npos)
      << "labeled row (JSON-escaped) in the snapshot";
  EXPECT_NE(reference.find("serve_stream_frames{stream=\"0\"}"),
            std::string::npos)
      << "labeled series in the exposition";
  EXPECT_NE(reference.find("tick,stream,kind,detail"), std::string::npos);
  EXPECT_NE(reference.find("admit"), std::string::npos);

  for (int threads : {2, 8}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(obs_digest(engine.run(specs)), reference)
        << "invariant 17 broke at threads=" << threads;
  }
}

TEST_F(ObsFixture, PerStreamHistogramsMergeIntoTheFleetHistogram) {
  ServeEngine engine(inputs_, contended_config());
  const ServeReport report = engine.run(small_fleet(40));
  ASSERT_GT(report.frames, 0);

  const metrics::Histogram& fleet = metrics::histogram("serve.frame_ms");
  const std::vector<double>& bounds = fleet.bounds();
  std::vector<std::int64_t> merged(bounds.size() + 1, 0);
  std::size_t labeled_series = 0;
  for (const auto& [name, h] :
       metrics::Registry::instance().histograms()) {
    if (name.rfind("serve.stream.frame_ms{", 0) != 0) continue;
    ++labeled_series;
    ASSERT_EQ(h->bounds(), bounds) << name << ": bounds must mirror fleet";
    for (std::size_t i = 0; i <= bounds.size(); ++i)
      merged[i] += h->bucket_count(i);
  }
  ASSERT_GE(labeled_series, 3u) << "per-stream series were registered";
  for (std::size_t i = 0; i <= bounds.size(); ++i)
    EXPECT_EQ(merged[i], fleet.bucket_count(i)) << "bucket " << i;
  EXPECT_EQ(fleet.total(), report.frames);
}

TEST_F(ObsFixture, ReportCarriesTailsBurnAlertsAndConsistentTimeline) {
  ServeEngine engine(inputs_, contended_config());
  const ServeReport report = engine.run(small_fleet(40));

  // Per-stream tails: executed streams get ordered, positive quantiles.
  for (const StreamResult& r : report.streams) {
    if (r.frames_executed == 0) continue;
    EXPECT_GT(r.p50_frame_ms, 0.0) << r.name;
    EXPECT_LE(r.p50_frame_ms, r.p99_frame_ms) << r.name;
  }

  // One standard burn tracker; a latched alert must appear in the
  // timeline at its alert tick.
  ASSERT_EQ(report.burn_alerts.size(), standard_serve_burn_rates().size());
  for (const BurnAlert& a : report.burn_alerts) {
    if (!a.latched) continue;
    bool in_timeline = false;
    for (const FleetEvent& e : report.timeline)
      in_timeline |= e.kind == "burn_alert" && e.tick == a.alert_tick &&
                     e.detail.find(a.id) != std::string::npos;
    EXPECT_TRUE(in_timeline) << a.id << " latched but not in the timeline";
  }

  // Every admission event is mirrored into the unified timeline.
  std::size_t admission_kind = 0;
  for (const FleetEvent& e : report.timeline)
    if (e.kind != "slo_breach" && e.kind != "burn_alert") ++admission_kind;
  EXPECT_EQ(admission_kind, report.events.size());

  // The text report renders the burn section and per-stream tails.
  std::ostringstream os;
  write_serve_report(report, os);
  EXPECT_NE(os.str().find("burn rates:"), std::string::npos);
  EXPECT_NE(os.str().find("p99="), std::string::npos);

  // The JSON report is schema-versioned and carries the same sections.
  std::ostringstream js;
  write_serve_report_json(report, js);
  EXPECT_NE(js.str().find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(js.str().find("\"burn_alerts\":["), std::string::npos);
  EXPECT_NE(js.str().find("\"timeline\":["), std::string::npos);
  EXPECT_NE(js.str().find("\"streams\":["), std::string::npos);
}

// ---------------------------------------------------------------------------
// The measured wall channel (ServeConfig::measure_wall) is purely
// additive: a lenet fleet served with it off and on yields the same
// observability bytes, and the per-level profile folded from the
// streams' RunResult::wall accounts for every frame.
// ---------------------------------------------------------------------------

TEST(WallChannel, ArmingItChangesNoDeterministicByte) {
  Rng rng(44);
  nn::Network net = models::build_model(models::ModelKind::LeNet, rng);
  const prune::PruneLevelLibrary lib =
      prune::PruneLevelLibrary::build_structured(
          net, {0.0, 0.3, 0.6, 0.85}, models::zoo_input_shape());
  ServeInputs inputs;
  inputs.net = &net;
  inputs.levels = &lib;
  inputs.certified.max_level_for = {3, 2, 1, 0};

  std::vector<StreamSpec> specs(5);
  const char* suites[] = {"cut_in", "urban", "highway", "degraded"};
  for (std::size_t i = 0; i < specs.size(); ++i) {
    specs[i].scenario = suites[i % 4];
    specs[i].frames = 40;
    specs[i].priority = static_cast<int>(specs.size() - i);
    specs[i].arrival_tick = static_cast<std::int64_t>(i);
  }
  ServeConfig cfg;
  cfg.seed = 77;
  cfg.tick_budget_ms = 0.5;  // congestion and the overload ladder engage
  cfg.admission.max_streams = 4;
  cfg.snapshot_every_ticks = 10;

  std::string reference;
  for (const int threads : {1, 2}) {
    ThreadCountGuard guard(threads);
    for (const bool wall : {false, true}) {
      cfg.measure_wall = wall;
      ServeEngine engine(inputs, cfg);
      const ServeReport report = engine.run(specs);
      const std::string digest = obs_digest(report);
      if (reference.empty()) {
        ASSERT_FALSE(report.snapshots.empty());
        reference = digest;
      }
      EXPECT_EQ(digest, reference)
          << "threads " << threads << " measure_wall " << wall;

      std::vector<WallLevelStat> profile;
      fold_wall_profile(report, profile);
      if (!wall) {
        EXPECT_TRUE(profile.empty()) << "nothing measured while off";
        continue;
      }
      std::vector<std::int64_t> by_level(
          static_cast<std::size_t>(lib.level_count()), 0);
      for (const StreamResult& r : report.streams) {
        EXPECT_EQ(r.run.wall.frames.size(),
                  static_cast<std::size_t>(r.frames_executed))
            << r.name;
        for (const sim::WallFrame& f : r.run.wall.frames)
          ++by_level[static_cast<std::size_t>(f.level)];
      }
      std::int64_t profiled = 0;
      int previous_level = -1;
      for (const WallLevelStat& row : profile) {
        EXPECT_GT(row.level, previous_level) << "one ascending row per level";
        previous_level = row.level;
        EXPECT_EQ(row.count, by_level[static_cast<std::size_t>(row.level)])
            << "L" << row.level;
        EXPECT_LE(row.max_us, row.total_us);
        profiled += row.count;
      }
      EXPECT_EQ(profiled, report.frames);
      EXPECT_GE(profile.size(), 2u) << "the ladder moved between levels";
    }
  }
}

}  // namespace
}  // namespace rrp::serve
