// test_metrics.cpp — metrics registry (util/metrics.h) and the snapshot /
// reconciliation layer (core/metrics.h).
//
// Determinism is the design axis: counters and histogram buckets are
// commutative atomics striped per thread (safe from pool chunks), gauges
// drop writes inside parallel regions, and snapshots serialize in sorted
// name order so equal state exports byte-equal.  Names created here are
// prefixed "test." so they never collide with the built-in schema.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/metrics.h"
#include "util/checks.h"
#include "util/csv.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp {
namespace {

TEST(Metrics, CounterAddsFromParallelChunksAreExact) {
  metrics::Counter& c = metrics::counter("test.par_counter");
  for (int threads : {1, 3}) {
    ThreadCountGuard pool(threads);
    c.reset();
    parallel_for(0, 1000, 7, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) c.add(2);
    });
    EXPECT_EQ(c.value(), 2000) << "threads=" << threads;
  }
}

TEST(Metrics, StripedTotalsAreExactAtEveryPoolSize) {
  // 16 pool threads is more than kStripes: threads that share a stripe
  // still add atomically, so every counter and bucket total is exact.
  metrics::Counter& c = metrics::counter("test.striped_counter");
  const std::vector<double> bounds = {1.0, 5.0, 20.0, 100.0, 300.0, 500.0,
                                      600.0, 700.0, 800.0, 900.0};
  metrics::Histogram& h =
      metrics::Registry::instance().histogram("test.striped_hist", bounds);
  std::vector<std::int64_t> want(bounds.size() + 1, 0);
  for (std::int64_t i = 0; i < 4096; ++i)
    ++want[static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(),
                         static_cast<double>(i % 1000)) -
        bounds.begin())];
  for (int threads : {1, 2, 3, 8, 16}) {
    ThreadCountGuard pool(threads);
    c.reset();
    h.reset();
    parallel_for(0, 4096, 3, [&](std::int64_t begin, std::int64_t end) {
      for (std::int64_t i = begin; i < end; ++i) {
        c.add(i);
        h.observe(static_cast<double>(i % 1000));
      }
    });
    EXPECT_EQ(c.value(), 4096 * 4095 / 2) << "threads=" << threads;
    for (std::size_t b = 0; b < want.size(); ++b)
      EXPECT_EQ(h.bucket_count(b), want[b]) << "threads=" << threads;
    EXPECT_EQ(h.total(), 4096) << "threads=" << threads;
  }
}

TEST(Metrics, ResetClearsEveryStripe) {
  // 3 * kStripes threads start one after another and stay alive, each
  // taking the stripe the fewest live threads hold, so together they
  // hold every stripe; each adds once to a counter and to a histogram
  // bucket on the second line of its stripe's row.
  metrics::Counter& c = metrics::counter("test.stripe_reset_counter");
  metrics::Histogram& h = metrics::Registry::instance().histogram(
      "test.stripe_reset_hist",
      std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  c.reset();
  h.reset();
  constexpr int kThreads = 3 * metrics::kStripes;
  std::vector<int> stripes(kThreads, -1);
  std::atomic<int> added{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      c.add(3);
      h.observe(9.5);    // bucket 9
      h.observe(100.0);  // overflow
      stripes[static_cast<std::size_t>(t)] = metrics::detail::stripe();
      added.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
    while (added.load() <= t) std::this_thread::yield();
  }
  release.store(true);
  for (std::thread& t : threads) t.join();
  std::sort(stripes.begin(), stripes.end());
  stripes.erase(std::unique(stripes.begin(), stripes.end()), stripes.end());
  EXPECT_EQ(stripes.size(), static_cast<std::size_t>(metrics::kStripes));
  EXPECT_EQ(c.value(), 3 * kThreads);
  EXPECT_EQ(h.bucket_count(9), kThreads);
  EXPECT_EQ(h.bucket_count(10), kThreads);
  EXPECT_EQ(h.total(), 2 * kThreads);
  c.reset();
  h.reset();
  EXPECT_EQ(c.value(), 0);
  for (std::size_t b = 0; b <= h.bounds().size(); ++b)
    EXPECT_EQ(h.bucket_count(b), 0) << b;
  EXPECT_EQ(h.total(), 0);
  c.add(1);
  EXPECT_EQ(c.value(), 1);
}

TEST(Metrics, GaugeWritesDropInsideParallelRegions) {
  metrics::Gauge& g = metrics::gauge("test.par_gauge");
  g.set(1.25);
  parallel_for(0, 4, 1, [&](std::int64_t, std::int64_t) {
    g.set(99.0);  // schedule-dependent last-write: must be ignored
  });
  EXPECT_DOUBLE_EQ(g.value(), 1.25);
  g.set(2.5);  // back on the driving thread: takes effect
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
}

TEST(Metrics, HistogramBucketsBySmallestUpperBound) {
  metrics::Histogram& h = metrics::Registry::instance().histogram(
      "test.hist", std::vector<double>{1.0, 2.0, 5.0});
  h.reset();
  h.observe(0.5);   // le_1
  h.observe(1.0);   // le_1 (v <= bound)
  h.observe(1.5);   // le_2
  h.observe(5.0);   // le_5
  h.observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2);
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 1);
  EXPECT_EQ(h.bucket_count(3), 1);  // overflow bucket
  EXPECT_EQ(h.total(), 5);
}

TEST(Metrics, HistogramRegistrationDiscipline) {
  // Unregistered lookup without bounds is a caller bug.
  EXPECT_THROW(metrics::histogram("test.never_registered"),
               PreconditionError);
  // Bounds must be strictly increasing.
  EXPECT_THROW(metrics::Registry::instance().histogram(
                   "test.bad_bounds", std::vector<double>{1.0, 1.0}),
               PreconditionError);
  // Re-registration with identical bounds returns the same instance;
  // conflicting bounds are rejected.
  metrics::Histogram& h = metrics::Registry::instance().histogram(
      "test.rereg", std::vector<double>{1.0, 2.0});
  EXPECT_EQ(&metrics::Registry::instance().histogram(
                "test.rereg", std::vector<double>{1.0, 2.0}),
            &h);
  EXPECT_THROW(metrics::Registry::instance().histogram(
                   "test.rereg", std::vector<double>{1.0, 3.0}),
               PreconditionError);
}

TEST(Metrics, BuiltInSchemaIsPreRegistered) {
  // Hot-path names must exist before any worker thread looks them up
  // (lookups never mutate the map; see util/metrics.h).
  const metrics::Registry& reg = metrics::Registry::instance();
  for (const char* name : {"gemm.flops", "prune.bytes_touched",
                           "integrity.scrub_elems", "controller.level_switch",
                           "runner.frames", "pool.chunks"})
    EXPECT_EQ(reg.counters().count(name), 1u) << name;
  EXPECT_EQ(reg.gauges().count("runner.energy_budget_frac"), 1u);
  EXPECT_EQ(reg.histograms().count("runner.frame_ms"), 1u);
  EXPECT_EQ(reg.histograms().count("prune.switch_us"), 1u);
}

TEST(Metrics, SnapshotIsSortedAndRoundTripsAsCsv) {
  metrics::reset_all();
  metrics::counter("test.snap_counter").add(41);
  metrics::gauge("test.snap_gauge").set(0.5);
  const core::MetricsSnapshot snap = core::capture_metrics();

  ASSERT_FALSE(snap.rows.empty());
  for (std::size_t i = 1; i < snap.rows.size(); ++i) {
    // Sorted within each kind block (counters, gauges, histograms).
    if (snap.rows[i - 1].kind == snap.rows[i].kind &&
        snap.rows[i].kind != "histogram") {
      EXPECT_LT(snap.rows[i - 1].name, snap.rows[i].name);
    }
  }

  // The CSV parses back to exactly the same rows (writer/parser pairing).
  std::istringstream is(snap.csv_string());
  std::vector<std::string> fields;
  ASSERT_TRUE(read_csv_record(is, fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"name", "kind", "value"}));
  std::size_t row = 0;
  while (read_csv_record(is, fields)) {
    ASSERT_LT(row, snap.rows.size());
    EXPECT_EQ(fields[0], snap.rows[row].name);
    EXPECT_EQ(fields[1], snap.rows[row].kind);
    EXPECT_EQ(fields[2], snap.rows[row].value);
    ++row;
  }
  EXPECT_EQ(row, snap.rows.size());

  const std::string json = snap.json_string();
  EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"test.snap_counter\""), std::string::npos);
  EXPECT_NE(json.find("\"value\":41"), std::string::npos);
}

TEST(Metrics, EqualStateSnapshotsAreByteEqual) {
  metrics::reset_all();
  metrics::counter("gemm.calls").add(3);
  const std::string a = core::capture_metrics().csv_string();
  metrics::reset_all();
  metrics::counter("gemm.calls").add(3);
  const std::string b = core::capture_metrics().csv_string();
  EXPECT_EQ(a, b);
}

TEST(Metrics, FrameReconciliationMatchesAndFlagsMissing) {
  core::reset_observability();
  trace::set_enabled(true);

  core::Telemetry telemetry;
  for (int f = 0; f < 3; ++f) {
    core::FrameRecord rec;
    rec.frame = f;
    rec.latency_ms = 1.0 + 0.125 * f;
    rec.switch_us = f == 1 ? 42.5 : 0.0;
    telemetry.add(rec);
    if (f == 2) continue;  // frame 2 gets no span: must be flagged
    trace::ScopedFrame tag(f);
    RRP_SPAN_VAR(span, "frame");
    span.add_modeled_us(rec.latency_ms * 1000.0 + rec.switch_us);
  }
  trace::set_enabled(false);

  const core::FrameReconciliation rec = core::reconcile_frame_spans(telemetry);
  EXPECT_EQ(rec.frames_compared, 2);
  EXPECT_EQ(rec.missing_frame_spans, 1);
  EXPECT_DOUBLE_EQ(rec.max_abs_delta_us, 0.0);
  EXPECT_FALSE(rec.ok()) << "a missing frame span must fail the check";
  trace::reset();
}

TEST(Metrics, HistogramClampsOutOfRangeAtBothEnds) {
  metrics::Histogram& h = metrics::Registry::instance().histogram(
      "test.hist_clamp", std::vector<double>{0.0, 10.0});
  h.reset();
  // Below every bound (including -inf): counted into the FIRST bucket —
  // out-of-range-low is clamped, never dropped.
  h.observe(-1.0);
  h.observe(-std::numeric_limits<double>::infinity());
  h.observe(0.0);  // exactly the lowest bound is still the first bucket
  EXPECT_EQ(h.bucket_count(0), 3);
  // Above every bound (including +inf): the overflow bucket — clamped
  // high, never dropped.
  h.observe(10.0);  // exactly the highest finite bound: NOT overflow
  h.observe(10.0000001);
  h.observe(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.bucket_count(1), 1);
  EXPECT_EQ(h.bucket_count(2), 2);
  // Every observation lands somewhere: total never undercounts.
  EXPECT_EQ(h.total(), 6);
}

TEST(Metrics, CounterOverflowWrapsLikeTwosComplement) {
  metrics::Counter& c = metrics::counter("test.overflow_counter");
  c.reset();
  // fetch_add on std::atomic<int64> is defined to wrap (no UB): a counter
  // driven past INT64_MAX comes back around instead of trapping.  Nothing
  // in the repo gets near this (gemm.flops would need ~centuries), but
  // the behavior is pinned so a future reader knows it is not a crash.
  c.add(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(c.value(), std::numeric_limits<std::int64_t>::max());
  c.add(1);
  EXPECT_EQ(c.value(), std::numeric_limits<std::int64_t>::min());
  c.add(1);
  EXPECT_EQ(c.value(), std::numeric_limits<std::int64_t>::min() + 1);
  // Negative deltas are legal (used by nothing hot, but symmetric).
  c.reset();
  c.add(-7);
  EXPECT_EQ(c.value(), -7);
}

TEST(Metrics, GaugeDropIsThreadCountInvariantUnderWidePool) {
  // The drop-in-parallel-region contract must hold for EVERY pool size,
  // including wider-than-core pools (RRP_THREADS=8): any chunk body —
  // even one executed by the driving thread itself — is inside the
  // region, so its writes are schedule-dependent and must vanish.
  metrics::Gauge& g = metrics::gauge("test.par_gauge_wide");
  for (int threads : {1, 2, 8}) {
    ThreadCountGuard pool(threads);
    g.set(3.75);
    parallel_for(0, 64, 4, [&](std::int64_t begin, std::int64_t) {
      g.set(static_cast<double>(begin));  // dropped, every chunk
    });
    EXPECT_DOUBLE_EQ(g.value(), 3.75) << "threads=" << threads;
    g.set(static_cast<double>(threads));  // driving thread, outside: lands
    EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(threads));
  }
}

TEST(Metrics, ResetObservabilityClearsBothLayers) {
  trace::set_enabled(true);
  metrics::counter("test.reset_probe").add(5);
  {
    RRP_SPAN("probe");
  }
  trace::set_enabled(false);
  EXPECT_FALSE(trace::spans().empty());
  core::reset_observability();
  EXPECT_TRUE(trace::spans().empty());
  EXPECT_EQ(metrics::counter("test.reset_probe").value(), 0);
}

}  // namespace
}  // namespace rrp
