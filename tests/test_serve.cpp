// test_serve.cpp — the fleet-scale serving engine (src/serve).
//
// The acceptance properties (DESIGN.md invariant 16):
//   (1) the full serve report — per-stream telemetry, the admission/
//       degrade/shed event trace, and the metrics snapshot — is
//       byte-identical at RRP_THREADS=1/2/8;
//   (2) a 1-stream engine run is byte-identical to the legacy sim/runner
//       path over the same (scenario, noise) seeds;
//   (3) admission/shedding is a pure function of the arrival schedule:
//       replaying the same specs reproduces the identical event trace,
//       across ~100 seeded configurations;
//   (4) a shed stream's resources are fully reclaimed — only the SHARED
//       ladder survives it.
#include <gtest/gtest.h>

#include <sstream>

#include "core/metrics.h"
#include "serve/serve_engine.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/cli.h"
#include "util/thread_pool.h"

namespace rrp::serve {
namespace {

// ---------------------------------------------------------------------------
// AdmissionController: the pure overload state machine.
// ---------------------------------------------------------------------------

AdmissionConfig small_admission() {
  AdmissionConfig cfg;
  cfg.max_streams = 2;
  cfg.degrade_miss_ratio = 0.25;
  cfg.shed_miss_ratio = 0.5;
  cfg.restore_miss_ratio = 0.05;
  cfg.window_ticks = 4;
  cfg.restore_healthy_ticks = 2;
  cfg.cooldown_ticks = 1;
  cfg.max_floor = 2;
  return cfg;
}

TEST(ServeAdmission, CapacityPredicate) {
  AdmissionController ctl(small_admission());
  EXPECT_TRUE(ctl.admit(0));
  EXPECT_TRUE(ctl.admit(1));
  EXPECT_FALSE(ctl.admit(2));
  EXPECT_FALSE(ctl.admit(3));
}

TEST(ServeAdmission, EscalatesDegradeThenShedThenRestores) {
  AdmissionController ctl(small_admission());
  EXPECT_EQ(ctl.level_floor(), 0);

  // Sustained misses: degrade first (floor 1), then a cooldown tick.
  EXPECT_EQ(ctl.update(10, 10, false), OverloadDecision::Degrade);
  EXPECT_EQ(ctl.level_floor(), 1);
  EXPECT_EQ(ctl.update(10, 10, false), OverloadDecision::None) << "cooldown";
  // Still overloaded after the cooldown: degrade to the max floor.
  EXPECT_EQ(ctl.update(10, 10, false), OverloadDecision::Degrade);
  EXPECT_EQ(ctl.level_floor(), 2);
  EXPECT_EQ(ctl.update(10, 10, false), OverloadDecision::None) << "cooldown";
  // Floor at max and the ratio beyond the shed threshold: shed.
  EXPECT_EQ(ctl.update(10, 10, false), OverloadDecision::Shed);
  EXPECT_EQ(ctl.level_floor(), 2) << "shedding does not move the floor";

  // Health returns: the miss window drains, a healthy streak accrues, and
  // the floor steps back down one cooldown-separated notch at a time.
  int restores = 0;
  for (int i = 0; i < 20 && ctl.level_floor() > 0; ++i)
    if (ctl.update(10, 0, false) == OverloadDecision::Restore) ++restores;
  EXPECT_EQ(restores, 2);
  EXPECT_EQ(ctl.level_floor(), 0);
}

TEST(ServeAdmission, SloBreachAloneTriggersDegrade) {
  AdmissionController ctl(small_admission());
  // Zero misses, but the online SLO monitor latched a breach this tick.
  EXPECT_EQ(ctl.update(10, 0, true), OverloadDecision::Degrade);
  EXPECT_EQ(ctl.level_floor(), 1);
}

TEST(ServeAdmission, ResetRestoresInitialState) {
  AdmissionController ctl(small_admission());
  (void)ctl.update(10, 10, false);
  (void)ctl.update(10, 10, false);
  (void)ctl.update(10, 10, false);
  ASSERT_GT(ctl.level_floor(), 0);
  ctl.reset();
  EXPECT_EQ(ctl.level_floor(), 0);
  EXPECT_EQ(ctl.window_miss_ratio(), 0.0);
  EXPECT_EQ(ctl.healthy_ticks(), 0);
}

TEST(ServeAdmission, RejectsContradictoryThresholds) {
  AdmissionConfig bad = small_admission();
  bad.degrade_miss_ratio = 0.8;  // above shed_miss_ratio = 0.5
  EXPECT_THROW(AdmissionController ctl(bad), PreconditionError);
}

// ---------------------------------------------------------------------------
// The shared --threads parsing contract (util/cli.h): strict full-string,
// positive, no trailing garbage — pinned here so rrp_cli can't regress to
// std::stoi's prefix parsing ("4abc" -> 4).
// ---------------------------------------------------------------------------

TEST(CliThreadsFlag, StrictPositiveIntegerParse) {
  EXPECT_EQ(parse_thread_count("1"), 1);
  EXPECT_EQ(parse_thread_count("4"), 4);
  EXPECT_EQ(parse_thread_count("128"), 128);
  EXPECT_FALSE(parse_thread_count("0").has_value());
  EXPECT_FALSE(parse_thread_count("-3").has_value());
  EXPECT_FALSE(parse_thread_count("abc").has_value());
  EXPECT_FALSE(parse_thread_count("4abc").has_value()) << "trailing garbage";
  EXPECT_FALSE(parse_thread_count("").has_value());
  EXPECT_FALSE(parse_thread_count(" 4").has_value());
  EXPECT_FALSE(parse_thread_count("4 ").has_value());
  EXPECT_FALSE(parse_thread_count("+4").has_value());
  EXPECT_FALSE(parse_thread_count("4.0").has_value());
  EXPECT_FALSE(parse_thread_count("99999999999999999999").has_value());
}

// Every numeric flag of rrp_cli goes through these (util/cli.h): "20x"
// must be a diagnostic, not 20 frames.
TEST(CliNumericFlags, StrictFullStringParses) {
  EXPECT_EQ(parse_int("20"), 20);
  EXPECT_EQ(parse_int("-3"), -3);
  EXPECT_EQ(parse_int("0"), 0);
  for (const char* bad : {"20x", "", " 20", "20 ", "+20", "2.0", "x20",
                          "99999999999999999999", "0x10"})
    EXPECT_FALSE(parse_int(bad).has_value()) << "'" << bad << "'";

  EXPECT_EQ(parse_u64("20240325"), 20240325u);
  EXPECT_EQ(parse_u64("18446744073709551615"), 18446744073709551615ull);
  for (const char* bad : {"-1", "18446744073709551616", "7s", "", "+7"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";

  EXPECT_EQ(parse_double("2"), 2.0);
  EXPECT_EQ(parse_double("-0.5"), -0.5);
  EXPECT_EQ(parse_double("1e-3"), 1e-3);
  for (const char* bad : {"2ms", "", " 2", "2 ", "+2", "nan", "inf", "-inf",
                          "1e999", "1,5"})
    EXPECT_FALSE(parse_double(bad).has_value()) << "'" << bad << "'";
}

// rrp_cli's on/off flags (--wall, --trace, --force, --bundles): "false"
// must be a diagnostic, not a switch turned on.
TEST(CliSwitchFlags, StrictZeroOrOne) {
  EXPECT_EQ(parse_switch("0"), false);
  EXPECT_EQ(parse_switch("1"), true);
  for (const char* bad : {"false", "true", "", " 1", "1 ", "01", "00", "2",
                          "-1", "+1", "yes", "on", "1x"})
    EXPECT_FALSE(parse_switch(bad).has_value()) << "'" << bad << "'";
}

// ---------------------------------------------------------------------------
// The engine: same closed-loop fixture as test_campaign — a briefly
// trained conv net on the vision geometry, 3-level structured ladder.
// ---------------------------------------------------------------------------

class ServeFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = nn::Network("serve-net");
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

  /// A small mixed fleet: capacity pressure (4 specs, capacity 3),
  /// staggered arrivals, two suites, a fixed-policy straggler.
  static std::vector<StreamSpec> mixed_fleet(int frames) {
    std::vector<StreamSpec> specs(4);
    specs[0].scenario = "cut_in";
    specs[0].frames = frames;
    specs[0].priority = 3;
    specs[1].scenario = "urban";
    specs[1].frames = frames;
    specs[1].priority = 2;
    specs[2].scenario = "cut_in";
    specs[2].frames = frames;
    specs[2].arrival_tick = 3;
    specs[2].priority = 1;
    specs[2].policy = "fixed1";
    specs[3].scenario = "urban";
    specs[3].frames = frames;
    specs[3].arrival_tick = 3;
    specs[3].priority = 0;
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
    return cfg;
  }

  /// Every byte the engine produces: the rendered report, each stream's
  /// per-frame telemetry CSV, and the full metrics snapshot.
  static std::string full_digest(ServeEngine& engine,
                                 const std::vector<StreamSpec>& specs) {
    core::reset_observability();
    const ServeReport report = engine.run(specs);
    std::ostringstream os;
    write_serve_report(report, os);
    for (const StreamResult& r : report.streams) {
      os << "--- stream " << r.spec_index << " telemetry ---\n";
      r.run.telemetry.write_csv(os);
    }
    os << "--- metrics ---\n";
    core::capture_metrics().write_csv(os);
    return os.str();
  }

  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
  ServeInputs inputs_;
};

TEST_F(ServeFixture, ReportByteIdenticalAcrossThreadCounts) {
  ServeEngine engine(inputs_, contended_config());
  const std::vector<StreamSpec> specs = mixed_fleet(40);

  std::string reference;
  {
    ThreadCountGuard guard(1);
    reference = full_digest(engine, specs);
  }
  // The trace must show real multi-stream dynamics, or this pin is
  // vacuous: an admission rejection (4 specs, capacity 3) at minimum.
  EXPECT_NE(reference.find("reject"), std::string::npos);
  for (int threads : {2, 8}) {
    ThreadCountGuard guard(threads);
    EXPECT_EQ(full_digest(engine, specs), reference) << "threads=" << threads;
  }
}

TEST_F(ServeFixture, SoloStreamMatchesLegacyRunnerByteForByte) {
  ServeConfig cfg;
  cfg.seed = 777;
  ServeEngine engine(inputs_, cfg);

  StreamSpec spec;
  spec.scenario = "cut_in";
  spec.frames = 50;
  std::vector<StreamSpec> specs = {spec};
  const ServeReport report = engine.run(specs);
  ASSERT_EQ(report.streams.size(), 1u);
  const sim::RunResult& served = report.streams[0].run;

  // The legacy path: sim/runner over a fresh compacted-ladder provider,
  // reproducing the stream's seeds via the documented split.
  sim::RunConfig rc;
  rc.deadline_ms = spec.deadline_ms;
  rc.noise_seed = stream_noise_seed(cfg.seed, 0);
  sim::Scenario scenario = sim::make_suite_or_dsl(
      spec.scenario, spec.frames, stream_scenario_seed(cfg.seed, 0));
  core::CompactedLadderProvider provider(net_, lib_,
                                         sim::input_shape(rc.vision));
  core::CriticalityGreedyPolicy policy(inputs_.certified, spec.hysteresis,
                                       provider.level_count());
  core::SafetyMonitor monitor(inputs_.certified);
  core::RuntimeController controller(policy, provider, &monitor);
  const sim::RunResult legacy = sim::run_scenario(scenario, controller, rc);

  // Frame-for-frame byte identity of the telemetry...
  std::ostringstream served_csv, legacy_csv;
  served.telemetry.write_csv(served_csv);
  legacy.telemetry.write_csv(legacy_csv);
  EXPECT_EQ(served_csv.str(), legacy_csv.str());
  // ...and the summary (the provider NAME differs by design:
  // "reversible-fastpath-view" vs "reversible-fastpath").
  EXPECT_EQ(served.summary.frames, legacy.summary.frames);
  EXPECT_EQ(served.summary.accuracy, legacy.summary.accuracy);
  EXPECT_EQ(served.summary.deadline_miss_rate,
            legacy.summary.deadline_miss_rate);
  EXPECT_EQ(served.summary.mean_level, legacy.summary.mean_level);
  EXPECT_EQ(served.summary.level_switches, legacy.summary.level_switches);
  EXPECT_EQ(served.summary.total_energy_mj, legacy.summary.total_energy_mj);
  EXPECT_EQ(served.policy, legacy.policy) << "FloorPolicy must keep the "
                                             "inner policy's identity";
}

TEST_F(ServeFixture, OverloadDegradesThenShedsAndReclaims) {
  ServeConfig cfg;
  cfg.seed = 99;
  cfg.tick_budget_ms = 0.25;
  cfg.admission.max_streams = 4;
  cfg.admission.window_ticks = 4;
  cfg.admission.cooldown_ticks = 2;
  ServeEngine engine(inputs_, cfg);

  // An impossible deadline: every frame misses, so the ladder must walk
  // Degrade -> ... -> max floor -> Shed, deterministically.
  std::vector<StreamSpec> specs = mixed_fleet(60);
  for (StreamSpec& s : specs) s.deadline_ms = 0.01;
  const ServeReport report = engine.run(specs);

  EXPECT_GT(report.degrades, 0);
  // max_floor 0 in the config means "deepest ladder level"; the engine
  // resolves it at construction, so read it back from the engine.
  EXPECT_EQ(engine.config().admission.max_floor,
            engine.shared_provider().level_count() - 1);
  EXPECT_EQ(report.final_floor, engine.config().admission.max_floor);
  ASSERT_GT(report.sheds, 0);

  // The shed stream: identified in the trace, partial telemetry, and its
  // per-stream resources fully reclaimed (only the shared ladder is left).
  bool found_shed = false;
  for (const StreamResult& r : report.streams) {
    if (r.shed_tick < 0) continue;
    found_shed = true;
    EXPECT_GE(r.shed_tick, r.admitted_tick);
    EXPECT_LT(r.frames_executed,
              static_cast<std::int64_t>(specs[r.spec_index].frames));
    EXPECT_EQ(r.frames_executed,
              static_cast<std::int64_t>(r.run.telemetry.records().size()));
  }
  EXPECT_TRUE(found_shed);
  EXPECT_EQ(engine.active_stream_count(), 0);

  // Victim order: shedding drops the lowest-priority stream first.
  for (const AdmissionEvent& e : report.events) {
    if (e.action != ServeAction::Shed) continue;
    EXPECT_EQ(e.stream, "stream3") << "priority 0 must shed first";
    break;
  }

  // The shared ladder survives shedding: a fresh uncontended run over the
  // same engine completes cleanly.
  std::vector<StreamSpec> calm(1);
  calm[0].frames = 10;
  const ServeReport after = engine.run(calm);
  EXPECT_EQ(after.sheds, 0);
  EXPECT_EQ(after.frames, 10);
  EXPECT_EQ(engine.active_stream_count(), 0);
}

// Property: the admission/degrade/shed trace is a pure function of the
// arrival schedule and SLO state — replaying the same specs through the
// same engine yields the identical event trace and report bytes.  ~100
// seeded configurations: 50 schedules x {contended, uncontended}.
TEST_F(ServeFixture, ReplayReproducesEventTraceAcross100SeededConfigs) {
  ServeConfig contended = contended_config();
  contended.admission.max_streams = 2;
  ServeConfig uncontended;
  uncontended.seed = 31337;
  ServeEngine engines[2] = {ServeEngine(inputs_, contended),
                            ServeEngine(inputs_, uncontended)};

  for (int c = 0; c < 50; ++c) {
    Rng rng(static_cast<std::uint64_t>(c) * 1000003u + 17u);
    const int n_streams = 2 + static_cast<int>(rng.next_u64() % 3);
    std::vector<StreamSpec> specs(static_cast<std::size_t>(n_streams));
    for (StreamSpec& s : specs) {
      s.scenario = (rng.next_u64() % 2 == 0) ? "cut_in" : "urban";
      s.policy = (rng.next_u64() % 3 == 0) ? "fixed1" : "greedy";
      s.frames = 8 + static_cast<int>(rng.next_u64() % 10);
      s.arrival_tick = static_cast<std::int64_t>(rng.next_u64() % 6);
      s.priority = static_cast<int>(rng.next_u64() % 4);
      s.deadline_ms = (rng.next_u64() % 4 == 0) ? 0.05 : 5.0;
    }
    ServeEngine& engine = engines[c % 2];

    const ServeReport first = engine.run(specs);
    const ServeReport second = engine.run(specs);

    EXPECT_EQ(first.events, second.events) << "config " << c;
    std::ostringstream a, b;
    write_serve_report(first, a);
    write_serve_report(second, b);
    EXPECT_EQ(a.str(), b.str()) << "config " << c;
    EXPECT_EQ(engine.active_stream_count(), 0) << "config " << c;
  }
}

// Arrivals beyond capacity are rejected in deterministic arrival order,
// and rejected streams execute zero frames.
TEST_F(ServeFixture, RejectionIsDeterministicAndExecutesNothing) {
  ServeConfig cfg;
  cfg.seed = 5;
  cfg.admission.max_streams = 1;
  ServeEngine engine(inputs_, cfg);

  std::vector<StreamSpec> specs(3);
  for (StreamSpec& s : specs) s.frames = 12;
  const ServeReport report = engine.run(specs);

  EXPECT_EQ(report.admitted, 1);
  EXPECT_EQ(report.rejected, 2);
  ASSERT_GE(report.events.size(), 3u);
  EXPECT_EQ(report.events[0].action, ServeAction::Admit);
  EXPECT_EQ(report.events[0].stream, "stream0");
  EXPECT_EQ(report.events[1].action, ServeAction::Reject);
  EXPECT_EQ(report.events[1].stream, "stream1");
  EXPECT_EQ(report.events[2].action, ServeAction::Reject);
  EXPECT_EQ(report.events[2].stream, "stream2");
  for (const StreamResult& r : report.streams)
    if (r.admitted_tick < 0) {
      EXPECT_EQ(r.frames_executed, 0);
      EXPECT_TRUE(r.run.telemetry.records().empty());
    }
}

}  // namespace
}  // namespace rrp::serve
