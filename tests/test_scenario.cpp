#include <gtest/gtest.h>

#include <cmath>

#include "sim/criticality.h"
#include "sim/scenario_gen.h"
#include "util/checks.h"

namespace rrp::sim {
namespace {

using core::CriticalityClass;

TEST(Scene, DominantPicksNearestInCorridor) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 30.0, 0.0, 0.0});
  s.actors.push_back({ActorType::Pedestrian, 10.0, 0.0, 0.5});
  s.actors.push_back({ActorType::Cyclist, 5.0, 0.0, 5.0});  // off-corridor
  const Actor* dom = s.dominant();
  ASSERT_NE(dom, nullptr);
  EXPECT_EQ(dom->type, ActorType::Pedestrian);
}

TEST(Scene, DominantNullWhenClear) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 30.0, 0.0, 9.0});
  EXPECT_EQ(s.dominant(), nullptr);
  Scene empty;
  EXPECT_EQ(empty.dominant(), nullptr);
}

TEST(Scene, StepActorsAdvancesAndCulls) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 10.0, 5.0, 0.0});
  s.actors.push_back({ActorType::Vehicle, 0.4, 30.0, 0.0});
  step_actors(s, 0.1);
  ASSERT_EQ(s.actors.size(), 1u);  // the 0.4 m actor passed behind
  EXPECT_NEAR(s.actors[0].distance_m, 9.5, 1e-9);
}

TEST(Criticality, TtcComputation) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 20.0, 10.0, 0.0});
  EXPECT_NEAR(scene_min_ttc_s(s), 2.0, 1e-9);
}

TEST(Criticality, OpeningGapIsInfiniteTtc) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 20.0, -1.0, 0.0});
  EXPECT_TRUE(std::isinf(scene_min_ttc_s(s)));
}

TEST(Criticality, OffCorridorActorsIgnored) {
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 5.0, 20.0, 4.0});
  EXPECT_TRUE(std::isinf(scene_min_ttc_s(s)));
  EXPECT_EQ(classify_scene(s), CriticalityClass::Low);
}

TEST(Criticality, ClassThresholds) {
  CriticalityConfig cfg;
  auto with_ttc = [](double ttc) {
    Scene s;
    s.actors.push_back({ActorType::Vehicle, ttc * 10.0, 10.0, 0.0});
    return s;
  };
  EXPECT_EQ(classify_scene(with_ttc(1.0), cfg), CriticalityClass::Critical);
  EXPECT_EQ(classify_scene(with_ttc(2.5), cfg), CriticalityClass::High);
  EXPECT_EQ(classify_scene(with_ttc(5.0), cfg), CriticalityClass::Medium);
  EXPECT_EQ(classify_scene(with_ttc(20.0), cfg), CriticalityClass::Low);
}

TEST(Criticality, ProximityFloorEvenWithoutClosing) {
  Scene s;
  s.actors.push_back({ActorType::Pedestrian, 6.0, 0.0, 0.0});
  EXPECT_EQ(classify_scene(s), CriticalityClass::High);
  s.actors[0].distance_m = 15.0;
  EXPECT_EQ(classify_scene(s), CriticalityClass::Medium);
}

TEST(Criticality, TraceMatchesPerSceneClassification) {
  const Scenario sc = make_suite_or_dsl("cut_in", 200, 42);
  const auto trace = criticality_trace(sc);
  ASSERT_EQ(trace.size(), sc.scenes.size());
  for (std::size_t i = 0; i < trace.size(); i += 17)
    EXPECT_EQ(trace[i], classify_scene(sc.scenes[i]));
}

TEST(Suites, DeterministicForSameSeed) {
  const Scenario a = make_suite_or_dsl("highway", 300, 7);
  const Scenario b = make_suite_or_dsl("highway", 300, 7);
  ASSERT_EQ(a.scenes.size(), b.scenes.size());
  for (std::size_t i = 0; i < a.scenes.size(); i += 29) {
    ASSERT_EQ(a.scenes[i].actors.size(), b.scenes[i].actors.size());
    for (std::size_t j = 0; j < a.scenes[i].actors.size(); ++j)
      EXPECT_DOUBLE_EQ(a.scenes[i].actors[j].distance_m,
                       b.scenes[i].actors[j].distance_m);
  }
}

TEST(Suites, DifferentSeedsDiffer) {
  const Scenario a = make_suite_or_dsl("urban", 300, 1);
  const Scenario b = make_suite_or_dsl("urban", 300, 2);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.scenes.size(); ++i)
    if (a.scenes[i].actors.size() != b.scenes[i].actors.size())
      any_diff = true;
  EXPECT_TRUE(any_diff);
}

TEST(Suites, RequestedFrameCount) {
  for (int frames : {30, 450}) {
    EXPECT_EQ(make_suite_or_dsl("highway", frames, 3).frame_count(),
              static_cast<std::size_t>(frames));
    EXPECT_EQ(make_suite_or_dsl("urban", frames, 3).frame_count(),
              static_cast<std::size_t>(frames));
    EXPECT_EQ(make_suite_or_dsl("cut_in", frames, 3).frame_count(),
              static_cast<std::size_t>(frames));
    EXPECT_EQ(make_suite_or_dsl("degraded", frames, 3).frame_count(),
              static_cast<std::size_t>(frames));
  }
  EXPECT_THROW(make_suite_or_dsl("highway", 0, 3), PreconditionError);
}

TEST(Suites, CutInProducesCriticalBursts) {
  const Scenario sc = make_suite_or_dsl("cut_in", 900, 11);
  const auto trace = criticality_trace(sc);
  int critical_or_high = 0, low = 0;
  for (auto c : trace) {
    critical_or_high += (c >= CriticalityClass::High);
    low += (c == CriticalityClass::Low);
  }
  EXPECT_GT(critical_or_high, 10);   // the scripted cut-ins bite
  EXPECT_GT(low, 300);               // but most of the drive is calm
}

TEST(Suites, HighwayMostlyCalm) {
  const Scenario sc = make_suite_or_dsl("highway", 900, 13);
  const auto trace = criticality_trace(sc);
  int low_or_medium = 0;
  for (auto c : trace) low_or_medium += (c <= CriticalityClass::Medium);
  EXPECT_GT(low_or_medium, 600);
}

TEST(Suites, DegradedHasVisibilityDrops) {
  const Scenario sc = make_suite_or_dsl("degraded", 1200, 17);
  double min_vis = 1.0;
  for (const Scene& s : sc.scenes) min_vis = std::min(min_vis, s.visibility);
  EXPECT_LT(min_vis, 0.75);
}

TEST(Suites, UrbanContainsVulnerableRoadUsers) {
  const Scenario sc = make_suite_or_dsl("urban", 900, 19);
  int vru = 0;
  for (const Scene& s : sc.scenes)
    for (const Actor& a : s.actors)
      vru += (a.type == ActorType::Pedestrian ||
              a.type == ActorType::Cyclist);
  EXPECT_GT(vru, 0);
}

TEST(Suites, StandardSuitesBundle) {
  // The five evaluation suites lead the built-in list, in the order the
  // end-to-end table indexes them (derived seed base + index + 1).
  const std::vector<std::string> names = builtin_scenario_names();
  std::vector<Scenario> suites;
  for (std::size_t i = 0; i < 5; ++i)
    suites.push_back(make_suite_or_dsl(names.at(i), 60, 100 + i + 1));
  ASSERT_EQ(suites.size(), 5u);
  EXPECT_EQ(suites[0].name, "highway");
  EXPECT_EQ(suites[1].name, "urban");
  EXPECT_EQ(suites[2].name, "cut_in");
  EXPECT_EQ(suites[3].name, "degraded");
  EXPECT_EQ(suites[4].name, "intersection");
}

TEST(ActorTypes, Names) {
  EXPECT_STREQ(actor_type_name(ActorType::Pedestrian), "pedestrian");
  EXPECT_STREQ(actor_type_name(ActorType::Obstacle), "obstacle");
}

}  // namespace
}  // namespace rrp::sim

namespace rrp::sim {
namespace {

using core::CriticalityClass;

TEST(Intersection, DeterministicAndSized) {
  const Scenario a = make_suite_or_dsl("intersection", 600, 3);
  const Scenario b = make_suite_or_dsl("intersection", 600, 3);
  ASSERT_EQ(a.frame_count(), 600u);
  for (std::size_t i = 0; i < a.scenes.size(); i += 37) {
    ASSERT_EQ(a.scenes[i].actors.size(), b.scenes[i].actors.size());
    for (std::size_t j = 0; j < a.scenes[i].actors.size(); ++j)
      EXPECT_DOUBLE_EQ(a.scenes[i].actors[j].lateral_m,
                       b.scenes[i].actors[j].lateral_m);
  }
}

TEST(Intersection, CrossersTraverseTheCorridor) {
  const Scenario sc = make_suite_or_dsl("intersection", 1800, 5);
  // Criticality must rise (proximity floor) while a walker is in-corridor
  // and fall once it leaves — i.e. the trace has both High and Low frames.
  const auto trace = criticality_trace(sc);
  int high = 0, low = 0;
  for (auto c : trace) {
    high += (c >= CriticalityClass::High);
    low += (c == CriticalityClass::Low);
  }
  EXPECT_GT(high, 10);
  EXPECT_GT(low, 100);
}

TEST(Intersection, OnlyVulnerableRoadUsers) {
  const Scenario sc = make_suite_or_dsl("intersection", 900, 7);
  for (const Scene& s : sc.scenes)
    for (const Actor& a : s.actors)
      EXPECT_TRUE(a.type == ActorType::Pedestrian ||
                  a.type == ActorType::Cyclist);
}

}  // namespace
}  // namespace rrp::sim
