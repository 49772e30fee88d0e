#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "sim/criticality.h"
#include "sim/scenario_gen.h"
#include "sim/trace_io.h"
#include "util/checks.h"

namespace rrp::sim {
namespace {

void expect_same(const Scenario& a, const Scenario& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_NEAR(a.dt_s, b.dt_s, 1e-9);
  ASSERT_EQ(a.scenes.size(), b.scenes.size());
  for (std::size_t f = 0; f < a.scenes.size(); ++f) {
    const Scene& x = a.scenes[f];
    const Scene& y = b.scenes[f];
    EXPECT_NEAR(x.ego_speed_mps, y.ego_speed_mps, 1e-5) << f;
    EXPECT_NEAR(x.visibility, y.visibility, 1e-5) << f;
    ASSERT_EQ(x.actors.size(), y.actors.size()) << f;
    for (std::size_t i = 0; i < x.actors.size(); ++i) {
      EXPECT_EQ(x.actors[i].type, y.actors[i].type);
      EXPECT_NEAR(x.actors[i].distance_m, y.actors[i].distance_m, 1e-5);
      EXPECT_NEAR(x.actors[i].closing_mps, y.actors[i].closing_mps, 1e-5);
      EXPECT_NEAR(x.actors[i].lateral_m, y.actors[i].lateral_m, 1e-5);
    }
  }
}

TEST(TraceIo, RoundTripCutIn) {
  const Scenario sc = make_suite_or_dsl("cut_in", 240, 7);
  std::ostringstream os;
  write_scenario_csv(sc, os);
  std::istringstream is(os.str());
  expect_same(sc, read_scenario_csv(is));
}

TEST(TraceIo, RoundTripPreservesCriticalityTrace) {
  const Scenario sc = make_suite_or_dsl("urban", 300, 9);
  std::ostringstream os;
  write_scenario_csv(sc, os);
  std::istringstream is(os.str());
  const Scenario back = read_scenario_csv(is);
  const auto t1 = criticality_trace(sc);
  const auto t2 = criticality_trace(back);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]) << i;
}

TEST(TraceIo, EmptyFramesSurvive) {
  Scenario sc;
  sc.name = "sparse";
  sc.scenes.resize(3);
  sc.scenes[1].actors.push_back({ActorType::Obstacle, 12.0, 1.0, 0.3});
  std::ostringstream os;
  write_scenario_csv(sc, os);
  std::istringstream is(os.str());
  const Scenario back = read_scenario_csv(is);
  ASSERT_EQ(back.scenes.size(), 3u);
  EXPECT_TRUE(back.scenes[0].actors.empty());
  ASSERT_EQ(back.scenes[1].actors.size(), 1u);
  EXPECT_EQ(back.scenes[1].actors[0].type, ActorType::Obstacle);
}

TEST(TraceIo, FileRoundTrip) {
  const Scenario sc = make_suite_or_dsl("intersection", 120, 3);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rrp_trace.csv").string();
  save_scenario_csv(sc, path);
  expect_same(sc, load_scenario_csv(path));
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsMalformedInput) {
  {
    std::istringstream is("");
    EXPECT_THROW(read_scenario_csv(is), SerializationError);
  }
  {
    std::istringstream is("garbage header\n1,2,3\n");
    EXPECT_THROW(read_scenario_csv(is), SerializationError);
  }
  {
    // Valid header but a row with the wrong arity.
    std::ostringstream os;
    write_scenario_csv(make_suite_or_dsl("cut_in", 5, 1), os);
    std::string text = os.str() + "9,1,2\n";
    std::istringstream is(text);
    EXPECT_THROW(read_scenario_csv(is), SerializationError);
  }
  {
    // Gap in the frame sequence.
    std::ostringstream os;
    write_scenario_csv(make_suite_or_dsl("cut_in", 3, 1), os);
    std::string text = os.str() + "7,0.1,25,0.9,none,0,0,0\n";
    std::istringstream is(text);
    EXPECT_THROW(read_scenario_csv(is), SerializationError);
  }
  {
    std::istringstream is("x");
    EXPECT_THROW(read_scenario_csv(is), SerializationError);
  }
  EXPECT_THROW(load_scenario_csv("/nonexistent/trace.csv"),
               SerializationError);
}

TEST(TraceIo, UnknownActorTypeRejected) {
  std::ostringstream os;
  write_scenario_csv(make_suite_or_dsl("cut_in", 2, 1), os);
  std::string text = os.str();
  std::string row = "2,0.06,25,0.9,unicorn,10,1,0\n";
  std::istringstream is(text + row);
  EXPECT_THROW(read_scenario_csv(is), SerializationError);
}

}  // namespace
}  // namespace rrp::sim
