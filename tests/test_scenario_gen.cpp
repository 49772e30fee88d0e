// test_scenario_gen.cpp — the scenario DSL (sim/scenario_gen.h).
//
// The load-bearing property is PARITY: the five evaluation suites expand
// to digest-pinned bytes over a (frames, seed) grid — the golden traces
// and gated baselines are built on those bytes.  On top: canonical
// encode/parse round-trips, validation errors, and scene invariants over
// randomly composed specs.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <sstream>

#include "core/integrity.h"
#include "sim/scenario_gen.h"
#include "sim/trace_io.h"
#include "util/checks.h"
#include "util/rng.h"

namespace rrp::sim {
namespace {

std::string scenario_bytes(const Scenario& sc) {
  std::ostringstream os;
  write_scenario_csv(sc, os);
  return os.str();
}

// ---------------------------------------------------------------------------
// The five evaluation suites, byte-pinned by digest.
// ---------------------------------------------------------------------------

// FNV-1a digests of write_scenario_csv() for each suite over frames
// {1, 150, 700, 1000} x seeds {1, 42, 20240325}, recorded from the
// hand-written generators these specs replaced (the golden traces and
// gated baselines were built on those bytes).  1000 frames crosses
// cut_in's derived period max(180, frames/4); 1 frame is the edge case.
constexpr int kParityFrames[] = {1, 150, 700, 1000};
constexpr std::uint64_t kParitySeeds[] = {1, 42, 20240325};

struct ParityCase {
  const char* name;
  std::array<std::uint64_t, 12> digests;  // [frames][seed], frames-major
};

const ParityCase kParityCases[] = {
    {"highway",
     {0xf0ae85df881838bfull, 0x8d6842974e156325ull, 0x3934488235aa0d2dull,
      0x67508e8415ffb16full, 0xeafdfb85b1bc0296ull, 0xf5fce6ce67ebbbd1ull,
      0xefb83a40646487b4ull, 0xd35eecb7ca830034ull, 0xfff37c3644f70012ull,
      0x20e6713e530c49aeull, 0x59eb0339bdd29becull, 0x2a3ac60fcb0c9487ull}},
    {"urban",
     {0xbeeb219c5c6d2c95ull, 0xdd312ff489966d75ull, 0xa68b7d1437aafc28ull,
      0xf5251c15d6cfea19ull, 0x425ca7d920189054ull, 0xb61ce8260dbadeeeull,
      0x118e481400baceceull, 0x29394457970276c0ull, 0x27b1ec42f6133cfaull,
      0x6c3bcf431da1c2ccull, 0x07cf023d1fc9afcbull, 0xed046bd026cf5349ull}},
    {"cut_in",
     {0x4f29be479eb96041ull, 0x587dc522cee64364ull, 0xd48f5bce0dd9447eull,
      0x627b8a44eb421cfeull, 0xf9bb434254fcaea0ull, 0x5e9796e7b3f60250ull,
      0xad5f60b94d9d3342ull, 0xaf1c1c1e58f80f6cull, 0x9ae1b8e813371f79ull,
      0x7fefb535d6ad11b6ull, 0xa1fb31f44b73cd4bull, 0x59393f0b88a32036ull}},
    {"degraded",
     {0x90ad57ab64f21c52ull, 0xc5b646c36ace2371ull, 0xff874d0150281960ull,
      0x09aa6836eb32fcc5ull, 0xb528bed61d0df6ddull, 0xbead5fbb664b52eeull,
      0x96f518c70e635b12ull, 0xced6ae981c62ebedull, 0xc35a5a7b346a0fa0ull,
      0x3bbba48a33f108dfull, 0xd2984b03500f5afdull, 0x476a558ba0aab438ull}},
    {"intersection",
     {0x455a1c2ab87c33c5ull, 0xab304693556c4525ull, 0xb88d3abcbfd10858ull,
      0x417fb91171545befull, 0x2bdd89764cb5b982ull, 0xfc13e0d698431cd7ull,
      0xd90098a7a937e7d0ull, 0x904a0c55204f4970ull, 0x234ddd0dd8af590eull,
      0x2d421f1af8806f9full, 0xedb83171ffbe5bf2ull, 0xcbf3a2f7b95367d9ull}},
};

class DslParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DslParity, BuiltinSpecMatchesLegacyGeneratorByteForByte) {
  const ParityCase& pc = GetParam();
  const ScenarioSpec spec = builtin_scenario_spec(pc.name);
  std::size_t i = 0;
  for (int frames : kParityFrames) {
    for (std::uint64_t seed : kParitySeeds) {
      const Scenario sc = generate_scenario(spec, frames, seed);
      ASSERT_EQ(sc.name, pc.name);
      ASSERT_EQ(sc.frame_count(), static_cast<std::size_t>(frames));
      const std::string bytes = scenario_bytes(sc);
      EXPECT_EQ(core::fnv1a64(bytes.data(), bytes.size()), pc.digests[i++])
          << pc.name << " frames=" << frames << " seed=" << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllLegacySuites, DslParity, ::testing::ValuesIn(kParityCases),
    [](const ::testing::TestParamInfo<ParityCase>& info) {
      return std::string(info.param.name);
    });

TEST(DslParityRoundTrip, ParityHoldsThroughEncodeAndParse) {
  // The campaign ships specs as canonical lines; parity must survive the
  // text round-trip, or worst-cell bundles would not replay.
  for (const char* name : {"highway", "urban", "cut_in", "degraded",
                           "intersection"}) {
    const ScenarioSpec spec = builtin_scenario_spec(name);
    const ScenarioSpec round = parse_scenario_spec(encode_scenario_spec(spec));
    EXPECT_EQ(scenario_bytes(generate_scenario(round, 300, 99)),
              scenario_bytes(generate_scenario(spec, 300, 99)))
        << name;
  }
}

// ---------------------------------------------------------------------------
// Determinism and composition.
// ---------------------------------------------------------------------------

TEST(DslDeterminism, SameSpecAndSeedIsByteIdentical) {
  for (const std::string& name : builtin_scenario_names()) {
    const ScenarioSpec spec = builtin_scenario_spec(name);
    EXPECT_EQ(scenario_bytes(generate_scenario(spec, 400, 7)),
              scenario_bytes(generate_scenario(spec, 400, 7)))
        << name;
    EXPECT_NE(scenario_bytes(generate_scenario(spec, 400, 7)),
              scenario_bytes(generate_scenario(spec, 400, 8)))
        << name << ": different seeds should differ";
  }
}

TEST(DslComposition, OverlayDoesNotPerturbTheTrafficStream) {
  // Adding an overlay must only touch visibility: actor kinematics are
  // drawn from the main stream, overlays from their own derived stream.
  ScenarioSpec plain = builtin_scenario_spec("urban");
  ScenarioSpec overlaid = plain;
  ScenarioPrimitive occ;
  occ.kind = "occlusion";
  occ.params["prob"] = 0.05;
  overlaid.primitives.push_back(occ);

  const Scenario a = generate_scenario(plain, 500, 31);
  const Scenario b = generate_scenario(overlaid, 500, 31);
  ASSERT_EQ(a.frame_count(), b.frame_count());
  bool any_vis_changed = false;
  for (std::size_t f = 0; f < a.scenes.size(); ++f) {
    ASSERT_EQ(a.scenes[f].actors.size(), b.scenes[f].actors.size()) << f;
    for (std::size_t i = 0; i < a.scenes[f].actors.size(); ++i) {
      EXPECT_EQ(a.scenes[f].actors[i].distance_m,
                b.scenes[f].actors[i].distance_m);
      EXPECT_EQ(a.scenes[f].actors[i].lateral_m,
                b.scenes[f].actors[i].lateral_m);
    }
    any_vis_changed |= a.scenes[f].visibility != b.scenes[f].visibility;
  }
  EXPECT_TRUE(any_vis_changed) << "occlusion at prob=0.05 over 500 frames "
                                  "should open at least one window";
}

TEST(DslComposition, TrafficBurstsRaiseDensity) {
  ScenarioSpec calm = builtin_scenario_spec("urban");
  ScenarioSpec bursty = calm;
  bursty.primitives[0].params["burst_period"] = 100.0;
  bursty.primitives[0].params["burst_len"] = 50.0;
  bursty.primitives[0].params["burst_factor"] = 8.0;
  bursty.primitives[0].params["max_actors"] = 12.0;
  calm.primitives[0].params["max_actors"] = 12.0;

  auto mean_actors = [](const Scenario& sc) {
    double sum = 0.0;
    for (const Scene& s : sc.scenes) sum += static_cast<double>(s.actors.size());
    return sum / static_cast<double>(sc.scenes.size());
  };
  EXPECT_GT(mean_actors(generate_scenario(bursty, 900, 5)),
            mean_actors(generate_scenario(calm, 900, 5)));
}

TEST(DslComposition, SpeedRegimeRampsTheEgo) {
  const ScenarioSpec spec = builtin_scenario_spec("rush_hour");
  const Scenario sc = generate_scenario(spec, 300, 11);
  EXPECT_EQ(sc.scenes.front().ego_speed_mps, 10.0);
  EXPECT_NEAR(sc.scenes.back().ego_speed_mps, 6.0, 1e-12);
}

TEST(DslComposition, VisibilityRampDegradesMonotonically) {
  const ScenarioSpec spec = builtin_scenario_spec("fog_ramp");
  ScenarioSpec no_occlusion = spec;  // isolate the deterministic ramp
  no_occlusion.primitives.pop_back();
  const Scenario sc = generate_scenario(no_occlusion, 300, 13);
  for (std::size_t f = 1; f < sc.scenes.size(); ++f)
    EXPECT_LE(sc.scenes[f].visibility, sc.scenes[f - 1].visibility + 1e-12);
  EXPECT_LT(sc.scenes.back().visibility, sc.scenes.front().visibility);
}

// ---------------------------------------------------------------------------
// Canonical encoding.
// ---------------------------------------------------------------------------

TEST(DslEncoding, RoundTripIsExact) {
  for (const std::string& name : builtin_scenario_names()) {
    const ScenarioSpec spec = builtin_scenario_spec(name);
    const std::string line = encode_scenario_spec(spec);
    const ScenarioSpec round = parse_scenario_spec(line);
    EXPECT_EQ(round.name, spec.name);
    EXPECT_EQ(round.dt_s, spec.dt_s);
    EXPECT_EQ(round.ego_speed_mps, spec.ego_speed_mps);
    EXPECT_EQ(round.vis_lo, spec.vis_lo);
    EXPECT_EQ(round.vis_hi, spec.vis_hi);
    EXPECT_EQ(round.seed_xor, spec.seed_xor);
    EXPECT_EQ(round.seed_add, spec.seed_add);
    ASSERT_EQ(round.primitives.size(), spec.primitives.size());
    for (std::size_t i = 0; i < spec.primitives.size(); ++i) {
      EXPECT_EQ(round.primitives[i].kind, spec.primitives[i].kind);
      EXPECT_EQ(round.primitives[i].params, spec.primitives[i].params);
    }
    // encode(parse(line)) is a fixed point: the line IS canonical.
    EXPECT_EQ(encode_scenario_spec(round), line) << name;
  }
}

TEST(DslEncoding, MalformedSpecsThrow) {
  EXPECT_THROW(parse_scenario_spec(""), SerializationError);  // no name
  EXPECT_THROW(parse_scenario_spec("ego=25"), SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x warp_drive{}"), SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x traffic{warp=9}"),
               SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x traffic{spawn_prob=abc}"),
               SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x traffic{spawn_prob=0.1"),
               SerializationError);  // unterminated
  EXPECT_THROW(parse_scenario_spec("name=x vis=0.9"), SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x vis=1.5,2.0"), SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=x dt=0"), SerializationError);
  EXPECT_THROW(parse_scenario_spec("name=bad name!"), SerializationError);

  ScenarioSpec bad;
  bad.primitives.push_back(ScenarioPrimitive{"no_such_kind", {}});
  EXPECT_THROW(generate_scenario(bad, 10, 1), SerializationError);
  EXPECT_THROW(builtin_scenario_spec("no_such_builtin"), SerializationError);

  // Parameters an engine casts to an integer type must fit that type
  // after truncation; casting an out-of-range double is undefined.  Both
  // entry points reject them, naming the key.
  struct IntCase {
    const char* line;
    const char* kind;
    const char* key;
    double value;
  };
  for (const IntCase& c : {IntCase{"name=a occlusion{seed_offset=-1}",
                                   "occlusion", "seed_offset", -1.0},
                           IntCase{"name=b cut_in{period=1e12}", "cut_in",
                                   "period", 1e12},
                           IntCase{"name=c crossers{max_walkers=-1}",
                                   "crossers", "max_walkers", -1.0}}) {
    ScenarioSpec spec;
    spec.primitives.push_back(ScenarioPrimitive{c.kind, {{c.key, c.value}}});
    for (int entry = 0; entry < 2; ++entry) {
      try {
        if (entry == 0) parse_scenario_spec(c.line);
        else generate_scenario(spec, 10, 1);
        ADD_FAILURE() << c.line << " did not throw (entry " << entry << ")";
      } catch (const SerializationError& e) {
        EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
            << e.what();
      }
    }
  }
  // Values at the edge of each type stay valid; fractions truncate as
  // before.
  EXPECT_NO_THROW(parse_scenario_spec(
      "name=d cut_in{period=2147483647.9} crossers{max_walkers=-0.5} "
      "occlusion{seed_offset=18446744073709549568}"));

  // Integer ranges an engine draws from must not be inverted after
  // truncation, counting a missing bound at the engine's default.  Both
  // entry points reject them, naming both keys.
  struct RangeCase {
    const char* line;
    ScenarioPrimitive prim;
    const char* lo_key;
    const char* hi_key;
  };
  for (const RangeCase& c :
       {RangeCase{"name=e occlusion{len_lo=300}",
                  {"occlusion", {{"len_lo", 300.0}}}, "len_lo", "len_hi"},
        RangeCase{"name=f occlusion{len_lo=200,len_hi=100}",
                  {"occlusion", {{"len_lo", 200.0}, {"len_hi", 100.0}}},
                  "len_lo", "len_hi"},
        RangeCase{"name=g lead_vehicle{brake_frames_lo=130,"
                  "brake_frames_hi=120}",
                  {"lead_vehicle",
                   {{"brake_frames_lo", 130.0}, {"brake_frames_hi", 120.0}}},
                  "brake_frames_lo", "brake_frames_hi"}}) {
    ScenarioSpec spec;
    spec.primitives.push_back(c.prim);
    for (int entry = 0; entry < 2; ++entry) {
      try {
        if (entry == 0) parse_scenario_spec(c.line);
        else generate_scenario(spec, 10, 1);
        ADD_FAILURE() << c.line << " did not throw (entry " << entry << ")";
      } catch (const SerializationError& e) {
        EXPECT_NE(std::string(e.what()).find(c.lo_key), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(c.hi_key), std::string::npos)
            << e.what();
      }
    }
  }
  // Equal bounds, and bounds equal after truncation, stay valid.
  EXPECT_NO_THROW(parse_scenario_spec(
      "name=h occlusion{len_lo=240} lead_vehicle{brake_frames_lo=120.9,"
      "brake_frames_hi=120.2}"));
}

// ---------------------------------------------------------------------------
// Scene invariants over randomly composed specs (property test).
// ---------------------------------------------------------------------------

ScenarioSpec random_spec(Rng& rng) {
  ScenarioSpec spec;
  spec.name = "prop";
  spec.ego_speed_mps = rng.uniform(5.0, 35.0);
  spec.vis_lo = rng.uniform(0.5, 0.9);
  spec.vis_hi = rng.uniform(spec.vis_lo, 1.0);
  const std::vector<std::string>& kinds = scenario_primitive_kinds();
  const int n = rng.uniform_int(1, 4);
  for (int i = 0; i < n; ++i) {
    ScenarioPrimitive p;
    p.kind = kinds[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(kinds.size()) - 1))];
    if (p.kind == "traffic" && rng.bernoulli(0.5)) {
      p.params["burst_period"] = 60.0;
      p.params["burst_len"] = 20.0;
      p.params["burst_factor"] = 3.0;
    }
    if (p.kind == "speed_regime") p.params["target"] = rng.uniform(3.0, 30.0);
    spec.primitives.push_back(std::move(p));
  }
  return spec;
}

TEST(DslProperties, EveryGeneratedScenarioSatisfiesSceneInvariants) {
  Rng meta(0xC0FFEE);
  for (int trial = 0; trial < 40; ++trial) {
    const ScenarioSpec spec = random_spec(meta);
    const std::uint64_t seed = meta.next_u64();
    const Scenario sc = generate_scenario(spec, 250, seed);
    ASSERT_EQ(sc.frame_count(), 250u);

    double prev_time = -1.0;
    for (const Scene& s : sc.scenes) {
      // Monotone clock.
      ASSERT_GT(s.time_s, prev_time);
      prev_time = s.time_s;
      // Visibility stays a valid sensor attenuation.
      ASSERT_GT(s.visibility, 0.0);
      ASSERT_LE(s.visibility, 1.0);
      ASSERT_GT(s.ego_speed_mps, 0.0);
      for (const Actor& a : s.actors) ASSERT_GT(a.distance_m, 0.0);

      // dominant() consistency: in-corridor, in-range, minimal distance.
      if (const Actor* d = s.dominant()) {
        ASSERT_LE(std::fabs(d->lateral_m), kCorridorHalfWidth_m);
        ASSERT_LE(d->distance_m, kSensorRange_m);
        for (const Actor& a : s.actors) {
          if (std::fabs(a.lateral_m) <= kCorridorHalfWidth_m &&
              a.distance_m <= kSensorRange_m) {
            ASSERT_LE(d->distance_m, a.distance_m);
          }
        }
      } else {
        for (const Actor& a : s.actors) {
          ASSERT_FALSE(std::fabs(a.lateral_m) <= kCorridorHalfWidth_m &&
                       a.distance_m <= kSensorRange_m);
        }
      }
    }
    // Byte-determinism of the random composition, too.
    EXPECT_EQ(scenario_bytes(generate_scenario(spec, 250, seed)),
              scenario_bytes(sc));
  }
}

// ---------------------------------------------------------------------------
// The shared suite resolver.
// ---------------------------------------------------------------------------

TEST(SuiteResolver, ResolvesLegacyBuiltinAndDslForms) {
  // Every built-in name (the five evaluation suites included) → the
  // built-in spec's expansion.
  EXPECT_EQ(scenario_bytes(make_suite_or_dsl("highway", 120, 3)),
            scenario_bytes(
                generate_scenario(builtin_scenario_spec("highway"), 120, 3)));
  EXPECT_EQ(scenario_bytes(make_suite_or_dsl("rush_hour", 120, 3)),
            scenario_bytes(
                generate_scenario(builtin_scenario_spec("rush_hour"), 120, 3)));
  // "dsl:<line>" → parse + expand; the round-trip matches the spec.
  const ScenarioSpec spec = builtin_scenario_spec("swarm_cut_in");
  EXPECT_TRUE(is_dsl_suite(dsl_suite_string(spec)));
  EXPECT_EQ(scenario_bytes(make_suite_or_dsl(dsl_suite_string(spec), 120, 3)),
            scenario_bytes(generate_scenario(spec, 120, 3)));

  EXPECT_THROW(make_suite_or_dsl("no_such_suite", 10, 1), PreconditionError);
  EXPECT_THROW(make_suite_or_dsl("dsl:ego=1", 10, 1), SerializationError);
}

}  // namespace
}  // namespace rrp::sim
