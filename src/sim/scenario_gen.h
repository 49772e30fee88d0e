// scenario_gen.h — seeded, composable scenario DSL.
//
// The one scenario generator.  The five evaluation suites are five fixed
// points of the scenario space; the statistical safety case needs
// thousands.  A small DSL covers both: a ScenarioSpec composes primitives
// — lead-vehicle dynamics, debris, urban traffic with density bursts,
// multi-actor cut-ins, lateral crossers, speed regimes, occlusion windows
// and visibility ramps — and generate_scenario() expands a (spec, seed)
// pair into a Scenario that is byte-deterministic in both arguments, for
// any RRP_THREADS.
//
// Determinism contract.  All "process" primitives draw from ONE main
// rrp::Rng stream, in primitive order, in a fixed per-frame phase order
// (pre-step draws → scene emit → kinematic step → post-step draws), so a
// spec's draw sequence is a pure function of the spec.  "Overlay"
// primitives (occlusion, visibility ramp) run as a post-pass over the
// emitted scenes with their own derived Rng streams, so adding an overlay
// never perturbs the underlying traffic.  Randomness only via the seeded
// util/rng.h API: src/sim/scenario_gen.* is deliberately NOT on the
// rrp_lint ambient-RNG or chrono whitelists.
//
// Parity.  The five evaluation suites are built-in specs —
// builtin_scenario_spec("highway"|"urban"|"cut_in"|"degraded"|
// "intersection") — and are canonical: their expansions are byte-pinned
// by digest over a (frames, seed) grid (DslParity in
// test_scenario_gen.cpp), and the golden traces and gated baselines are
// built on them.
//
// Serialization.  encode_scenario_spec() renders a spec as one canonical
// line (sorted params, shortest round-trip doubles); parse_scenario_spec()
// inverts it.  The canonical line travels inside incident bundles as the
// suite string "dsl:<line>", so a worst-case campaign cell replays under
// `rrp_cli blackbox replay` with no side-channel files.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/scenario.h"

namespace rrp::sim {

/// One composable building block.  `kind` is one of the names returned by
/// scenario_primitive_kinds(); params not present take that kind's
/// defaults (which give the five evaluation suites).  Unknown kinds or
/// param keys, and values an integer parameter cannot hold, throw
/// rrp::SerializationError — specs are validated, not guessed.
struct ScenarioPrimitive {
  std::string kind;
  std::map<std::string, double> params;  // sorted => canonical encoding

  double get(const std::string& key, double fallback) const;
};

/// A complete scenario description: base state plus primitive list.
struct ScenarioSpec {
  std::string name = "dsl";
  double dt_s = 1.0 / 30.0;
  double ego_speed_mps = 25.0;
  /// Base visibility, drawn uniformly in [vis_lo, vis_hi) at setup.
  double vis_lo = 0.85;
  double vis_hi = 1.0;
  /// Main-stream seed transform: the process primitives draw from
  /// Rng((seed ^ seed_xor) + seed_add).  Lets derived suites (degraded =
  /// urban under a different main seed + an overlay) stay one spec.
  std::uint64_t seed_xor = 0;
  std::uint64_t seed_add = 0;
  std::vector<ScenarioPrimitive> primitives;
};

/// All primitive kind names, in a fixed order (process kinds first).
const std::vector<std::string>& scenario_primitive_kinds();

/// Expands (spec, seed) into a Scenario.  Byte-deterministic; validates
/// the spec (throws rrp::SerializationError on unknown kinds/params).
Scenario generate_scenario(const ScenarioSpec& spec, int frames,
                           std::uint64_t seed);

/// Canonical one-line encoding; parse(encode(s)) == s and
/// encode(parse(l)) is a fixed point for any valid line l.
std::string encode_scenario_spec(const ScenarioSpec& spec);

/// Parses a canonical line (or any whitespace-separated key=value /
/// kind{k=v,…} sequence).  Throws rrp::SerializationError with a
/// diagnostic on malformed input.
ScenarioSpec parse_scenario_spec(const std::string& line);

/// Built-in spec library: the five evaluation suites (in the order the
/// end-to-end table indexes them) plus generated families
/// ("swarm_cut_in", "rush_hour", "fog_ramp").
std::vector<std::string> builtin_scenario_names();
bool is_builtin_scenario(const std::string& name);
ScenarioSpec builtin_scenario_spec(const std::string& name);

/// The suite string an incident bundle carries for a DSL scenario:
/// "dsl:" + encode_scenario_spec(spec).
extern const char* const kDslSuitePrefix;
bool is_dsl_suite(const std::string& suite);
std::string dsl_suite_string(const ScenarioSpec& spec);

/// The shared scenario resolver: a built-in spec name or a "dsl:<line>"
/// string.  Every consumer (benches, examples, the CLI, the blackbox
/// replayer, the fault and Monte-Carlo campaigns) resolves suites here,
/// so all accept the same vocabulary.  An unknown name throws
/// rrp::PreconditionError.
Scenario make_suite_or_dsl(const std::string& suite, int frames,
                           std::uint64_t seed);

}  // namespace rrp::sim
