#include "sim/scenario_gen.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <memory>
#include <sstream>

#include "util/checks.h"
#include "util/rng.h"

namespace rrp::sim {

namespace {

// ---------------------------------------------------------------------------
// Canonical number formatting: shortest decimal that round-trips exactly.
// ---------------------------------------------------------------------------

std::string format_double(double v) {
  for (int prec = 15; prec <= 17; ++prec) {
    std::ostringstream os;
    os << std::setprecision(prec) << v;
    std::string s = os.str();
    std::size_t pos = 0;
    if (std::stod(s, &pos) == v && pos == s.size()) return s;
  }
  RRP_CHECK_MSG(false, "double failed to round-trip: " << v);
  return {};
}

double parse_double(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos == s.size() && std::isfinite(v)) return v;
  } catch (const std::exception&) {
  }
  throw SerializationError("scenario spec: bad number '" + s + "' for " +
                           what);
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos, 0);
    if (pos == s.size()) return v;
  } catch (const std::exception&) {
  }
  throw SerializationError("scenario spec: bad integer '" + s + "' for " +
                           what);
}

bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Primitive registry: kind names, overlay flag, known parameter keys.
// ---------------------------------------------------------------------------

/// The integer type an engine casts a parameter to.  Casting a double
/// whose truncation does not fit the type is undefined behaviour, so
/// validation rejects such values up front.
enum class IntCast { Int, Size, U64 };

/// An integer range an engine draws with Rng::uniform_int(lo, hi), which
/// requires lo <= hi after the int casts; a missing key takes the
/// engine's default.
struct IntRange {
  const char* lo_key;
  const char* hi_key;
  double lo_default;
  double hi_default;
};

// Defaults of the drawn integer ranges, shared by engines and validation.
constexpr double kBrakeFramesLo = 45.0;
constexpr double kBrakeFramesHi = 120.0;
constexpr double kOcclusionLenLo = 90.0;
constexpr double kOcclusionLenHi = 240.0;

struct KindInfo {
  bool overlay = false;
  std::vector<const char*> keys;
  std::vector<std::pair<const char*, IntCast>> int_keys = {};
  std::vector<IntRange> int_ranges = {};
};

const std::map<std::string, KindInfo>& kind_table() {
  static const std::map<std::string, KindInfo> table = {
      {"lead_vehicle",
       {false,
        {"gap_lo", "gap_hi", "closing_jitter", "jitter_sigma", "closing_clamp",
         "brake_prob", "brake_lo", "brake_hi", "brake_frames_lo",
         "brake_frames_hi", "resolve_gap", "resolve_lo", "resolve_hi",
         "far_gap", "near_gap"},
        {{"brake_frames_lo", IntCast::Int},
         {"brake_frames_hi", IntCast::Int}},
        {{"brake_frames_lo", "brake_frames_hi", kBrakeFramesLo,
          kBrakeFramesHi}}}},
      {"debris",
       {false,
        {"prob", "gap_lo", "gap_hi", "lat", "closing_frac", "cap"},
        {{"cap", IntCast::Size}}}},
      {"traffic",
       {false,
        {"spawn_prob", "max_actors", "vulnerable_frac", "vehicle_frac",
         "ped_frac", "gap_lo", "gap_hi", "lat", "closing_lo", "closing_hi",
         "drift_sigma", "brake_gap", "brake_prob", "brake_cap", "burst_period",
         "burst_len", "burst_factor"},
        {{"max_actors", IntCast::Size},
         {"burst_period", IntCast::Int},
         {"burst_len", IntCast::Int}}}},
      {"cut_in",
       {false,
        {"period", "count", "gap_lo", "gap_hi", "closing_lo", "closing_hi",
         "lat", "resolve_gap", "resolve_lo", "resolve_hi", "drop_gap",
         "lead_gap"},
        {{"period", IntCast::Int}, {"count", IntCast::Int}}}},
      {"crossers",
       {false,
        {"spawn_prob", "max_walkers", "ped_frac", "gap_lo", "gap_hi",
         "side_lo", "side_hi", "closing", "speed_lo", "speed_hi", "exit_lat",
         "exit_gap"},
        {{"max_walkers", IntCast::Size}}}},
      {"speed_regime", {false, {"target", "start", "end"}}},
      {"occlusion",
       {true,
        {"seed_offset", "prob", "len_lo", "len_hi", "vis_lo", "vis_hi"},
        {{"seed_offset", IntCast::U64},
         {"len_lo", IntCast::Int},
         {"len_hi", IntCast::Int}},
        {{"len_lo", "len_hi", kOcclusionLenLo, kOcclusionLenHi}}}},
      {"visibility_ramp", {true, {"to", "start", "end", "floor"}}},
  };
  return table;
}

const KindInfo& kind_info(const std::string& kind) {
  const auto it = kind_table().find(kind);
  if (it == kind_table().end())
    throw SerializationError("scenario spec: unknown primitive kind '" + kind +
                             "'");
  return it->second;
}

/// True iff static_cast to `type` is defined for `v`: its truncation is
/// representable (NaN and infinities never are).
bool fits(double v, IntCast type) {
  const double t = std::trunc(v);
  switch (type) {
    case IntCast::Int:
      return t >= std::numeric_limits<int>::min() &&
             t <= std::numeric_limits<int>::max();
    case IntCast::Size:
      return t >= 0.0 &&
             t < std::ldexp(1.0, std::numeric_limits<std::size_t>::digits);
    case IntCast::U64:
      return t >= 0.0 && t < std::ldexp(1.0, 64);
  }
  return false;
}

void validate_primitive(const ScenarioPrimitive& p) {
  const KindInfo& info = kind_info(p.kind);
  for (const auto& [key, value] : p.params) {
    const bool known = std::find_if(info.keys.begin(), info.keys.end(),
                                    [&key](const char* k) {
                                      return key == k;
                                    }) != info.keys.end();
    if (!known)
      throw SerializationError("scenario spec: primitive '" + p.kind +
                               "' has no parameter '" + key + "'");
    for (const auto& [int_key, type] : info.int_keys)
      if (key == int_key && !fits(value, type))
        throw SerializationError("scenario spec: primitive '" + p.kind +
                                 "' parameter '" + key +
                                 "' is out of range for its integer type");
  }
  // Every key fits its cast now, so the truncations below are defined.
  for (const IntRange& r : info.int_ranges) {
    const int lo = static_cast<int>(p.get(r.lo_key, r.lo_default));
    const int hi = static_cast<int>(p.get(r.hi_key, r.hi_default));
    if (lo > hi)
      throw SerializationError(
          "scenario spec: primitive '" + p.kind + "' has " + r.lo_key + " " +
          std::to_string(lo) + " above " + r.hi_key + " " +
          std::to_string(hi));
  }
}

void validate_spec(const ScenarioSpec& spec) {
  if (!valid_name(spec.name))
    throw SerializationError("scenario spec: bad name '" + spec.name + "'");
  if (!(spec.dt_s > 0.0))
    throw SerializationError("scenario spec: dt must be positive");
  if (!(spec.vis_lo <= spec.vis_hi) || spec.vis_lo <= 0.0 ||
      spec.vis_hi > 1.0)
    throw SerializationError(
        "scenario spec: vis range must satisfy 0 < lo <= hi <= 1");
  for (const ScenarioPrimitive& p : spec.primitives) validate_primitive(p);
}

// ---------------------------------------------------------------------------
// Primitive engines.  Process primitives share ONE main Rng stream in a
// fixed phase order per frame (pre_step → project → emit → step_actors →
// post_step).  The draw order within each phase is frozen: the five
// evaluation suites' bytes (and every golden trace and gated baseline
// built on them) are pinned by digest, so reordering a draw is a
// behaviour change, not a refactor.
// ---------------------------------------------------------------------------

class Primitive {
 public:
  explicit Primitive(const ScenarioPrimitive& p) : p_(p) {}
  virtual ~Primitive() = default;

  /// One-time draws before the first frame (initial actors).
  virtual void setup(Scene& s, Rng& rng, int frames) {
    (void)s, (void)rng, (void)frames;
  }
  /// Per-frame draws/mutations on the persistent scene, before emission.
  virtual void pre_step(int f, double dt, Scene& s, Rng& rng) {
    (void)f, (void)dt, (void)s, (void)rng;
  }
  /// Appends transient actors to the EMITTED copy only (crossers): the
  /// persistent scene never sees them, so step_actors leaves them alone.
  virtual void project(Scene& out) { (void)out; }
  /// Per-frame cleanup after step_actors (respawns, internal kinematics).
  virtual void post_step(int f, double dt, Scene& s, Rng& rng) {
    (void)f, (void)dt, (void)s, (void)rng;
  }
  /// Overlay pass over the emitted scenario (own derived Rng stream).
  virtual void overlay(Scenario& sc, Rng& rng) { (void)sc, (void)rng; }

 protected:
  double get(const char* key, double fallback) const {
    return p_.get(key, fallback);
  }

 private:
  ScenarioPrimitive p_;
};

/// Persistent lead that mostly keeps its gap; rare hard-braking events.
/// Parity: the "highway" suite's lead; the draw order is pinned.
class LeadVehiclePrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void setup(Scene& s, Rng& rng, int) override {
    s.actors.push_back(spawn(rng));
  }

  void pre_step(int, double, Scene& s, Rng& rng) override {
    if (s.actors.empty() || s.actors.front().type != ActorType::Vehicle)
      return;  // composed specs only; the parity spec always has a lead
    Actor& l = s.actors.front();
    if (braking_left_ > 0) {
      --braking_left_;
      if (l.distance_m < get("resolve_gap", 14.0) || braking_left_ == 0) {
        l.closing_mps =
            rng.uniform(get("resolve_lo", -4.0), get("resolve_hi", -2.0));
        braking_left_ = 0;
      }
    } else {
      l.closing_mps += rng.normal(0.0, get("jitter_sigma", 0.15));
      const double clamp = get("closing_clamp", 2.0);
      l.closing_mps = std::clamp(l.closing_mps, -clamp, clamp);
      if (rng.bernoulli(get("brake_prob", 0.004))) {
        l.closing_mps = rng.uniform(get("brake_lo", 7.0), get("brake_hi", 11.0));
        braking_left_ = rng.uniform_int(
            static_cast<int>(get("brake_frames_lo", kBrakeFramesLo)),
            static_cast<int>(get("brake_frames_hi", kBrakeFramesHi)));
      }
    }
    if (l.distance_m > get("far_gap", 75.0))
      l.closing_mps = std::max(l.closing_mps, 0.5);
    if (l.distance_m < get("near_gap", 8.0))
      l.closing_mps = std::min(l.closing_mps, -1.0);
  }

  void post_step(int, double, Scene& s, Rng& rng) override {
    if (s.actors.empty() || s.actors.front().type != ActorType::Vehicle)
      s.actors.insert(s.actors.begin(), spawn(rng));
  }

 private:
  Actor spawn(Rng& rng) {
    Actor lead;
    lead.type = ActorType::Vehicle;
    lead.distance_m = rng.uniform(get("gap_lo", 45.0), get("gap_hi", 65.0));
    const double jitter = get("closing_jitter", 0.5);
    lead.closing_mps = rng.uniform(-jitter, jitter);
    return lead;
  }

  int braking_left_ = 0;
};

/// Occasional road debris far ahead.  Parity: the "highway" suite's debris.
class DebrisPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void pre_step(int, double, Scene& s, Rng& rng) override {
    if (s.actors.size() <= static_cast<std::size_t>(get("cap", 1.0)) &&
        rng.bernoulli(get("prob", 0.002))) {
      Actor debris;
      debris.type = ActorType::Obstacle;
      debris.distance_m = rng.uniform(get("gap_lo", 40.0), get("gap_hi", 60.0));
      debris.closing_mps = s.ego_speed_mps * get("closing_frac", 0.4);
      const double lat = get("lat", 1.0);
      debris.lateral_m = rng.uniform(-lat, lat);
      s.actors.push_back(debris);
    }
  }
};

/// Urban traffic: mixed spawns, lateral drift, near-range braking, with
/// optional density bursts (spawn probability multiplied inside periodic
/// windows — no extra draws, so burst_period=0 leaves the stream of the
/// "urban" suite unchanged).  Parity: "urban".
class TrafficPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void pre_step(int f, double, Scene& s, Rng& rng) override {
    double p = get("spawn_prob", 0.03);
    const int period = static_cast<int>(get("burst_period", 0.0));
    if (period > 0 && f % period < static_cast<int>(get("burst_len", 0.0)))
      p = std::min(1.0, p * get("burst_factor", 1.0));
    if (s.actors.size() < static_cast<std::size_t>(get("max_actors", 3.0)) &&
        rng.bernoulli(p)) {
      Actor a;
      const double roll = rng.uniform();
      if (roll < get("vulnerable_frac", 0.55))
        a.type = rng.bernoulli(get("ped_frac", 0.6)) ? ActorType::Pedestrian
                                                     : ActorType::Cyclist;
      else if (roll < get("vehicle_frac", 0.85))
        a.type = ActorType::Vehicle;
      else
        a.type = ActorType::Obstacle;
      a.distance_m = rng.uniform(get("gap_lo", 18.0), get("gap_hi", 40.0));
      const double lat = get("lat", 3.0);
      a.lateral_m = rng.uniform(-lat, lat);
      a.closing_mps = rng.uniform(get("closing_lo", 2.0), get("closing_hi", 7.0));
      s.actors.push_back(a);
    }
    for (Actor& a : s.actors) {
      if (a.type == ActorType::Pedestrian || a.type == ActorType::Cyclist)
        a.lateral_m += rng.normal(0.0, get("drift_sigma", 0.08));
      if (a.distance_m < get("brake_gap", 6.0) &&
          rng.bernoulli(get("brake_prob", 0.3)))
        a.closing_mps = std::min(a.closing_mps, get("brake_cap", 1.0));
    }
  }
};

/// Scripted (multi-actor) cut-ins at a fixed cadence, resolving once
/// close; keeps a calm background lead alive.  Parity: "cut_in" with
/// count=1 and period=0 (0 derives the period max(180, frames/4)).
class CutInPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void setup(Scene& s, Rng&, int frames) override {
    period_ = static_cast<int>(get("period", 0.0));
    if (period_ <= 0) period_ = std::max(180, frames / 4);
    s.actors.push_back(background_lead());
  }

  void pre_step(int f, double, Scene& s, Rng& rng) override {
    if (f > 0 && f % period_ == period_ / 2) {
      const int count = std::max(1, static_cast<int>(get("count", 1.0)));
      for (int i = 0; i < count; ++i) {
        Actor cut;
        cut.type = ActorType::Vehicle;
        cut.distance_m = rng.uniform(get("gap_lo", 18.0), get("gap_hi", 30.0));
        cut.closing_mps =
            rng.uniform(get("closing_lo", 8.0), get("closing_hi", 14.0));
        const double lat = get("lat", 0.8);
        cut.lateral_m = rng.uniform(-lat, lat);
        s.actors.push_back(cut);
      }
    }
    for (Actor& a : s.actors)
      if (a.distance_m < get("resolve_gap", 8.0) && a.closing_mps > 0.0)
        a.closing_mps = rng.uniform(get("resolve_lo", -6.0), get("resolve_hi", -4.0));
  }

  void post_step(int, double, Scene& s, Rng&) override {
    const double drop = get("drop_gap", 90.0);
    s.actors.erase(std::remove_if(s.actors.begin(), s.actors.end(),
                                  [drop](const Actor& a) {
                                    return a.distance_m > drop;
                                  }),
                   s.actors.end());
    if (s.actors.empty()) s.actors.push_back(background_lead());
  }

 private:
  Actor background_lead() const {
    Actor lead;
    lead.type = ActorType::Vehicle;
    lead.distance_m = get("lead_gap", 60.0);
    lead.closing_mps = 0.0;
    return lead;
  }

  int period_ = 180;
};

/// Pedestrians/cyclists crossing the corridor LATERALLY.  Walkers are
/// internal (projected into emitted scenes only), so step_actors never
/// touches them.  Parity: "intersection".
class CrossersPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void pre_step(int, double, Scene&, Rng& rng) override {
    if (walkers_.size() <
            static_cast<std::size_t>(get("max_walkers", 2.0)) &&
        rng.bernoulli(get("spawn_prob", 0.02))) {
      Walker w;
      w.actor.type = rng.bernoulli(get("ped_frac", 0.6))
                         ? ActorType::Pedestrian
                         : ActorType::Cyclist;
      w.actor.distance_m = rng.uniform(get("gap_lo", 6.0), get("gap_hi", 18.0));
      const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
      w.actor.lateral_m =
          side * rng.uniform(get("side_lo", 3.0), get("side_hi", 4.5));
      const double closing = get("closing", 0.5);
      w.actor.closing_mps = rng.uniform(-closing, closing);
      w.lateral_mps = -side * rng.uniform(get("speed_lo", 1.0), get("speed_hi", 2.0));
      walkers_.push_back(w);
    }
  }

  void project(Scene& out) override {
    for (const Walker& w : walkers_) out.actors.push_back(w.actor);
  }

  void post_step(int, double dt, Scene&, Rng&) override {
    for (Walker& w : walkers_) {
      w.actor.lateral_m += w.lateral_mps * dt;
      w.actor.distance_m -= w.actor.closing_mps * dt;
    }
    const double exit_lat = get("exit_lat", 5.0);
    const double exit_gap = get("exit_gap", 0.5);
    walkers_.erase(std::remove_if(walkers_.begin(), walkers_.end(),
                                  [exit_lat, exit_gap](const Walker& w) {
                                    return std::fabs(w.actor.lateral_m) >
                                               exit_lat ||
                                           w.actor.distance_m <= exit_gap;
                                  }),
                   walkers_.end());
  }

 private:
  struct Walker {
    Actor actor;
    double lateral_mps = 0.0;
  };
  std::vector<Walker> walkers_;
};

/// Deterministic ego-speed profile: linear ramp from the spec's base speed
/// to `target` over the [start, end] fraction of the run.  No draws.
class SpeedRegimePrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void setup(Scene& s, Rng&, int frames) override {
    base_ = s.ego_speed_mps;
    frames_ = frames;
  }

  void pre_step(int f, double, Scene& s, Rng&) override {
    const double target = get("target", base_);
    const double start = get("start", 0.0);
    const double end = get("end", 1.0);
    const double t =
        frames_ > 1 ? static_cast<double>(f) / (frames_ - 1) : 1.0;
    const double span = std::max(1e-9, end - start);
    const double a = std::clamp((t - start) / span, 0.0, 1.0);
    s.ego_speed_mps = base_ + (target - base_) * a;
  }

 private:
  double base_ = 0.0;
  int frames_ = 1;
};

/// Overlay: visibility drop windows (fog banks / glare), drawn from its
/// own Rng(seed + seed_offset) stream.  Parity: "degraded".
class OcclusionPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void overlay(Scenario& sc, Rng& rng) override {
    int window_left = 0;
    double window_vis = 1.0;
    for (Scene& s : sc.scenes) {
      if (window_left == 0 && rng.bernoulli(get("prob", 0.01))) {
        window_left =
            rng.uniform_int(static_cast<int>(get("len_lo", kOcclusionLenLo)),
                            static_cast<int>(get("len_hi", kOcclusionLenHi)));
        window_vis = rng.uniform(get("vis_lo", 0.55), get("vis_hi", 0.7));
      }
      if (window_left > 0) {
        --window_left;
        s.visibility = window_vis;
      }
    }
  }
};

/// Overlay: deterministic visibility ramp (dusk / worsening weather).
/// Multiplies visibility by a factor sliding from 1 to `to` over the
/// [start, end] fraction of the run; no draws.
class VisibilityRampPrim final : public Primitive {
 public:
  using Primitive::Primitive;

  void overlay(Scenario& sc, Rng&) override {
    const double to = get("to", 0.6);
    const double start = get("start", 0.0);
    const double end = get("end", 1.0);
    const double floor = get("floor", 0.05);
    const int n = static_cast<int>(sc.scenes.size());
    for (int f = 0; f < n; ++f) {
      const double t = n > 1 ? static_cast<double>(f) / (n - 1) : 1.0;
      const double span = std::max(1e-9, end - start);
      const double a = std::clamp((t - start) / span, 0.0, 1.0);
      const double factor = 1.0 + (to - 1.0) * a;
      Scene& s = sc.scenes[f];
      s.visibility = std::clamp(s.visibility * factor, floor, 1.0);
    }
  }
};

std::unique_ptr<Primitive> make_primitive(const ScenarioPrimitive& p) {
  if (p.kind == "lead_vehicle") return std::make_unique<LeadVehiclePrim>(p);
  if (p.kind == "debris") return std::make_unique<DebrisPrim>(p);
  if (p.kind == "traffic") return std::make_unique<TrafficPrim>(p);
  if (p.kind == "cut_in") return std::make_unique<CutInPrim>(p);
  if (p.kind == "crossers") return std::make_unique<CrossersPrim>(p);
  if (p.kind == "speed_regime") return std::make_unique<SpeedRegimePrim>(p);
  if (p.kind == "occlusion") return std::make_unique<OcclusionPrim>(p);
  if (p.kind == "visibility_ramp")
    return std::make_unique<VisibilityRampPrim>(p);
  throw SerializationError("scenario spec: unknown primitive kind '" +
                           p.kind + "'");
}

ScenarioPrimitive prim(std::string kind,
                       std::map<std::string, double> params = {}) {
  ScenarioPrimitive p;
  p.kind = std::move(kind);
  p.params = std::move(params);
  return p;
}

}  // namespace

double ScenarioPrimitive::get(const std::string& key, double fallback) const {
  const auto it = params.find(key);
  return it == params.end() ? fallback : it->second;
}

const std::vector<std::string>& scenario_primitive_kinds() {
  static const std::vector<std::string> kinds = {
      "lead_vehicle", "debris",       "traffic",   "cut_in",
      "crossers",     "speed_regime", "occlusion", "visibility_ramp"};
  return kinds;
}

Scenario generate_scenario(const ScenarioSpec& spec, int frames,
                           std::uint64_t seed) {
  RRP_CHECK(frames > 0);
  validate_spec(spec);

  Scenario sc;
  sc.name = spec.name;
  sc.dt_s = spec.dt_s;
  sc.scenes.reserve(static_cast<std::size_t>(frames));

  // The ONE main stream every process primitive draws from, in spec order.
  Rng rng((seed ^ spec.seed_xor) + spec.seed_add);
  Scene s;
  s.ego_speed_mps = spec.ego_speed_mps;
  s.visibility = rng.uniform(spec.vis_lo, spec.vis_hi);

  std::vector<std::unique_ptr<Primitive>> process;
  // Overlays keep their position among ALL primitives for the derived-seed
  // default, but run as a post-pass in spec order.
  std::vector<std::pair<std::size_t, std::unique_ptr<Primitive>>> overlays;
  std::vector<std::uint64_t> overlay_offsets;
  for (std::size_t i = 0; i < spec.primitives.size(); ++i) {
    const ScenarioPrimitive& p = spec.primitives[i];
    if (kind_info(p.kind).overlay) {
      const double fallback = 1000003.0 * static_cast<double>(i + 1);
      overlay_offsets.push_back(
          static_cast<std::uint64_t>(p.get("seed_offset", fallback)));
      overlays.emplace_back(i, make_primitive(p));
    } else {
      process.push_back(make_primitive(p));
    }
  }

  for (auto& p : process) p->setup(s, rng, frames);

  for (int f = 0; f < frames; ++f) {
    s.time_s = f * spec.dt_s;
    for (auto& p : process) p->pre_step(f, spec.dt_s, s, rng);
    Scene out = s;
    for (auto& p : process) p->project(out);
    sc.scenes.push_back(std::move(out));
    step_actors(s, spec.dt_s);
    for (auto& p : process) p->post_step(f, spec.dt_s, s, rng);
  }

  for (std::size_t o = 0; o < overlays.size(); ++o) {
    Rng orng(seed + overlay_offsets[o]);
    overlays[o].second->overlay(sc, orng);
  }
  return sc;
}

std::string encode_scenario_spec(const ScenarioSpec& spec) {
  validate_spec(spec);
  std::ostringstream os;
  os << "name=" << spec.name;
  os << " ego=" << format_double(spec.ego_speed_mps);
  os << " vis=" << format_double(spec.vis_lo) << ','
     << format_double(spec.vis_hi);
  if (spec.dt_s != 1.0 / 30.0) os << " dt=" << format_double(spec.dt_s);
  if (spec.seed_xor != 0) os << " seed_xor=" << spec.seed_xor;
  if (spec.seed_add != 0) os << " seed_add=" << spec.seed_add;
  for (const ScenarioPrimitive& p : spec.primitives) {
    os << ' ' << p.kind << '{';
    bool first = true;
    for (const auto& [key, value] : p.params) {
      if (!first) os << ',';
      os << key << '=' << format_double(value);
      first = false;
    }
    os << '}';
  }
  return os.str();
}

ScenarioSpec parse_scenario_spec(const std::string& line) {
  ScenarioSpec spec;
  spec.name.clear();  // a spec line must name itself

  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t brace = token.find('{');
    if (brace != std::string::npos) {
      if (token.back() != '}')
        throw SerializationError("scenario spec: unterminated primitive '" +
                                 token + "'");
      ScenarioPrimitive p;
      p.kind = token.substr(0, brace);
      const std::string inner =
          token.substr(brace + 1, token.size() - brace - 2);
      std::size_t pos = 0;
      while (pos < inner.size()) {
        std::size_t comma = inner.find(',', pos);
        if (comma == std::string::npos) comma = inner.size();
        const std::string kv = inner.substr(pos, comma - pos);
        const std::size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
          throw SerializationError(
              "scenario spec: bad primitive parameter '" + kv + "' in '" +
              token + "'");
        p.params[kv.substr(0, eq)] =
            parse_double(kv.substr(eq + 1), p.kind + "." + kv.substr(0, eq));
        pos = comma + 1;
      }
      validate_primitive(p);
      spec.primitives.push_back(std::move(p));
      continue;
    }
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
      throw SerializationError("scenario spec: bad token '" + token + "'");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "name") {
      spec.name = value;
    } else if (key == "ego") {
      spec.ego_speed_mps = parse_double(value, "ego");
    } else if (key == "dt") {
      spec.dt_s = parse_double(value, "dt");
    } else if (key == "vis") {
      const std::size_t comma = value.find(',');
      if (comma == std::string::npos)
        throw SerializationError(
            "scenario spec: vis needs 'lo,hi', got '" + value + "'");
      spec.vis_lo = parse_double(value.substr(0, comma), "vis lo");
      spec.vis_hi = parse_double(value.substr(comma + 1), "vis hi");
    } else if (key == "seed_xor") {
      spec.seed_xor = parse_u64(value, "seed_xor");
    } else if (key == "seed_add") {
      spec.seed_add = parse_u64(value, "seed_add");
    } else {
      throw SerializationError("scenario spec: unknown key '" + key + "'");
    }
  }
  if (spec.name.empty())
    throw SerializationError("scenario spec: missing 'name=<id>'");
  validate_spec(spec);
  return spec;
}

std::vector<std::string> builtin_scenario_names() {
  return {"highway",  "urban",        "cut_in",    "degraded",
          "intersection", "swarm_cut_in", "rush_hour", "fog_ramp"};
}

bool is_builtin_scenario(const std::string& name) {
  const std::vector<std::string> names = builtin_scenario_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

ScenarioSpec builtin_scenario_spec(const std::string& name) {
  ScenarioSpec s;
  s.name = name;
  if (name == "highway") {
    s.ego_speed_mps = 30.0;
    s.vis_lo = 0.85;
    s.vis_hi = 1.0;
    s.primitives = {prim("lead_vehicle"), prim("debris")};
    return s;
  }
  if (name == "urban") {
    s.ego_speed_mps = 12.0;
    s.vis_lo = 0.8;
    s.vis_hi = 1.0;
    s.primitives = {prim("traffic")};
    return s;
  }
  if (name == "cut_in") {
    s.ego_speed_mps = 25.0;
    s.vis_lo = 0.85;
    s.vis_hi = 1.0;
    s.primitives = {prim("cut_in")};
    return s;
  }
  if (name == "degraded") {
    // Urban traffic under a transformed main seed + occlusion windows on
    // the original seed + 17: two streams, so the fog never perturbs the
    // traffic.
    s.ego_speed_mps = 12.0;
    s.vis_lo = 0.8;
    s.vis_hi = 1.0;
    s.seed_xor = 0xDE6BADEDull;
    s.primitives = {prim("traffic"), prim("occlusion", {{"seed_offset", 17.0}})};
    return s;
  }
  if (name == "intersection") {
    s.ego_speed_mps = 8.0;
    s.vis_lo = 0.8;
    s.vis_hi = 1.0;
    s.primitives = {prim("crossers")};
    return s;
  }
  if (name == "swarm_cut_in") {
    // Multi-actor cut-ins over light traffic: several vehicles swerve in
    // per event, so criticality stacks faster than any single resolve.
    s.ego_speed_mps = 25.0;
    s.vis_lo = 0.8;
    s.vis_hi = 1.0;
    s.primitives = {prim("cut_in", {{"period", 150.0}, {"count", 3.0}}),
                    prim("traffic", {{"spawn_prob", 0.01}, {"max_actors", 2.0}})};
    return s;
  }
  if (name == "rush_hour") {
    // Dense bursty traffic + crossers while the ego decelerates into the
    // jam: sustained High/Critical pressure on the controller.
    s.ego_speed_mps = 10.0;
    s.vis_lo = 0.75;
    s.vis_hi = 1.0;
    s.primitives = {
        prim("traffic", {{"spawn_prob", 0.05},
                         {"max_actors", 5.0},
                         {"burst_period", 300.0},
                         {"burst_len", 120.0},
                         {"burst_factor", 2.5}}),
        prim("crossers", {{"spawn_prob", 0.015}}),
        prim("speed_regime", {{"target", 6.0}, {"start", 0.2}, {"end", 0.8}})};
    return s;
  }
  if (name == "fog_ramp") {
    // Urban traffic while visibility ramps down and fog banks roll in:
    // the perception-degradation axis of the campaign.
    s.ego_speed_mps = 14.0;
    s.vis_lo = 0.85;
    s.vis_hi = 1.0;
    s.primitives = {
        prim("traffic"),
        prim("visibility_ramp", {{"to", 0.45}, {"start", 0.1}, {"end", 0.6}}),
        prim("occlusion", {{"prob", 0.02},
                           {"vis_lo", 0.4},
                           {"vis_hi", 0.6},
                           {"seed_offset", 23.0}})};
    return s;
  }
  throw SerializationError("unknown built-in scenario '" + name + "'");
}

const char* const kDslSuitePrefix = "dsl:";

bool is_dsl_suite(const std::string& suite) {
  return suite.rfind(kDslSuitePrefix, 0) == 0;
}

std::string dsl_suite_string(const ScenarioSpec& spec) {
  return std::string(kDslSuitePrefix) + encode_scenario_spec(spec);
}

Scenario make_suite_or_dsl(const std::string& suite, int frames,
                           std::uint64_t seed) {
  if (is_dsl_suite(suite)) {
    const ScenarioSpec spec =
        parse_scenario_spec(suite.substr(std::string(kDslSuitePrefix).size()));
    return generate_scenario(spec, frames, seed);
  }
  if (is_builtin_scenario(suite))
    return generate_scenario(builtin_scenario_spec(suite), frames, seed);
  RRP_CHECK_MSG(false, "unknown scenario suite '" << suite << "'");
  return {};
}

}  // namespace rrp::sim
