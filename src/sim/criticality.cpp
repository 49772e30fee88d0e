#include "sim/criticality.h"

#include <cmath>
#include <limits>

namespace rrp::sim {

using core::CriticalityClass;

namespace {

constexpr double kNoCollision = std::numeric_limits<double>::infinity();

}  // namespace

double scene_min_ttc_s(const Scene& scene) {
  double best = kNoCollision;
  for (const Actor& a : scene.actors) {
    if (std::fabs(a.lateral_m) > kCorridorHalfWidth_m) continue;
    if (a.closing_mps <= 0.0) continue;  // opening gap, no collision course
    best = std::min(best, a.distance_m / a.closing_mps);
  }
  return best;
}

CriticalityClass classify_scene(const Scene& scene,
                                const CriticalityConfig& config) {
  const double ttc = scene_min_ttc_s(scene);
  CriticalityClass by_ttc = CriticalityClass::Low;
  if (ttc <= config.ttc_critical_s) by_ttc = CriticalityClass::Critical;
  else if (ttc <= config.ttc_high_s) by_ttc = CriticalityClass::High;
  else if (ttc <= config.ttc_medium_s) by_ttc = CriticalityClass::Medium;

  // Proximity floor: something close in the corridor is never "Low".
  CriticalityClass by_proximity = CriticalityClass::Low;
  const Actor* dom = scene.dominant();
  if (dom != nullptr) {
    if (dom->distance_m <= config.proximity_high_m)
      by_proximity = CriticalityClass::High;
    else if (dom->distance_m <= config.proximity_medium_m)
      by_proximity = CriticalityClass::Medium;
  }
  return std::max(by_ttc, by_proximity);
}

std::vector<CriticalityClass> criticality_trace(
    const Scenario& scenario, const CriticalityConfig& config) {
  std::vector<CriticalityClass> out;
  out.reserve(scenario.scenes.size());
  for (const Scene& s : scenario.scenes)
    out.push_back(classify_scene(s, config));
  return out;
}

}  // namespace rrp::sim
