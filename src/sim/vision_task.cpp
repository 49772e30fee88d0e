#include "sim/vision_task.h"

#include <algorithm>
#include <cmath>

#include "util/checks.h"

namespace rrp::sim {

int scene_label(const Scene& scene) {
  const Actor* dom = scene.dominant();
  return dom == nullptr ? kClearLabel : static_cast<int>(dom->type);
}

nn::Shape input_shape(const VisionTaskConfig& config) {
  return {1, 1, config.height, config.width};
}

namespace {

/// Apparent half-size (pixels) of an actor at the given distance.
int apparent_half_size(double distance_m, int height) {
  const double s = static_cast<double>(height) * 0.45 / (1.0 + distance_m / 9.0);
  return std::clamp(static_cast<int>(std::lround(s)), 1, height / 2 - 1);
}

/// Contrast of the stencil against the road background.  The decay
/// constant is deliberately short (25 m): mid-distance hazards are the
/// hard cases where pruning costs accuracy first.
float apparent_contrast(double distance_m, double visibility) {
  const double c = 1.2 * visibility / (1.0 + distance_m / 32.0);
  return static_cast<float>(std::clamp(c, 0.2, 1.2));
}

void put(float* img, int r, int c, float v, int h, int w) {
  if (r < 0 || r >= h || c < 0 || c >= w) return;
  img[static_cast<std::int64_t>(r) * w + c] += v;
}

/// Draws a class-specific stencil centered at (cr, cc) with half-size hs.
void draw_stencil(float* img, ActorType type, int cr, int cc, int hs,
                  float contrast, int h, int w) {
  switch (type) {
    case ActorType::Vehicle:
      // Wide filled box (car silhouette).
      for (int r = -hs / 2 - 1; r <= hs / 2 + 1; ++r)
        for (int c = -hs; c <= hs; ++c)
          put(img, cr + r, cc + c, contrast, h, w);
      break;
    case ActorType::Pedestrian:
      // Tall thin bar with a head dot.
      for (int r = -hs; r <= hs; ++r)
        put(img, cr + r, cc, contrast, h, w);
      put(img, cr - hs - 1, cc, contrast, h, w);
      put(img, cr - hs, cc - 1, contrast * 0.6f, h, w);
      put(img, cr - hs, cc + 1, contrast * 0.6f, h, w);
      break;
    case ActorType::Cyclist:
      // Two wheels (diagonal dots) joined by a frame line.
      for (int d = -hs; d <= hs; ++d)
        put(img, cr, cc + d, contrast * 0.7f, h, w);
      for (int r = -1; r <= 1; ++r)
        for (int c = -1; c <= 1; ++c) {
          put(img, cr + r, cc - hs + c, contrast, h, w);
          put(img, cr + r, cc + hs + c, contrast, h, w);
        }
      break;
    case ActorType::Obstacle:
      // X-shaped hazard marker.
      for (int d = -hs; d <= hs; ++d) {
        put(img, cr + d, cc + d, contrast, h, w);
        put(img, cr + d, cc - d, contrast, h, w);
      }
      break;
  }
}

/// Draw order: farthest first, so the nearest actor dominates visually
/// because it is drawn last and largest.
bool farther(const Actor* a, const Actor* b) {
  return a->distance_m > b->distance_m;
}

}  // namespace

// rrp-frame-path: renders a sensor frame into the stream's input tensor.
void render_into(const Scene& scene, const VisionTaskConfig& config,
                 Rng& rng, float* out, std::vector<const Actor*>& order) {
  const int h = config.height, w = config.width;
  RRP_CHECK(h >= 8 && w >= 8);

  // Road background: brighter toward the bottom of the frame.
  for (int r = 0; r < h; ++r) {
    const float road = static_cast<float>(
        config.road_intensity * (0.5 + 0.5 * static_cast<double>(r) / h));
    for (int c = 0; c < w; ++c) out[static_cast<std::int64_t>(r) * w + c] = road;
  }

  // Draw every actor the sensor can resolve.  Beyond-range actors are not
  // rendered at all — consistent with scene_label(), which ignores them.
  // erase, not clear: rrp_lint resolves calls by name, and clear() names
  // the monitors' resets.
  order.erase(order.begin(), order.end());
  for (const Actor& a : scene.actors) {
    if (a.distance_m > kSensorRange_m) continue;
    // rrp-lint-allow(frame-path-alloc): make_stream reserved the scenario's most actors in one scene, so this append never reallocates.
    order.push_back(&a);
  }
  std::sort(order.begin(), order.end(), farther);
  for (const Actor* a : order) {
    const int hs = apparent_half_size(a->distance_m, h);
    float contrast = apparent_contrast(a->distance_m, scene.visibility);
    // Off-corridor traffic sits off the sensor's optical axis: dimmer and
    // clearly separable from in-path actors (gives the classifier both a
    // position and a luminance cue for corridor discipline).
    const bool in_corridor = std::fabs(a->lateral_m) <= kCorridorHalfWidth_m;
    if (!in_corridor) contrast *= 0.5f;
    // Projection: nearer objects sit lower in the frame; lateral offset
    // shifts the column.
    const int cr = std::clamp(
        static_cast<int>(std::lround(h * (0.35 + 0.5 / (1.0 + a->distance_m / 12.0)))),
        hs, h - hs - 1);
    const int cc = std::clamp(
        static_cast<int>(std::lround(w * (0.5 + a->lateral_m * 0.15))),
        hs, w - hs - 1);
    draw_stencil(out, a->type, cr, cc, hs, contrast, h, w);
  }

  // Sensor noise, worse in poor visibility.
  const double sigma =
      config.base_noise * (1.6 - 0.6 * std::clamp(scene.visibility, 0.0, 1.0));
  // Drawn a stack chunk at a time (Rng::normals: the bits and draw order
  // of one rng.normal(0.0, sigma) per pixel), then added and clamped a
  // vector at a time.
  constexpr std::int64_t kNoiseChunk = 256;
  float noise[kNoiseChunk];
  const std::int64_t pixels = static_cast<std::int64_t>(h) * w;
  for (std::int64_t i = 0; i < pixels; i += kNoiseChunk) {
    const std::int64_t n = std::min(kNoiseChunk, pixels - i);
    rng.normals(noise, static_cast<std::size_t>(n), 0.0, sigma);
    float* px = out + i;
    for (std::int64_t j = 0; j < n; ++j)
      px[j] = std::clamp(px[j] + noise[j], 0.0f, 2.0f);
  }
}

nn::Tensor render_scene(const Scene& scene, const VisionTaskConfig& config,
                        Rng& rng) {
  nn::Tensor img({1, config.height, config.width});
  std::vector<const Actor*> order;
  render_into(scene, config, rng, img.raw(), order);
  return img;
}

Scene random_scene(const VisionTaskConfig& config, Rng& rng) {
  (void)config;
  Scene s;
  s.ego_speed_mps = rng.uniform(10.0, 35.0);
  s.visibility = rng.uniform(0.55, 1.0);
  const int label = rng.uniform_int(0, kNumClasses - 1);
  if (label != kClearLabel) {
    Actor a;
    a.type = static_cast<ActorType>(label);
    a.distance_m = rng.uniform(3.0, 55.0);
    a.lateral_m = rng.uniform(-kCorridorHalfWidth_m, kCorridorHalfWidth_m);
    a.closing_mps = rng.uniform(-2.0, 12.0);
    s.actors.push_back(a);
  }
  // Deployment scenes contain traffic that is visible but NOT label-
  // relevant (off-corridor); train with the same distractors so the
  // classifier learns the corridor discipline instead of over-detecting.
  const int distractors = rng.bernoulli(0.5) ? rng.uniform_int(1, 2) : 0;
  for (int d = 0; d < distractors; ++d) {
    Actor a;
    a.type = static_cast<ActorType>(rng.uniform_int(0, kActorTypes - 1));
    a.distance_m = rng.uniform(8.0, 55.0);
    const double side = rng.bernoulli(0.5) ? 1.0 : -1.0;
    a.lateral_m = side * rng.uniform(2.6, 4.0);  // clearly off-corridor
    a.closing_mps = rng.uniform(-2.0, 6.0);
    s.actors.push_back(a);
  }
  return s;
}

nn::Dataset make_dataset(std::size_t n, const VisionTaskConfig& config,
                         Rng& rng) {
  nn::Dataset data;
  data.num_classes = kNumClasses;
  data.inputs.reserve(n);
  data.labels.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Scene s = random_scene(config, rng);
    data.inputs.push_back(render_scene(s, config, rng));
    data.labels.push_back(scene_label(s));
  }
  return data;
}

}  // namespace rrp::sim
