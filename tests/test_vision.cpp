#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "sim/scenario_gen.h"
#include "sim/vision_task.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::sim {
namespace {

TEST(VisionTask, LabelFollowsDominantActor) {
  Scene s;
  EXPECT_EQ(scene_label(s), kClearLabel);
  s.actors.push_back({ActorType::Cyclist, 12.0, 0.0, 0.0});
  EXPECT_EQ(scene_label(s), static_cast<int>(ActorType::Cyclist));
  s.actors.push_back({ActorType::Pedestrian, 6.0, 0.0, 0.0});
  EXPECT_EQ(scene_label(s), static_cast<int>(ActorType::Pedestrian));
}

TEST(VisionTask, RenderShapeMatchesConfig) {
  VisionTaskConfig cfg;
  Rng rng(1);
  Scene s;
  const nn::Tensor img = render_scene(s, cfg, rng);
  EXPECT_EQ(img.shape(), (nn::Shape{1, cfg.height, cfg.width}));
  EXPECT_EQ(input_shape(cfg), (nn::Shape{1, 1, cfg.height, cfg.width}));
}

TEST(VisionTask, RenderIsDeterministicGivenRngState) {
  VisionTaskConfig cfg;
  Scene s;
  s.actors.push_back({ActorType::Vehicle, 15.0, 3.0, 0.2});
  Rng r1(7), r2(7);
  const nn::Tensor a = render_scene(s, cfg, r1);
  const nn::Tensor b = render_scene(s, cfg, r2);
  EXPECT_TRUE(a.equals(b));
}

TEST(VisionTask, CloserActorsHaveStrongerSignal) {
  VisionTaskConfig cfg;
  cfg.base_noise = 0.0;  // isolate the geometry
  auto energy_at = [&cfg](double distance) {
    Scene s;
    s.actors.push_back({ActorType::Vehicle, distance, 0.0, 0.0});
    Rng rng(3);
    Scene clear;
    Rng rng2(3);
    const nn::Tensor with = render_scene(s, cfg, rng);
    const nn::Tensor without = render_scene(clear, cfg, rng2);
    nn::Tensor diff = with;
    diff.sub_(without);
    return diff.abs_sum();
  };
  EXPECT_GT(energy_at(5.0), energy_at(25.0));
  EXPECT_GT(energy_at(25.0), 0.0f);
}

TEST(VisionTask, LowVisibilityWeakensContrast) {
  VisionTaskConfig cfg;
  cfg.base_noise = 0.0;
  Scene bright, foggy;
  bright.visibility = 1.0;
  foggy.visibility = 0.55;
  bright.actors.push_back({ActorType::Vehicle, 10.0, 0.0, 0.0});
  foggy.actors = bright.actors;
  Rng r1(4), r2(4);
  const nn::Tensor a = render_scene(bright, cfg, r1);
  const nn::Tensor b = render_scene(foggy, cfg, r2);
  EXPECT_GT(a.max_abs(), b.max_abs());
}

TEST(VisionTask, NoiseScalesWithPoorVisibility) {
  VisionTaskConfig cfg;
  cfg.base_noise = 0.2;
  Scene clear_sky, fog;
  clear_sky.visibility = 1.0;
  fog.visibility = 0.5;
  // Measure noise as deviation from the noiseless render.
  VisionTaskConfig quiet = cfg;
  quiet.base_noise = 0.0;
  Rng r0(5);
  const nn::Tensor base = render_scene(clear_sky, quiet, r0);
  auto noise_power = [&](const Scene& s) {
    Rng rng(6);
    nn::Tensor img = render_scene(s, cfg, rng);
    img.sub_(base);
    return img.sq_sum();
  };
  EXPECT_GT(noise_power(fog), noise_power(clear_sky));
}

TEST(VisionTask, DatasetBalancedAcrossClasses) {
  VisionTaskConfig cfg;
  Rng rng(8);
  const nn::Dataset data = make_dataset(2000, cfg, rng);
  EXPECT_EQ(data.size(), 2000u);
  EXPECT_EQ(data.num_classes, kNumClasses);
  std::vector<int> counts(static_cast<std::size_t>(kNumClasses), 0);
  for (int l : data.labels) {
    ASSERT_GE(l, 0);
    ASSERT_LT(l, kNumClasses);
    ++counts[static_cast<std::size_t>(l)];
  }
  for (int c : counts) EXPECT_GT(c, 2000 / kNumClasses / 2);
}

TEST(VisionTask, DatasetDeterministicPerSeed) {
  VisionTaskConfig cfg;
  Rng r1(9), r2(9);
  const nn::Dataset a = make_dataset(50, cfg, r1);
  const nn::Dataset b = make_dataset(50, cfg, r2);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.labels[i], b.labels[i]);
    EXPECT_TRUE(a.inputs[i].equals(b.inputs[i]));
  }
}

TEST(VisionTask, PixelsStayInValidRange) {
  VisionTaskConfig cfg;
  Rng rng(10);
  for (int i = 0; i < 20; ++i) {
    const Scene s = random_scene(cfg, rng);
    const nn::Tensor img = render_scene(s, cfg, rng);
    for (float v : img.data()) {
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 2.0f);
    }
  }
}

TEST(VisionTask, RejectsTinyFrames) {
  VisionTaskConfig cfg;
  cfg.height = 4;
  Rng rng(11);
  Scene s;
  EXPECT_THROW(render_scene(s, cfg, rng), PreconditionError);
}

// ---------------------------------------------------------------------------
// Render parity: render_into, and render_scene over it, give the bytes of
// the tensor renderer they replaced.  The oracle below is that renderer
// as it was (fresh tensor, bounds-checked writes, actors sorted in a heap
// vector), kept here so the pixel bytes and the Rng draw order are pinned
// to it and not only to each other.
// ---------------------------------------------------------------------------

namespace oracle {

int apparent_half_size(double distance_m, int height) {
  const double s = static_cast<double>(height) * 0.45 / (1.0 + distance_m / 9.0);
  return std::clamp(static_cast<int>(std::lround(s)), 1, height / 2 - 1);
}

float apparent_contrast(double distance_m, double visibility) {
  const double c = 1.2 * visibility / (1.0 + distance_m / 32.0);
  return static_cast<float>(std::clamp(c, 0.2, 1.2));
}

void put(nn::Tensor& img, int r, int c, float v, int h, int w) {
  if (r < 0 || r >= h || c < 0 || c >= w) return;
  img[static_cast<std::int64_t>(r) * w + c] += v;
}

void draw_stencil(nn::Tensor& img, ActorType type, int cr, int cc, int hs,
                  float contrast, int h, int w) {
  switch (type) {
    case ActorType::Vehicle:
      for (int r = -hs / 2 - 1; r <= hs / 2 + 1; ++r)
        for (int c = -hs; c <= hs; ++c)
          put(img, cr + r, cc + c, contrast, h, w);
      break;
    case ActorType::Pedestrian:
      for (int r = -hs; r <= hs; ++r) put(img, cr + r, cc, contrast, h, w);
      put(img, cr - hs - 1, cc, contrast, h, w);
      put(img, cr - hs, cc - 1, contrast * 0.6f, h, w);
      put(img, cr - hs, cc + 1, contrast * 0.6f, h, w);
      break;
    case ActorType::Cyclist:
      for (int d = -hs; d <= hs; ++d)
        put(img, cr, cc + d, contrast * 0.7f, h, w);
      for (int r = -1; r <= 1; ++r)
        for (int c = -1; c <= 1; ++c) {
          put(img, cr + r, cc - hs + c, contrast, h, w);
          put(img, cr + r, cc + hs + c, contrast, h, w);
        }
      break;
    case ActorType::Obstacle:
      for (int d = -hs; d <= hs; ++d) {
        put(img, cr + d, cc + d, contrast, h, w);
        put(img, cr + d, cc - d, contrast, h, w);
      }
      break;
  }
}

nn::Tensor render(const Scene& scene, const VisionTaskConfig& config,
                  Rng& rng) {
  const int h = config.height, w = config.width;
  nn::Tensor img({1, h, w});
  for (int r = 0; r < h; ++r) {
    const float road = static_cast<float>(
        config.road_intensity * (0.5 + 0.5 * static_cast<double>(r) / h));
    for (int c = 0; c < w; ++c) img[static_cast<std::int64_t>(r) * w + c] = road;
  }
  std::vector<const Actor*> sorted;
  for (const Actor& a : scene.actors)
    if (a.distance_m <= kSensorRange_m) sorted.push_back(&a);
  std::sort(sorted.begin(), sorted.end(), [](const Actor* a, const Actor* b) {
    return a->distance_m > b->distance_m;
  });
  for (const Actor* a : sorted) {
    const int hs = apparent_half_size(a->distance_m, h);
    float contrast = apparent_contrast(a->distance_m, scene.visibility);
    if (!(std::fabs(a->lateral_m) <= kCorridorHalfWidth_m)) contrast *= 0.5f;
    const int cr = std::clamp(
        static_cast<int>(std::lround(h * (0.35 + 0.5 / (1.0 + a->distance_m / 12.0)))),
        hs, h - hs - 1);
    const int cc = std::clamp(
        static_cast<int>(std::lround(w * (0.5 + a->lateral_m * 0.15))), hs,
        w - hs - 1);
    draw_stencil(img, a->type, cr, cc, hs, contrast, h, w);
  }
  const double sigma =
      config.base_noise * (1.6 - 0.6 * std::clamp(scene.visibility, 0.0, 1.0));
  for (float& v : img.data())
    v = std::clamp(v + static_cast<float>(rng.normal(0.0, sigma)), 0.0f, 2.0f);
  return img;
}

}  // namespace oracle

/// Renders `scene` three ways from one Rng state — the oracle, render_into
/// on a NaN-filled buffer, render_scene — and expects equal bits, and
/// equal next draws from all three Rngs afterwards.  `warm` first leaves
/// the Rngs holding a cached second normal.  Returns the failures.
int render_mismatches(const Scene& scene, const VisionTaskConfig& cfg,
                      std::uint64_t seed, bool warm) {
  Rng base(seed);
  if (warm) base.normal();
  Rng r_oracle = base, r_into = base, r_scene = base;
  const nn::Tensor want = oracle::render(scene, cfg, r_oracle);
  std::vector<float> buf(static_cast<std::size_t>(want.numel()),
                         std::numeric_limits<float>::quiet_NaN());
  std::vector<const Actor*> order;
  render_into(scene, cfg, r_into, buf.data(), order);
  const nn::Tensor got = render_scene(scene, cfg, r_scene);
  int bad = 0;
  bad += testing::float_bits(buf) != testing::float_bits(want.data());
  bad += got.shape() != want.shape();
  bad += testing::float_bits(got.data()) != testing::float_bits(want.data());
  const double n_oracle = r_oracle.normal();
  bad += r_into.normal() != n_oracle;
  bad += r_scene.normal() != n_oracle;
  const std::uint64_t u_oracle = r_oracle.next_u64();
  bad += r_into.next_u64() != u_oracle;
  bad += r_scene.next_u64() != u_oracle;
  return bad;
}

TEST(RenderParity, BuiltinScenarioScenesMatchTheTensorRenderer) {
  const VisionTaskConfig cfg;
  std::size_t most_actors = 0;
  Scene crowded;
  std::uint64_t seed = 1000;
  for (const std::string& name : builtin_scenario_names()) {
    for (const std::uint64_t scenario_seed : {3u, 41u}) {
      const Scenario sc = make_suite_or_dsl(name, 240, scenario_seed);
      for (std::size_t f = 0; f < sc.scenes.size(); f += 3) {
        const Scene& scene = sc.scenes[f];
        if (scene.actors.size() > most_actors) {
          most_actors = scene.actors.size();
          crowded = scene;
        }
        ++seed;
        ASSERT_EQ(render_mismatches(scene, cfg, seed, (seed & 1) != 0), 0)
            << name << " seed " << scenario_seed << " frame " << f;
      }
    }
  }
  // The most crowded scene any built-in scenario produced, both Rng states.
  ASSERT_GT(most_actors, 1u);
  EXPECT_EQ(render_mismatches(crowded, cfg, 7, false), 0);
  EXPECT_EQ(render_mismatches(crowded, cfg, 7, true), 0);
}

TEST(RenderParity, EdgeScenesMatchTheTensorRenderer) {
  Scene base;
  base.visibility = 0.7;
  std::vector<Scene> scenes;
  scenes.push_back(base);  // the blackout empty road
  Scene off = base;        // off-corridor traffic only
  off.actors = {{ActorType::Vehicle, 20.0, 0.0, 3.1},
                {ActorType::Cyclist, 12.0, 1.0, -2.9}};
  scenes.push_back(off);
  Scene far = base;  // beyond sensor range: not drawn at all
  far.actors = {{ActorType::Obstacle, kSensorRange_m + 0.5, 0.0, 0.0},
                {ActorType::Pedestrian, 80.0, 0.0, 0.3}};
  scenes.push_back(far);
  Scene mixed = far;  // in range, on the boundary, beyond, and tied
  mixed.actors.push_back({ActorType::Vehicle, kSensorRange_m, 2.0, 0.4});
  mixed.actors.push_back({ActorType::Pedestrian, 9.0, 0.0, -0.5});
  mixed.actors.push_back({ActorType::Cyclist, 9.0, 0.0, 0.2});
  scenes.push_back(mixed);
  // A crowd of in-range actors with ties: the draw order must match the
  // oracle's.
  Scene crowd = base;
  for (int i = 0; i < 40; ++i)
    crowd.actors.push_back({static_cast<ActorType>(i % kActorTypes),
                            3.0 + (i % 7) * 6.5, 0.0, (i % 5) * 0.9 - 1.8});
  scenes.push_back(crowd);

  VisionTaskConfig odd;  // non-square, so a swapped h/w shows
  odd.height = 12;
  odd.width = 20;
  for (const VisionTaskConfig& cfg : {VisionTaskConfig{}, odd})
    for (std::size_t i = 0; i < scenes.size(); ++i)
      for (const bool warm : {false, true})
        EXPECT_EQ(render_mismatches(scenes[i], cfg, 50 + i, warm), 0)
            << "scene " << i << " " << cfg.height << "x" << cfg.width
            << (warm ? " cached normal" : "");
}

TEST(RenderParity, RandomScenesMatchTheTensorRenderer) {
  const VisionTaskConfig cfg;
  Rng scenes(2024);
  for (int i = 0; i < 2000; ++i) {
    const Scene s = random_scene(cfg, scenes);
    ASSERT_EQ(render_mismatches(s, cfg, 9000 + static_cast<std::uint64_t>(i),
                                (i & 1) != 0),
              0)
        << "random scene " << i;
  }
}

}  // namespace
}  // namespace rrp::sim
