// test_alloc.cpp — allocation-free inference, proven at runtime
// (DESIGN.md invariant 14, "Activation arena").
//
// This executable replaces the global operator new/delete with counting
// versions.  Outside a CountScope they only read a flag; inside one every
// allocation and free from any thread (pool workers included) is counted.
//
//   A1  zero allocations — 100 infer_into calls, each followed by the
//       frame's active_macs, at every level of every zoo model, through a
//       CompactedLadderView and through the masked ReversiblePruner, at
//       RRP_THREADS 1, 2 and 8, allocate and free nothing once the
//       caller's output is sized; each output equals the allocating
//       forward bit for bit;
//   A2  one eval implementation — forward_into equals forward(x, false)
//       bitwise for every layer kind, and in-place kinds give the same bits
//       with y == x;
//   A3  per-cursor arenas — two views at one level, interleaved or run
//       concurrently on the pool, give exactly their solo outputs;
//   A4  allocation-free frames — after its first frame, FrameEngine::step
//       (render, inference, argmax, perception criticality, accounting,
//       scrub, telemetry and the measured wall record) allocates and frees
//       nothing on nominal frames: a detnet fast-path stream with its
//       scrub cadence, a masked detnet stream, and lenet ladder views
//       stepped on the pool the way ServeEngine fans a tick out, at
//       RRP_THREADS 1 and 2.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/integrity.h"
#include "core/policies.h"
#include "core/reversible_pruner.h"
#include "core/safety_monitor.h"
#include "models/zoo.h"
#include "prune/levels.h"
#include "sim/frame_engine.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_frees{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(al);
  void* p = std::aligned_alloc(a, (n + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p) {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed))
    g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

/// Counts allocations and frees while alive.  Scopes do not nest.
class CountScope {
 public:
  CountScope() {
    g_allocs = 0;
    g_frees = 0;
    g_counting = true;
  }
  ~CountScope() { g_counting = false; }
  std::int64_t allocs() const { return g_allocs.load(); }
  std::int64_t frees() const { return g_frees.load(); }
};

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace rrp {
namespace {

using testing::float_bits;
using testing::random_tensor;

constexpr int kCalls = 100;
const std::vector<double> kRatios = {0.0, 0.3, 0.5, 0.7, 0.85};

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() && float_bits(a.data()) == float_bits(b.data());
}

/// Runs `provider` kCalls times on `x`, each inference followed by the
/// frame's active_macs (after one sizing call outside the scope), and
/// expects no allocation, no free, and the reference bits.
void expect_allocation_free(core::InferenceProvider& provider,
                            const nn::Tensor& x, const nn::Tensor& reference,
                            const std::string& what) {
  nn::Tensor out;
  provider.infer_into(x, out);  // plans (masked arm) and sizes `out`
  const std::int64_t macs = provider.active_macs(x.shape());
  std::int64_t allocs = 0, frees = 0, macs_sum = 0;
  {
    const CountScope scope;
    for (int i = 0; i < kCalls; ++i) {
      provider.infer_into(x, out);
      macs_sum += provider.active_macs(x.shape());
    }
    allocs = scope.allocs();
    frees = scope.frees();
  }
  EXPECT_EQ(allocs, 0) << what;
  EXPECT_EQ(frees, 0) << what;
  EXPECT_EQ(macs_sum, kCalls * macs) << what;
  EXPECT_TRUE(same_bits(out, reference)) << what;
}

class AllocFree : public ::testing::TestWithParam<models::ModelKind> {};

TEST_P(AllocFree, InferIntoAllocatesNothingAtEveryLevelAndThreadCount) {
  const models::ModelKind kind = GetParam();
  Rng rng(static_cast<std::uint64_t>(kind) + 500);
  nn::Network net = models::build_model(kind, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, kRatios, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider fast(net, lib, shape);
  core::CompactedLadderView view(fast);
  core::ReversiblePruner& masked = fast.masked();
  const nn::Tensor x = random_tensor(shape, 77);

  for (const int threads : {1, 2, 8}) {
    const ThreadCountGuard guard(threads);
    for (int k = 0; k < view.level_count(); ++k) {
      const std::string what = std::string(models::model_kind_name(kind)) +
                               " L" + std::to_string(k) + " threads " +
                               std::to_string(threads);
      view.set_level(k);
      expect_allocation_free(view, x, fast.network_at(k).forward(x, false),
                             "view " + what);
      masked.set_level(k);
      expect_allocation_free(masked, x, masked.network().forward(x, false),
                             "masked " + what);
    }
  }
  masked.set_level(0);
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, AllocFree, ::testing::ValuesIn(models::all_model_kinds()),
    [](const ::testing::TestParamInfo<models::ModelKind>& info) {
      return std::string(models::model_kind_name(info.param));
    });

// ---------------------------------------------------------------------------
// A2: forward_into is the one eval implementation of every kind.
// ---------------------------------------------------------------------------

struct KindCase {
  std::unique_ptr<nn::Layer> layer;
  nn::Shape in;
};

std::vector<KindCase> every_kind() {
  Rng rng(31);
  std::vector<KindCase> cases;
  const auto add = [&](std::unique_ptr<nn::Layer> l, nn::Shape in) {
    nn::Network wrap;
    wrap.add(std::move(l));
    nn::init_network(wrap, rng);
    cases.push_back({wrap.layer(0).clone(), std::move(in)});
  };
  add(std::make_unique<nn::Linear>("fc", 12, 5), {3, 12});
  add(std::make_unique<nn::Conv2D>("conv", 2, 4, 3, 1, 1), {3, 2, 7, 6});
  add(std::make_unique<nn::Conv2D>("conv_s2", 2, 3, 3, 2, 0), {2, 2, 9, 9});
  add(std::make_unique<nn::DepthwiseConv2D>("dw", 3, 3, 1, 1), {2, 3, 6, 6});
  add(std::make_unique<nn::ReLU>("relu"), {3, 2, 4, 4});
  add(std::make_unique<nn::MaxPool>("max", 2, 2), {2, 3, 6, 6});
  add(std::make_unique<nn::MaxPool>("max3", 3, 2), {2, 2, 7, 7});
  add(std::make_unique<nn::AvgPool>("avg", 2, 2), {2, 3, 6, 6});
  add(std::make_unique<nn::GlobalAvgPool>("gap"), {2, 3, 5, 5});
  add(std::make_unique<nn::BatchNorm>("bn", 3), {2, 3, 4, 4});
  add(std::make_unique<nn::Softmax>("softmax"), {3, 7});
  add(std::make_unique<nn::Flatten>("flatten"), {2, 3, 2, 2});
  nn::Network body("res.body");
  body.emplace<nn::Conv2D>("res.conv", 3, 3, 3, 1, 1);
  body.emplace<nn::ReLU>("res.relu");
  add(std::make_unique<nn::Residual>("res", std::move(body)), {2, 3, 5, 5});
  return cases;
}

TEST(AllocForwardInto, EqualsForwardForEveryKindWithAndWithoutAliasing) {
  std::vector<KindCase> cases = every_kind();
  std::vector<nn::LayerKind> kinds;
  for (const KindCase& c : cases) kinds.push_back(c.layer->kind());
  for (nn::LayerKind k :
       {nn::LayerKind::Linear, nn::LayerKind::Conv2D, nn::LayerKind::ReLU,
        nn::LayerKind::MaxPool, nn::LayerKind::AvgPool,
        nn::LayerKind::GlobalAvgPool, nn::LayerKind::BatchNorm,
        nn::LayerKind::Softmax, nn::LayerKind::Flatten,
        nn::LayerKind::Residual, nn::LayerKind::DepthwiseConv2D})
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), k), kinds.end())
        << nn::layer_kind_name(k) << " not covered";

  for (const int threads : {1, 8}) {
    const ThreadCountGuard guard(threads);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      nn::Layer& layer = *cases[i].layer;
      const nn::Shape& in = cases[i].in;
      const std::string what = layer.name() + " threads " +
                               std::to_string(threads);
      const nn::Tensor x = random_tensor(in, 100 + i);
      const nn::Tensor ref = layer.forward(x, false);
      ASSERT_EQ(ref.shape(), layer.output_shape(in)) << what;

      std::vector<float> scratch(
          static_cast<std::size_t>(layer.scratch_floats(in)));
      nn::Tensor y(ref.shape());
      layer.forward_into(x.raw(), in, y.raw(), scratch.data());
      EXPECT_TRUE(same_bits(y, ref)) << what;

      if (layer.in_place()) {
        EXPECT_EQ(ref.numel(), x.numel()) << what;
        nn::Tensor inout = x;
        layer.forward_into(inout.raw(), in, inout.raw(), scratch.data());
        EXPECT_EQ(float_bits(inout.data()), float_bits(ref.data())) << what;
      }
    }
  }
}

TEST(AllocForwardInto, PlannedForwardEqualsForwardOnBatches) {
  // Plans for batch > 1 (padded slots shared by chunk_slot) and for a
  // residual net (skip slots, in-place aliasing around them).
  std::vector<std::pair<nn::Network, nn::Shape>> nets;
  nets.emplace_back(testing::tiny_residual_net(3), testing::tiny_input_shape());
  Rng rng(9);
  for (const models::ModelKind kind :
       {models::ModelKind::ResNetLite, models::ModelKind::MobileNetLite})
    nets.emplace_back(models::build_model(kind, rng),
                      models::zoo_input_shape());
  for (const int threads : {1, 2, 8}) {
    const ThreadCountGuard guard(threads);
    for (auto& [net, shape] : nets) {
      for (const int batch : {1, 3, 11}) {
        nn::Shape in = shape;
        in[0] = batch;
        const nn::InferPlan plan = nn::plan_inference(net, in);
        std::vector<float> arena(static_cast<std::size_t>(plan.arena_floats));
        const nn::Tensor x = random_tensor(in, 40 + batch);
        nn::Tensor out(plan.output_shape);
        net.forward_into(plan, x, out, arena.data());
        EXPECT_TRUE(same_bits(out, net.forward(x, false)))
            << net.name() << " batch " << batch << " threads " << threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A3: streams share nothing mutable.
// ---------------------------------------------------------------------------

TEST(AllocViews, TwoViewsAtOneLevelEqualTheirSoloRuns) {
  Rng rng(12);
  nn::Network net = models::build_model(models::ModelKind::DetNet, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, kRatios, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider fast(net, std::move(lib), shape);

  constexpr int kFrames = 6;
  std::vector<nn::Tensor> xa, xb;
  for (int f = 0; f < kFrames; ++f) {
    xa.push_back(random_tensor(shape, 200 + f));
    xb.push_back(random_tensor(shape, 300 + f));
  }
  for (int k = 0; k < fast.level_count(); ++k) {
    core::CompactedLadderView a(fast, k), b(fast, k);
    std::vector<nn::Tensor> solo_a, solo_b;
    for (int f = 0; f < kFrames; ++f) solo_a.push_back(a.infer(xa[f]));
    for (int f = 0; f < kFrames; ++f) solo_b.push_back(b.infer(xb[f]));

    nn::Tensor ya, yb;
    for (int f = 0; f < kFrames; ++f) {
      a.infer_into(xa[f], ya);
      b.infer_into(xb[f], yb);
      EXPECT_TRUE(same_bits(ya, solo_a[f])) << "L" << k << " frame " << f;
      EXPECT_TRUE(same_bits(yb, solo_b[f])) << "L" << k << " frame " << f;
    }

    // The same pair fanned out on the pool, one view per chunk.
    const ThreadCountGuard guard(2);
    for (int f = 0; f < kFrames; ++f) {
      core::CompactedLadderView* views[2] = {&a, &b};
      const nn::Tensor* inputs[2] = {&xa[f], &xb[f]};
      nn::Tensor* outs[2] = {&ya, &yb};
      parallel_for(0, 2, 1, [&](std::int64_t s, std::int64_t) {
        views[s]->infer_into(*inputs[s], *outs[s]);
      });
      EXPECT_TRUE(same_bits(ya, solo_a[f])) << "L" << k << " frame " << f;
      EXPECT_TRUE(same_bits(yb, solo_b[f])) << "L" << k << " frame " << f;
    }
  }
}

// ---------------------------------------------------------------------------
// A4: a nominal frame allocates nothing.
// ---------------------------------------------------------------------------

constexpr int kFrames = 120;
constexpr int kScrubPeriod = 20;
// RRP_THREADS of each episode.  Every episode is counted, the first
// included: a path's first level swap, masked walk or scrub looks up its
// pre-registered metric handles without allocating.
constexpr int kEpisodeThreads[] = {1, 2};

/// One solo stream: the controller stack and frame engine the solo
/// runner builds around a provider.  `scenario` must outlive it.
struct SoloStream {
  SoloStream(core::InferenceProvider& provider, const sim::RunConfig& rc,
             const sim::Scenario& scenario, sim::FaultHarness* harness)
      : policy(core::SafetyConfig{}, 6, provider.level_count()),
        controller(policy, provider, &monitor),
        engine(rc),
        state(engine.make_stream(scenario, controller, harness)) {}

  core::SafetyMonitor monitor;
  core::CriticalityGreedyPolicy policy;
  core::RuntimeController controller;
  sim::FrameEngine engine;
  sim::StreamState state;
};

/// Appends " frame:allocs/frees" to `bad` when the frame touched the heap.
void note_frame(std::string& bad, std::int64_t frame, std::int64_t allocs,
                std::int64_t frees) {
  if (allocs == 0 && frees == 0) return;
  bad += ' ';
  bad += std::to_string(frame);
  bad += ':';
  bad += std::to_string(allocs);
  bad += '/';
  bad += std::to_string(frees);
}

/// Steps the stream to its end; its first frame is warm-up (it plans the
/// masked arm and sizes the logits), every later one is counted.  Returns
/// the frames that allocated or freed, as "frame:allocs/frees".
std::string step_counting(SoloStream& s) {
  s.engine.step(s.state);
  std::string bad;
  while (!s.state.done()) {
    const std::size_t f = s.state.frame;
    std::int64_t allocs = 0, frees = 0;
    {
      const CountScope scope;
      s.engine.step(s.state);
      allocs = scope.allocs();
      frees = scope.frees();
    }
    note_frame(bad, static_cast<std::int64_t>(f), allocs, frees);
  }
  return bad;
}

sim::Scenario scenario_for(const std::string& name, std::uint64_t seed) {
  return sim::make_suite_or_dsl(name, kFrames, seed);
}

TEST(AllocFrames, DetnetFastPathStreamWithScrubAllocatesNothing) {
  Rng rng(41);
  nn::Network net = models::build_model(models::ModelKind::DetNet, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, kRatios, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider fast(net, lib, shape);
  core::IntegrityChecker checker(fast.masked().store());
  for (const int threads : kEpisodeThreads) {
    const ThreadCountGuard guard(threads);
    fast.set_level(0);
    sim::FaultHarness harness;
    harness.targets.live_net = &fast.masked().network();
    harness.checker = &checker;
    harness.levels = &lib;
    harness.ladder = &fast;
    sim::RunConfig rc;
    rc.deadline_ms = 12.0;
    rc.self_heal = true;
    rc.scrub_period_frames = kScrubPeriod;
    rc.noise_seed = 5;
    const sim::Scenario scenario = scenario_for("cut_in", 7);
    SoloStream s(fast, rc, scenario, &harness);
    const std::string bad = step_counting(s);
    EXPECT_EQ(bad, "") << "threads " << threads;
    EXPECT_TRUE(harness.recoveries.empty());
    EXPECT_EQ(s.monitor.integrity_detect_count(), 0);
    EXPECT_EQ(s.state.result.telemetry.size(), static_cast<std::size_t>(kFrames));
  }
}

TEST(AllocFrames, MaskedDetnetStreamAllocatesNothing) {
  Rng rng(42);
  nn::Network net = models::build_model(models::ModelKind::DetNet, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, kRatios, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider fast(net, lib, shape);
  core::ReversiblePruner& masked = fast.masked();
  core::IntegrityChecker checker(masked.store());
  for (const int threads : kEpisodeThreads) {
    const ThreadCountGuard guard(threads);
    masked.set_level(0);
    sim::FaultHarness harness;
    harness.targets.live_net = &masked.network();
    harness.checker = &checker;
    harness.levels = &lib;
    sim::RunConfig rc;
    rc.deadline_ms = 12.0;
    rc.self_heal = true;
    rc.scrub_period_frames = kScrubPeriod;
    rc.criticality_source = sim::CriticalitySource::Perception;
    rc.noise_seed = 6;
    const sim::Scenario scenario = scenario_for("urban", 8);
    SoloStream s(masked, rc, scenario, &harness);
    const std::string bad = step_counting(s);
    EXPECT_EQ(bad, "") << "threads " << threads;
    EXPECT_EQ(s.monitor.integrity_detect_count(), 0);
  }
  masked.set_level(0);
}

/// What one fan-out chunk reads, behind one captured pointer (a wider
/// capture would make the std::function itself allocate).
struct FleetTick {
  std::vector<std::unique_ptr<SoloStream>>* streams;
};

TEST(AllocFrames, LenetLadderViewsSteppedOnThePoolAllocateNothing) {
  Rng rng(43);
  nn::Network net = models::build_model(models::ModelKind::LeNet, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, kRatios, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider shared(net, lib, shape);
  constexpr int kStreams = 4;
  for (const int threads : kEpisodeThreads) {
    const ThreadCountGuard guard(threads);
    std::vector<std::unique_ptr<core::CompactedLadderView>> views;
    std::vector<std::unique_ptr<SoloStream>> streams;
    const sim::Scenario scenario = scenario_for("highway", 9);
    for (int i = 0; i < kStreams; ++i) {
      // The per-stream config a ServeEngine builds: a measured wall
      // channel and a sensing delay, no harness.
      sim::RunConfig rc;
      rc.deadline_ms = 12.0;
      rc.measure_wall = true;
      rc.sensing_delay_frames = 1;
      rc.noise_seed = 100 + static_cast<std::uint64_t>(i);
      views.push_back(std::make_unique<core::CompactedLadderView>(shared));
      streams.push_back(
          std::make_unique<SoloStream>(*views.back(), rc, scenario, nullptr));
    }
    const FleetTick tick{&streams};
    const ThreadPool::ChunkFn step_streams = [t = &tick](std::int64_t b,
                                                         std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        SoloStream& s = *(*t->streams)[static_cast<std::size_t>(i)];
        s.engine.step(s.state);
      }
    };
    parallel_for(0, kStreams, 1, step_streams);  // warm-up tick
    std::string bad;
    for (int f = 1; f < kFrames; ++f) {
      std::int64_t allocs = 0, frees = 0;
      {
        const CountScope scope;
        parallel_for(0, kStreams, 1, step_streams);
        allocs = scope.allocs();
        frees = scope.frees();
      }
      note_frame(bad, f, allocs, frees);
    }
    EXPECT_EQ(bad, "") << "threads " << threads;
    for (const auto& s : streams) {
      EXPECT_TRUE(s->state.done());
      EXPECT_EQ(s->state.result.wall.frames.size(),
                static_cast<std::size_t>(kFrames));
    }
  }
}

}  // namespace
}  // namespace rrp
