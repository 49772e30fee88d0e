// TSan/ASan smoke suite (ctest -L tsan) — a fast pass over every code path
// that fans work out on the thread pool: raw pool mechanics and the
// spin-then-park job handoff, striped metrics under pool workers, the
// parallel GEMM kernels (gemm_bt included), the planned implicit-GEMM
// conv, fleet frames stepped on the pool, clone-based batched evaluation,
// and multi-model zoo provisioning.
// Build with -DRRP_SANITIZE=thread (or address) and run `ctest -L tsan`;
// any data race in the execution layer surfaces here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/policies.h"
#include "core/reversible_pruner.h"
#include "core/safety_monitor.h"
#include "models/trained_cache.h"
#include "models/zoo.h"
#include "nn/gemm.h"
#include "prune/levels.h"
#include "sim/frame_engine.h"
#include "sim/scenario_gen.h"
#include "test_support.h"
#include "util/metrics.h"
#include "util/thread_pool.h"

namespace rrp {
namespace {

TEST(TsanSmoke, PoolStress) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::int64_t> sum{0};
    pool.parallel_for(0, 257, 3, [&](std::int64_t b, std::int64_t e) {
      std::int64_t local = 0;
      for (std::int64_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    ASSERT_EQ(sum.load(), 257 * 256 / 2);
  }
}

TEST(TsanSmoke, PoolHandoff) {
  // Plain (non-atomic) slots, double-buffered: each job reads the slots
  // other threads wrote in the previous job and writes the other buffer,
  // so only the handoff itself orders them.  Pools are torn down while
  // their workers spin, and one job in 500 throws.
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    std::vector<std::int64_t> slots[2] = {std::vector<std::int64_t>(8, 0),
                                          std::vector<std::int64_t>(8, 0)};
    for (int job = 0; job < 2000; ++job) {
      const std::vector<std::int64_t>& in = slots[job % 2];
      std::vector<std::int64_t>& out = slots[(job + 1) % 2];
      pool.parallel_for(0, 8, 1, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i)
          out[static_cast<std::size_t>(i)] =
              in[static_cast<std::size_t>(i)] +
              in[static_cast<std::size_t>((i + 1) % 8)] % 3 + 1;
      });
      if (job % 500 == 0) {
        EXPECT_THROW(pool.parallel_for(0, 4, 1,
                                       [](std::int64_t b, std::int64_t) {
                                         if (b == 2) throw std::runtime_error("x");
                                       }),
                     std::runtime_error);
      }
    }
    for (const std::int64_t v : slots[0]) EXPECT_GE(v, 2000);
  }
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(round % 2 == 0 ? 2 : 8);
    pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {});
  }
}

TEST(TsanSmoke, StripedMetricsUnderPoolWorkers) {
  // Pool workers hammer one counter and one histogram: the stripe each
  // thread picks on its first add, and the stripe cells, are its only
  // shared state.  A pool of 8 is as many threads as there are stripes.
  metrics::Counter& c = metrics::counter("test.tsan_striped_counter");
  metrics::Histogram& h = metrics::Registry::instance().histogram(
      "test.tsan_striped_hist", std::vector<double>{1.0, 2.0, 3.0});
  for (const int threads : {2, 8}) {
    ThreadPool pool(threads);
    c.reset();
    h.reset();
    pool.parallel_for(0, 20000, 7, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        c.add(1);
        h.observe(static_cast<double>(i % 5));
      }
    });
    EXPECT_EQ(c.value(), 20000);
    EXPECT_EQ(h.total(), 20000);
    EXPECT_EQ(h.bucket_count(3), 4000);  // i % 5 == 4
  }
}

TEST(TsanSmoke, FleetFramesOnThePool) {
  // Lenet ladder views over one shared ladder, one FrameEngine stream
  // each, stepped a tick at a time the way ServeEngine fans out: render
  // into each stream's input, infer, fold into its own state.
  ThreadCountGuard guard(2);
  Rng rng(5);
  nn::Network net = models::build_model(models::ModelKind::LeNet, rng);
  const nn::Shape shape = models::zoo_input_shape();
  prune::PruneLevelLibrary lib = prune::PruneLevelLibrary::build_structured(
      net, {0.0, 0.5, 0.85}, shape, prune::ImportanceMetric::L1, 2);
  core::CompactedLadderProvider shared(net, lib, shape);
  const sim::Scenario scenario = sim::make_suite_or_dsl("highway", 40, 3);
  struct Stream {
    Stream(core::CompactedLadderProvider& ladder, const sim::Scenario& sc,
           std::uint64_t seed)
        : view(ladder),
          policy(core::SafetyConfig{}, 4, view.level_count()),
          controller(policy, view, &monitor),
          engine(config(seed)),
          state(engine.make_stream(sc, controller)) {}
    static sim::RunConfig config(std::uint64_t seed) {
      sim::RunConfig rc;
      rc.deadline_ms = 12.0;
      rc.noise_seed = seed;
      return rc;
    }
    core::CompactedLadderView view;
    core::SafetyMonitor monitor;
    core::CriticalityGreedyPolicy policy;
    core::RuntimeController controller;
    sim::FrameEngine engine;
    sim::StreamState state;
  };
  std::vector<std::unique_ptr<Stream>> streams;
  for (std::uint64_t i = 0; i < 6; ++i)
    streams.push_back(std::make_unique<Stream>(shared, scenario, 10 + i));
  while (!streams.front()->state.done())
    parallel_for(0, static_cast<std::int64_t>(streams.size()), 1,
                 [&](std::int64_t b, std::int64_t e) {
                   for (std::int64_t i = b; i < e; ++i) {
                     Stream& s = *streams[static_cast<std::size_t>(i)];
                     s.engine.step(s.state);
                   }
                 });
  for (const auto& s : streams)
    EXPECT_EQ(s->state.result.telemetry.size(), scenario.scenes.size());
}

TEST(TsanSmoke, ParallelGemm) {
  ThreadCountGuard guard(4);
  const int m = 96, n = 64, k = 80;
  Rng rng(1);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(k) * n);
  std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (int round = 0; round < 10; ++round)
    nn::gemm(m, n, k, 1.0f, a.data(), k, b.data(), n, 0.0f, c.data(), n);
  SUCCEED();
}

TEST(TsanSmoke, ParallelGemmBt) {
  // A training-sized gemm_bt (a conv's dW = gout * col^T) with the Linear
  // store, fanned out over its rows: 4 threads equal 1 thread bit for bit.
  const int m = 96, n = 72, k = 300;
  Rng rng(2);
  std::vector<float> a(static_cast<std::size_t>(m) * k);
  std::vector<float> b(static_cast<std::size_t>(n) * k);
  std::vector<float> bias(static_cast<std::size_t>(n));
  for (float& x : a) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : b) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  for (float& x : bias) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto run = [&](int threads) {
    ThreadCountGuard guard(threads);
    std::vector<float> c(static_cast<std::size_t>(m) * n, 0.0f);
    for (int round = 0; round < 5; ++round)
      nn::gemm_bt(m, n, k, 1.0f, a.data(), k, b.data(), k, 0.5f, c.data(), n,
                  bias.data(), true);
    return testing::float_bits(c);
  };
  EXPECT_EQ(run(4), run(1));
}

TEST(TsanSmoke, ParallelImplicitConv) {
  // A planned Conv -> BatchNorm -> ReLU (one fused implicit-GEMM step):
  // batch 11 fans samples out over per-thread padded slots; batch 1 with
  // 64 output channels fans the rows of one implicit GEMM out instead.
  // Then again with every third row and three input channels dead, so the
  // rows fan out from the live-row list and dead planes are filled.
  // Either way the output equals the serial run's.
  Rng rng(2);
  nn::Network net("conv");
  auto& conv = net.emplace<nn::Conv2D>("conv", 8, 64, 3, 1, 1);
  net.emplace<nn::BatchNorm>("bn", 64);
  net.emplace<nn::ReLU>("relu");
  nn::init_network(net, rng);
  for (const bool masked : {false, true}) {
    if (masked) {
      nn::Tensor& w = conv.weight();
      for (std::int64_t e = 0; e < w.numel(); ++e) {
        const std::int64_t row = e / (8 * 9), chan = e / 9 % 8;
        if (row % 3 == 0 || chan == 1 || chan == 4 || chan == 6)
          w[e] = e % 2 == 0 ? 0.0f : -0.0f;
      }
    }
    for (const int batch : {11, 1}) {
      const nn::Shape in{batch, 8, 16, 16};
      const nn::InferPlan plan = nn::plan_inference(net, in);
      std::vector<float> arena(static_cast<std::size_t>(plan.arena_floats));
      const nn::Tensor x = rrp::testing::random_tensor(in, 3);
      nn::Tensor serial(plan.output_shape), out(plan.output_shape);
      {
        ThreadCountGuard guard(1);
        net.forward_into(plan, x, serial, arena.data());
      }
      ThreadCountGuard guard(4);
      for (int round = 0; round < 5; ++round) {
        net.forward_into(plan, x, out, arena.data());
        ASSERT_EQ(rrp::testing::float_bits(out.data()),
                  rrp::testing::float_bits(serial.data()))
            << "batch " << batch << (masked ? " masked" : "");
      }
    }
  }
}

TEST(TsanSmoke, ParallelEvaluation) {
  ThreadCountGuard guard(4);
  const nn::Dataset data = rrp::testing::tiny_dataset(64, 3);
  nn::Network net = rrp::testing::tiny_bn_net(4);
  // Small batches force several clone-based chunks per evaluation.
  for (int round = 0; round < 5; ++round)
    nn::evaluate_accuracy(net, data, /*batch_size=*/8);
  SUCCEED();
}

TEST(TsanSmoke, ParallelProvisioning) {
  ThreadCountGuard guard(4);
  // Two models provisioned concurrently with a deliberately tiny recipe;
  // a scratch cache dir keeps this hermetic and forces the train path.
  const std::string cache_dir =
      (std::filesystem::temp_directory_path() / "rrp_tsan_cache").string();
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);

  models::TrainRecipe train_recipe;
  train_recipe.train_samples = 96;
  train_recipe.eval_samples = 32;
  train_recipe.epochs = 1;
  models::LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5};
  level_recipe.co_train_epochs = 1;

  const std::vector<models::ModelKind> kinds = {models::ModelKind::Mlp,
                                                models::ModelKind::LeNet};
  auto provisioned = models::get_provisioned_all(kinds, train_recipe,
                                                 level_recipe, cache_dir);
  ASSERT_EQ(provisioned.size(), kinds.size());
  // Per-level evaluation on pool workers, one model per task.
  std::vector<std::vector<double>> accuracy(provisioned.size());
  parallel_for(0, static_cast<std::int64_t>(provisioned.size()), 1,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i) {
                   const auto u = static_cast<std::size_t>(i);
                   accuracy[u] = models::level_accuracy(provisioned[u]);
                 }
               });
  for (std::size_t i = 0; i < provisioned.size(); ++i) {
    EXPECT_EQ(provisioned[i].levels.level_count(), 2);
    EXPECT_EQ(accuracy[i].size(), 2u);
  }
  std::filesystem::remove_all(cache_dir);
}

}  // namespace
}  // namespace rrp
