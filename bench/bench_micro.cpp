// Micro-benchmarks (google-benchmark): GEMM kernel, per-level inference of
// the masked and compacted providers, and the raw level-switch primitives.
// These are the numbers the platform model is sanity-checked against.
//
// `bench_micro --gate` skips the google-benchmark suite and emits
// BENCH_micro.json whose gated `metrics` are *modeled* (platform-model
// latency, switch touched-bytes, resident memory) — pure functions of the
// cached detnet artifacts, so the numbers reproduce byte-identically and
// tools/bench_gate.py can diff them against bench/baselines/.  Measured
// wall-clock numbers ride along under the gate-exempt `wall_metrics` key.
//
// `bench_micro --wall` is the sparsity-realizing headline: measured
// per-level inference wall-clock of the masked-dense path vs the
// provisioned compacted ladder (warmup + median-of-repeats, repeat count
// recorded in the report config), the real speedup per ladder level, and
// an affine-in-MACs fit showing the measured ladder tracks the modeled
// `infer_modeled_us` ladder (DESIGN.md invariant 13 tolerance), and the
// wall time of one clean integrity scrub of the masked arm
// (`wall_scrub_us`, timed round-robin with the level blocks).  Lenet's
// compacted ladder rides along as `wall_infer_compact_us.lenet.l<k>`
// (planned infer_into, outside the fit): its forward is mostly Linear.
// `wall_render_us` is one sensor frame through sim::render_into at the
// default 16x16 config, timed in the same round-robin.
// The pool size the wall numbers ran at is recorded as `wall_threads`:
// the masked and compacted rows move with it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>

#include "bench_common.h"
#include "bench_report.h"
#include "core/integrity.h"
#include "core/reversible_pruner.h"
#include "nn/gemm.h"
#include "nn/gemm_kernels.h"
#include "nn/layers.h"
#include "sim/vision_task.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace rrp;

namespace {

models::ProvisionedModel& detnet() {
  static models::ProvisionedModel pm =
      bench::provision(models::ModelKind::DetNet);
  return pm;
}

models::ProvisionedModel& lenet() {
  static models::ProvisionedModel pm =
      bench::provision(models::ModelKind::LeNet);
  return pm;
}

nn::Tensor sample_input() {
  nn::Tensor x(models::zoo_input_shape());
  Rng rng(3);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  return x;
}

void BM_Gemm(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)), c(static_cast<std::size_t>(n * n));
  Rng rng(1);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// --- threaded variants -----------------------------------------------------
// Same kernels under an explicit pool size (second arg).  Results are
// bit-identical across thread counts by construction; only wall time may
// change.  Sweep 1/2/4/N where N = hardware_concurrency.

int hw_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void thread_args(benchmark::internal::Benchmark* b,
                 const std::vector<std::int64_t>& sizes) {
  std::vector<int> counts = {1, 2, 4};
  if (hw_threads() > 4) counts.push_back(hw_threads());
  for (std::int64_t s : sizes)
    for (int t : counts) b->Args({s, t});
}

void BM_GemmThreaded(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  ThreadCountGuard guard(static_cast<int>(state.range(1)));
  std::vector<float> a(static_cast<std::size_t>(n * n)),
      b(static_cast<std::size_t>(n * n)), c(static_cast<std::size_t>(n * n));
  Rng rng(1);
  for (auto& v : a) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto& v : b) v = static_cast<float>(rng.uniform(-1, 1));
  for (auto _ : state) {
    nn::gemm(n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
  state.SetLabel("threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_GemmThreaded)->Apply([](benchmark::internal::Benchmark* b) {
  thread_args(b, {128, 256});
});

void BM_ConvForwardThreaded(benchmark::State& state) {
  // Batched conv-net forward: samples fan out over the pool (outer level),
  // the per-sample GEMMs run inline via the reentrancy guard.
  const std::int64_t batch = state.range(0);
  ThreadCountGuard guard(static_cast<int>(state.range(1)));
  auto& pm = detnet();
  nn::Shape shape = models::zoo_input_shape();
  shape[0] = static_cast<int>(batch);
  nn::Tensor x(shape);
  Rng rng(5);
  for (float& v : x.data()) v = static_cast<float>(rng.uniform(0.0, 1.0));
  for (auto _ : state) {
    auto y = pm.net.forward(x);
    benchmark::DoNotOptimize(y.raw());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  state.SetLabel("threads=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_ConvForwardThreaded)->Apply([](benchmark::internal::Benchmark* b) {
  thread_args(b, {8});
});

void BM_EvalThreaded(benchmark::State& state) {
  // Full dataset accuracy evaluation: batches fan out over the pool with
  // per-chunk network clones (the zoo-provisioning hot path).
  ThreadCountGuard guard(static_cast<int>(state.range(0)));
  auto& pm = detnet();
  for (auto _ : state) {
    const double acc = nn::evaluate_accuracy(pm.net, pm.eval_data, 64);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(pm.eval_data.inputs.size()));
  state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_EvalThreaded)->Apply([](benchmark::internal::Benchmark* b) {
  std::vector<int> counts = {1, 2, 4};
  if (hw_threads() > 4) counts.push_back(hw_threads());
  for (int t : counts) b->Arg(t);
});

void BM_InferMasked(benchmark::State& state) {
  auto& pm = detnet();
  static core::ReversiblePruner provider = pm.make_pruner();
  provider.set_level(static_cast<int>(state.range(0)));
  const nn::Tensor x = sample_input();
  for (auto _ : state) {
    auto y = provider.infer(x);
    benchmark::DoNotOptimize(y.raw());
  }
  provider.set_level(0);
}
BENCHMARK(BM_InferMasked)->DenseRange(0, 4);

void BM_InferCompact(benchmark::State& state) {
  auto& pm = detnet();
  static core::CompactedLadderProvider fast =
      pm.make_fast_provider(models::zoo_input_shape());
  fast.set_level(static_cast<int>(state.range(0)));
  const nn::Tensor x = sample_input();
  for (auto _ : state) {
    auto y = fast.infer(x);
    benchmark::DoNotOptimize(y.raw());
  }
  fast.set_level(0);
}
BENCHMARK(BM_InferCompact)->DenseRange(0, 4);

void BM_ReversibleSwitch(benchmark::State& state) {
  auto& pm = detnet();
  static core::ReversiblePruner provider = pm.make_pruner();
  const int to = static_cast<int>(state.range(0));
  for (auto _ : state) {
    provider.set_level(to);
    provider.set_level(0);
  }
  state.SetLabel("roundtrip 0<->" + std::to_string(to));
}
BENCHMARK(BM_ReversibleSwitch)->DenseRange(1, 4);

void BM_ReloadSwitch(benchmark::State& state) {
  auto& pm = detnet();
  static core::ReloadProvider provider(
      pm.net, pm.levels, core::ReloadProvider::Source::Memory);
  const int to = static_cast<int>(state.range(0));
  for (auto _ : state) {
    provider.set_level(to);
    provider.set_level(0);
  }
  state.SetLabel("roundtrip 0<->" + std::to_string(to));
}
BENCHMARK(BM_ReloadSwitch)->DenseRange(1, 4);

void BM_ConvLiveness(benchmark::State& state) {
  // One frame's liveness scans on the masked arm at level k: the live rows
  // and channel runs of every conv, as each Conv2D forward finds them.
  auto& pm = detnet();
  static core::ReversiblePruner provider = pm.make_pruner();
  provider.set_level(static_cast<int>(state.range(0)));
  std::vector<const nn::Conv2D*> convs;
  for (const auto& layer : provider.network().layers())
    if (layer->kind() == nn::LayerKind::Conv2D)
      convs.push_back(static_cast<const nn::Conv2D*>(layer.get()));
  std::vector<float> rows, chans;
  for (const nn::Conv2D* conv : convs) {
    rows.resize(std::max<std::size_t>(rows.size(), conv->out_channels()));
    chans.resize(std::max<std::size_t>(chans.size(), conv->in_channels() + 1));
  }
  for (auto _ : state) {
    for (const nn::Conv2D* conv : convs) {
      nn::ConvGemm g;
      g.a = conv->weight().raw();
      g.lda = static_cast<std::int64_t>(conv->in_channels()) *
              conv->kernel() * conv->kernel();
      g.cin = conv->in_channels();
      g.kernel = conv->kernel();
      nn::conv_liveness(conv->out_channels(), g, rows.data(), chans.data());
      benchmark::DoNotOptimize(g.live_chans);
    }
  }
  provider.set_level(0);
}
BENCHMARK(BM_ConvLiveness)->DenseRange(0, 4);

void BM_CounterAdd(benchmark::State& state) {
  // ns per metrics::Counter::add when 1, 2 or 4 threads add to the same
  // counter, as pool workers do on the frame path (DESIGN.md §8 stripes).
  static metrics::Counter& c = metrics::counter("bench.counter_add");
  for (auto _ : state) c.add(1);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterAdd)->Threads(1)->Threads(2)->Threads(4)->UseRealTime();

// --- measured wall-clock (gate-exempt) -------------------------------------

struct WallRecipe {
  int warmup = 3;          ///< untimed inferences before measuring
  int repeats = 7;         ///< timed repeats; the MEDIAN is reported
  double block_ms = 30.0;  ///< target wall time of one timed block
};

// Lighter recipe for --gate runs: the wall numbers there are context, not
// the headline, so a shorter measurement keeps the gate fast.
constexpr WallRecipe kGateWall{2, 5, 10.0};
constexpr WallRecipe kFullWall{};

// DESIGN.md invariant 13 tracking tolerance: max relative residual of the
// affine-in-MACs fit over the measured compact ladder.  Typical unloaded
// runs land near 0.3; the band leaves room for host noise at the deepest
// (tens-of-µs) level.
constexpr double kWallFitTolerance = 0.5;

// One block of the round-robin: `prepare` runs untimed before every block
// (a level switch), `call` is the unit whose wall time is reported.
struct TimedJob {
  std::function<void()> prepare;
  std::function<void()> call;
};

// Median-of-repeats wall time per call of every job.  `warmup` untimed
// calls per job, then `repeats` rounds; each round times one block of
// `iters` calls (sized so a block lasts ~block_ms) for every job in turn.
// Round-robin keeps a host slowdown from landing on one job's block of
// repeats alone, which skews the per-level curve the MACs fit reads.
std::vector<double> measure_jobs_us(const std::vector<TimedJob>& jobs,
                                    const WallRecipe& recipe) {
  const auto run = [](const TimedJob& job, int calls) {
    for (int i = 0; i < calls; ++i) job.call();
  };
  std::vector<int> iters;
  for (const TimedJob& job : jobs) {
    job.prepare();
    run(job, recipe.warmup);
    Timer probe;
    run(job, 1);
    const double probe_us = std::max(1.0, probe.elapsed_us());
    iters.push_back(static_cast<int>(
        std::clamp(recipe.block_ms * 1000.0 / probe_us, 1.0, 200.0)));
  }
  std::vector<std::vector<double>> samples(jobs.size());
  for (int r = 0; r < recipe.repeats; ++r) {
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].prepare();
      Timer t;
      run(jobs[j], iters[j]);
      samples[j].push_back(t.elapsed_us() / iters[j]);
    }
  }
  std::vector<double> us;
  for (const std::vector<double>& job : samples)
    us.push_back(quantile(job, 0.5));
  return us;
}

// Measured wall-clock of the masked-dense path vs the compacted ladder at
// every level, the per-level real speedup, and an affine-in-MACs fit of
// the measured compact ladder.  The platform model is affine in MACs, so
// "measured tracks modeled" == the fit's max relative residual stays
// within the DESIGN.md invariant-13 tolerance (kWallFitTolerance).
void emit_wall_metrics(bench::BenchReport& report, const WallRecipe& recipe,
                       bool print_table) {
  auto& pm = detnet();
  const nn::Shape in = models::zoo_input_shape();
  const nn::Tensor x = sample_input();
  const sim::PlatformModel platform;

  core::ReversiblePruner masked = pm.make_pruner();
  core::CompactedLadderProvider fast = pm.make_fast_provider(in);
  const core::IntegrityChecker checker(masked.store());
  const prune::NetworkMask& scrub_mask = masked.levels().mask(0);

  report.config("wall_warmup", static_cast<std::int64_t>(recipe.warmup));
  report.config("wall_repeats", static_cast<std::int64_t>(recipe.repeats));

  // Jobs in round order: each level of the masked and the compacted
  // provider, then one clean scrub of the masked arm at level 0 against
  // golden ⊙ mask(0), the pass the runner issues on its scrub cadence.
  const int levels = masked.level_count();
  std::vector<TimedJob> jobs;
  for (int k = 0; k < levels; ++k)
    for (core::InferenceProvider* p :
         std::initializer_list<core::InferenceProvider*>{&masked, &fast})
      jobs.push_back({[p, k] { p->set_level(k); },
                      [p, &x] {
                        auto y = p->infer(x);
                        benchmark::DoNotOptimize(y.raw());
                      }});
  // Every level of lenet's compacted ladder through a view's planned
  // infer_into (the frame path): its forward is mostly Linear.
  core::CompactedLadderProvider lenet_fast =
      lenet().make_fast_provider(in);
  core::CompactedLadderView lenet_view(lenet_fast);
  nn::Tensor lenet_out;
  for (int k = 0; k < lenet_view.level_count(); ++k)
    jobs.push_back({[&lenet_view, k] { lenet_view.set_level(k); },
                    [&] {
                      lenet_view.infer_into(x, lenet_out);
                      benchmark::DoNotOptimize(lenet_out.raw());
                    }});
  // One sensor frame at the default 16x16 config through render_into, the
  // render every frame runs before its inference.
  const sim::VisionTaskConfig vision;
  Rng scene_rng(7);
  const sim::Scene scene = sim::random_scene(vision, scene_rng);
  Rng noise_rng(11);
  std::vector<float> frame(
      static_cast<std::size_t>(vision.height) * vision.width);
  std::vector<const sim::Actor*> draw_order;
  draw_order.reserve(scene.actors.size());
  const std::size_t render_job = jobs.size();
  jobs.push_back({[] {},
                  [&] {
                    sim::render_into(scene, vision, noise_rng, frame.data(),
                                     draw_order);
                    benchmark::DoNotOptimize(frame.data());
                  }});
  std::int64_t scrub_elements = 0;
  jobs.push_back({[&masked] { masked.set_level(0); },
                  [&] {
                    const core::ScrubReport r =
                        checker.scrub(masked.network(), scrub_mask);
                    RRP_CHECK_MSG(r.clean(), "scrub of the masked arm found "
                                                 << r.diverged_elements()
                                                 << " diverged element(s)");
                    scrub_elements = r.elements_checked;
                  }});
  const std::vector<double> us = measure_jobs_us(jobs, recipe);
  std::vector<double> masked_us, compact_us;
  for (int k = 0; k < levels; ++k) {
    masked_us.push_back(us[static_cast<std::size_t>(2 * k)]);
    compact_us.push_back(us[static_cast<std::size_t>(2 * k + 1)]);
  }
  std::vector<double> lenet_us;
  for (int k = 0; k < lenet_view.level_count(); ++k) {
    lenet_us.push_back(us[static_cast<std::size_t>(2 * levels + k)]);
    report.set_wall("wall_infer_compact_us.lenet.l" + std::to_string(k),
                    lenet_us.back(), "us");
  }
  const double render_us = us[render_job];
  report.set_wall("wall_render_us", render_us, "us");
  const double scrub_us = us.back();
  report.set_wall("wall_scrub_us", scrub_us, "us");
  const int threads = ThreadPool::global_thread_count();
  report.set_wall("wall_threads", threads, "threads");
  std::vector<double> macs(static_cast<std::size_t>(levels));
  std::vector<double> modeled_us(static_cast<std::size_t>(levels));
  for (int k = 0; k < levels; ++k) {
    fast.set_level(k);
    macs[static_cast<std::size_t>(k)] =
        static_cast<double>(fast.active_macs(in));
    modeled_us[static_cast<std::size_t>(k)] =
        platform.latency_ms(fast.active_macs(in)) * 1000.0;
  }
  masked.set_level(0);

  for (int k = 0; k < levels; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const std::string l = ".l" + std::to_string(k);
    report.set_wall("wall_infer_masked_us" + l, masked_us[i], "us");
    report.set_wall("wall_infer_compact_us" + l, compact_us[i], "us");
    report.set_wall("wall_speedup_vs_masked" + l,
                    masked_us[i] / compact_us[i], "x");
    report.set_wall("wall_speedup_vs_dense" + l,
                    masked_us[0] / compact_us[i], "x");
  }

  // Least-squares fit measured_us ~= macs / macs_per_us + overhead_us over
  // the compacted ladder (same functional family as the platform model).
  const auto n = static_cast<double>(levels);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (int k = 0; k < levels; ++k) {
    const auto i = static_cast<std::size_t>(k);
    sx += macs[i];
    sy += compact_us[i];
    sxx += macs[i] * macs[i];
    sxy += macs[i] * compact_us[i];
  }
  const double denom = n * sxx - sx * sx;
  const double slope = denom != 0.0 ? (n * sxy - sx * sy) / denom : 0.0;
  const double intercept = (sy - slope * sx) / n;
  double max_resid = 0.0;
  for (int k = 0; k < levels; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const double pred = slope * macs[i] + intercept;
    max_resid = std::max(
        max_resid, std::abs(pred - compact_us[i]) / compact_us[i]);
  }
  report.set_wall("wall_model_fit.max_rel_resid", max_resid, "frac");
  if (slope > 0.0)
    report.set_wall("wall_model_fit.macs_per_us", 1.0 / slope, "macs/us");
  report.set_wall("wall_model_fit.overhead_us", std::max(0.0, intercept),
                  "us");

  if (print_table) {
    std::printf("\nmeasured inference wall-clock (kernel=%s, threads=%d, "
                "warmup=%d, median of %d repeats)\n",
                nn::kernels::active_variant(), threads, recipe.warmup,
                recipe.repeats);
    std::printf("%-6s %14s %14s %12s %12s %14s\n", "level", "masked_us",
                "compact_us", "speedup", "vs_dense", "modeled_us");
    for (int k = 0; k < levels; ++k) {
      const auto i = static_cast<std::size_t>(k);
      std::printf("l%-5d %14.1f %14.1f %11.2fx %11.2fx %14.1f\n", k,
                  masked_us[i], compact_us[i], masked_us[i] / compact_us[i],
                  masked_us[0] / compact_us[i], modeled_us[i]);
    }
    std::printf("affine-in-MACs fit of compact ladder: max relative "
                "residual %.3f (tolerance %.2f, DESIGN.md invariant 13)%s\n",
                max_resid, kWallFitTolerance,
                max_resid <= kWallFitTolerance ? "" : " — EXCEEDED");
    std::printf("lenet compacted ladder (planned infer_into) us:");
    for (std::size_t k = 0; k < lenet_us.size(); ++k)
      std::printf(" l%zu %.1f", k, lenet_us[k]);
    std::printf("\n");
    std::printf("sensor frame render_into (%dx%d, the frame before each "
                "infer): %.2f us\n",
                vision.height, vision.width, render_us);
    std::printf("clean integrity scrub of the masked arm (l0, %lld "
                "elements): %.1f us\n",
                static_cast<long long>(scrub_elements), scrub_us);
  }
}

// Deterministic modeled metrics on detnet — everything in the gated
// `metrics` section is a pure function of the cached co-trained artifacts
// (no wall clocks), which is what makes BENCH_micro.json gate-able against
// a committed baseline.  Measured numbers go to the gate-exempt
// `wall_metrics` section via emit_wall_metrics.
int emit_report(const char* mode, const WallRecipe& wall_recipe,
                bool print_table) {
  auto& pm = detnet();
  bench::BenchReport report("micro");
  report.config("model", "detnet");
  report.config("mode", mode);
  // The active kernel variant depends on the build host and RRP_SIMD —
  // keep it OUT of the gate-mode config so the deterministic baseline
  // comparison never depends on either (kernels are bit-identical, so the
  // gated metrics genuinely don't).
  if (std::strcmp(mode, "gate") != 0)
    report.config("kernel_variant", nn::kernels::active_variant());

  const sim::PlatformModel platform;
  const nn::Shape in = models::zoo_input_shape();
  core::ReversiblePruner rp = pm.make_pruner();

  std::vector<double> infer_us, switch_us;
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    const double us = platform.latency_ms(rp.active_macs(in)) * 1000.0;
    report.set("infer_modeled_us.l" + std::to_string(k), us, "us");
    infer_us.push_back(us);
  }
  rp.set_level(0);
  for (int k = 1; k < rp.level_count(); ++k) {
    const auto s = rp.set_level(k);
    const double us = platform.switch_latency_us(s.bytes_written);
    report.set("switch_touched_bytes.l" + std::to_string(k),
               static_cast<double>(s.bytes_written), "bytes");
    report.set("switch_modeled_us.l" + std::to_string(k), us, "us");
    switch_us.push_back(us);
    rp.set_level(0);
  }
  report.set("infer_modeled_us.median", quantile(infer_us, 0.5), "us");
  report.set("switch_modeled_us.median", quantile(switch_us, 0.5), "us");
  report.set("memory.resident_bytes",
             static_cast<double>(rp.resident_weight_bytes()), "bytes");
  report.set("memory.delta_index_bytes",
             static_cast<double>(rp.delta_index_bytes()), "bytes");
  report.set("memory.store_bytes",
             static_cast<double>(rp.store().total_bytes()), "bytes");

  emit_wall_metrics(report, wall_recipe, print_table);
  return report.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gate") == 0)
      return emit_report("gate", kGateWall, /*print_table=*/false);
    if (std::strcmp(argv[i], "--wall") == 0)
      return emit_report("wall", kFullWall, /*print_table=*/true);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return emit_report("full", kFullWall, /*print_table=*/true);
}
