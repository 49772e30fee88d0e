#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>

#include "alloc_count.h"
#include "core/integrity.h"
#include "models/trained_cache.h"
#include "serve/serve_engine.h"
#include "sim/frame_engine.h"
#include "sim/scenario_gen.h"
#include "span_log.h"
#include "speed_probe.h"
#include "util/checks.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using namespace rrp;

// ---------------------------------------------------------------------------
// Workload definitions.  Every choice below is recorded with its reason;
// README.md repeats them next to the measured spreads.
//
// All three are closed loops: a stream issues its next frame only when the
// previous one completed, and fleet ticks are lockstep.  A run walks an
// endless, seed-determined sequence of distinct episodes until --seconds of
// loop wall time are spent, so each run averages its level mix over many
// scenario events, not over one.
// ---------------------------------------------------------------------------

// detnet_loop: one detnet stream on the compacted fast path at
// RRP_THREADS=1, greedy policy, scrub + sync_masked every 20 frames.
// `nn` (conv above all) is most of every frame.
constexpr int kDetnetThreads = 1;
constexpr int kDetnetScrubPeriod = 20;
constexpr int kDetnetFrames = 1000;
// The builtin cut_in spec with a cut-in every 40 frames and hysteresis 20:
// ~86% of frames run at L0 and ~13% at L1, so the frame median sits deep
// inside the heavy, conv-bound L0 mode for any seed (a mix near 50/50, as
// rush_hour gives, puts it on the gap between two modes; a light L4 mode
// is where the host-speed correction is weakest).  Each L1 excursion ends
// in a restore, ~500 per run.
constexpr int kDetnetHysteresis = 20;
constexpr double kDetnetCutInPeriod = 40.0;

// masked_storm: the paper's masked ReversiblePruner under perception-
// sourced criticality with hysteresis 1, so restores (O(Δ) weight writes)
// happen on the frame path, plus seeded weight bit flips that the scrub
// (every 5 frames) detects and self-heals.  Urban traffic under that
// configuration restores on ~4% of frames, so a 10 s run sees several
// hundred restores (>= 200 support restore_us_p95).
constexpr int kStormThreads = 1;
constexpr int kStormHysteresis = 1;
constexpr int kStormScrubPeriod = 5;
constexpr int kStormFrames = 1000;
constexpr int kStormFaults = 4;  ///< weight bit flips per episode
const char* const kStormScenario = "urban";

// lenet_fleet: 32 lenet streams over one shared ladder with staggered
// arrivals and an uncontended budget, at a fixed RRP_THREADS=2.  A lenet
// inference is tiny, so the per-frame fixed cost of sim/serve/util shows.
constexpr int kFleetThreads = 2;
constexpr int kFleetStreams = 32;
constexpr int kFleetFrames = 400;  ///< frames per stream per fleet run
constexpr int kFleetStagger = 3;   ///< ticks between stream arrivals
// Highway streams run ~60% of frames at L4 (cut_in/urban/intersection
// streams sit nearer 25-50%), so the fleet's frame median falls inside the
// L4 mode rather than on the L3/L4 gap.
const char* const kFleetScenario = "highway";

/// Episodes (fleet runs) whose RunSummary gives accuracy and
/// missed_critical_frac, run untimed after the timed loop.  They come from
/// this fixed seed, not from --seed, so both metrics are the same for
/// every seed: a parent and a change are compared on identical frames,
/// and any difference is a behaviour change.
constexpr std::uint64_t kOutcomeSeed = 0x0DE7E2A11ull;
constexpr std::size_t kSoloOutcomeEpisodes = 8;
constexpr std::size_t kOutcomeFleetRuns = 2;
/// Invariant-13 tolerance between a masked and a compacted forward.
constexpr float kEquivTolerance = 1e-4f;
/// Consecutive restores per window of the restore_us statistics.
constexpr std::size_t kRestoreChunk = 40;
/// Frames between speed probes inside a single-stream window: ~10 ms of
/// detnet frames, so a window's scale follows slowdowns within it.  A
/// probe takes ~60 µs, which is left out of the window's wall time.
constexpr std::int64_t kProbeEvery = 32;
/// Set-ups per run; setup_s is their median.  A detnet set-up takes ~3 s,
/// a lenet one ~0.15 s, so lenet affords more.
constexpr int kDetnetSetups = 3;
constexpr int kLenetSetups = 9;
/// Levels of every provisioned ladder (LevelRecipe::ratios has five).
constexpr int kLevels = 5;
const std::array<const char*, 7> kLayerKinds = {
    "Conv2D", "BatchNorm", "ReLU", "MaxPool", "GlobalAvgPool", "Flatten",
    "Linear"};

const core::SafetyConfig kCertified{};  // {4, 3, 1, 0}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double seconds_since(Clock::time_point t0) {
  return us_between(t0, Clock::now()) * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Bytes the malloc heap currently hands out (arena + mmapped chunks).
double heap_in_use_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

std::uint64_t digest_string(const std::string& s) {
  return core::fnv1a64(s.data(), s.size());
}

std::uint64_t digest_run(const sim::RunResult& run) {
  std::ostringstream os;
  run.telemetry.write_csv(os);
  return digest_string(os.str());
}

/// Independent 64-bit value per (seed, salt), so each input stream of a
/// workload moves when --seed moves.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + salt);
  return rng.next_u64();
}

bool same_bits(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(),
                     static_cast<std::size_t>(a.numel()) * sizeof(float)) == 0;
}

void add(std::vector<Metric>& out, std::string name, double value,
         std::string unit) {
  out.push_back({std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------
// Single-stream closed loop (detnet_loop, masked_storm, and the fleet's
// solo stream replay in the traced run)
// ---------------------------------------------------------------------------

struct EpisodeInput {
  sim::Scenario scenario;
  std::uint64_t noise_seed = 0;
  sim::FaultPlan plan;
};

/// What one loop drives: a provider, optionally the integrity wiring the
/// frame engine scrubs with, and the seed-determined episode sequence.
struct SoloLoop {
  core::InferenceProvider* provider = nullptr;
  core::CompactedLadderProvider* ladder = nullptr;  ///< fast path only
  core::IntegrityChecker* checker = nullptr;
  nn::Network* scrub_net = nullptr;
  const prune::PruneLevelLibrary* levels = nullptr;
  int hysteresis = 6;
  sim::RunConfig rc;
  std::function<EpisodeInput(std::size_t)> episode;  ///< from --seed
  std::function<EpisodeInput(std::size_t)> outcome;  ///< from kOutcomeSeed
};

/// Per-frame samples of the untraced loop, reduced per window (one
/// episode; one fleet run) so memory stays flat however long a run is.
/// Restores are kept; their statistics use chunks of kRestoreChunk.
///
/// Times are scaled to the reference speed (speed_probe.h).  Medians and
/// throughput use the geometric mean of the dense and the branchy probe's
/// scale; tails (scrub frames) use the dense probe's, which they track
/// best.
struct FrameLog {
  std::vector<double> frame_us, open_restores;  ///< the open window's
  std::vector<double> dense_probes, branchy_probes;  ///< the open window's
  std::vector<double> window_p50, window_p99, window_fps, window_speed;
  std::vector<double> restore_mid_us, restore_tail_us;  ///< by each probe
  std::array<std::int64_t, kLevels> level_frames{};
  std::int64_t samples = 0;
  std::int64_t frames = 0;
  double wall_s = 0.0;

  void record(double us, int level, int prev_level) {
    frame_us.push_back(us);
    if (level < prev_level) open_restores.push_back(us);
    ++level_frames[static_cast<std::size_t>(level)];
  }
  /// Probes the host's speed inside the open window; returns the seconds
  /// the probes took, which the caller leaves out of the window's wall.
  double probe() {
    const Clock::time_point t0 = Clock::now();
    dense_probes.push_back(probe_us());
    branchy_probes.push_back(branchy_probe_us());
    return seconds_since(t0);
  }
  /// Ends the window: probes once more, rescales the window's samples by
  /// the median probes and keeps its statistics.  `frames` and `wall_s`
  /// stay raw.
  void close_window(std::int64_t window_frames, double window_wall_s) {
    probe();
    const double tail = kReferenceProbeUs / median(dense_probes);
    const double mid = std::sqrt(
        tail * kReferenceBranchyProbeUs / median(branchy_probes));
    dense_probes.clear();
    branchy_probes.clear();
    if (!frame_us.empty()) {
      window_p50.push_back(quantile(frame_us, 0.50) * mid);
      window_p99.push_back(quantile(frame_us, 0.99) * tail);
    }
    for (const double us : open_restores) {
      restore_mid_us.push_back(us * mid);
      restore_tail_us.push_back(us * tail);
    }
    open_restores.clear();
    samples += static_cast<std::int64_t>(frame_us.size());
    frame_us.clear();
    frames += window_frames;
    wall_s += window_wall_s;
    window_fps.push_back(static_cast<double>(window_frames) /
                         (window_wall_s * mid));
    window_speed.push_back(mid);
  }
};

/// Per-frame breakdown of the traced loop.
struct Tracer {
  explicit Tracer(std::size_t capacity) : log(capacity) {}
  SpanLog log;
  std::int64_t frame = 0;
  std::vector<double> self_us, infer_us, set_level_us, decide_us, allocs;
  std::int64_t restores = 0;
  std::int64_t restore_bytes = 0;
  std::int64_t frames = 0;
  double wall_s = 0.0;
};

struct EpisodeOut {
  std::uint64_t digest = 0;
  core::RunSummary summary;
  std::int64_t frames = 0;
  std::int64_t flips = 0;     ///< weight bit flips the injector applied
  std::int64_t repaired = 0;  ///< elements the loop's self-heal rewrote
  std::vector<std::string> errors;
};

void reset_to_level0(SoloLoop& loop) {
  loop.provider->set_level(0);
  if (loop.ladder != nullptr) loop.ladder->sync_masked();
}

/// One traced frame: a "sim.frame" span around step, whose children are
/// the decorators' spans, plus the exact allocation count of the step.
void traced_step(const sim::FrameEngine& engine, sim::StreamState& state,
                 Tracer& t) {
  SpanLog& spans = t.log;
  spans.set_frame(t.frame++);
  const std::size_t first = spans.spans().size();
  const CountAllocations counting;
  const std::int64_t allocs_before = allocation_count();
  {
    ScopedSpan frame_span(spans, "sim.frame");
    engine.step(state);
  }
  const std::int64_t allocs = allocation_count() - allocs_before;
  double infer = 0.0, set_level = 0.0, decide = 0.0;
  for (std::size_t k = first + 1; k < spans.spans().size(); ++k) {
    const Span& s = spans.spans()[k];
    if (std::strcmp(s.name, "core.infer") == 0) {
      infer += s.us();
    } else if (std::strcmp(s.name, "core.set_level") == 0) {
      set_level += s.us();
      t.set_level_us.push_back(s.us());
    } else if (std::strcmp(s.name, "core.decide") == 0) {
      decide += s.us();
      t.decide_us.push_back(s.us());
    }
  }
  t.infer_us.push_back(infer);
  t.self_us.push_back(spans.spans()[first].us() - infer - set_level - decide);
  t.allocs.push_back(static_cast<double>(allocs));
}

/// Runs one episode from level 0.  `log` (untraced) or `tracer` collects
/// per-frame samples; with neither, the episode only yields its digest.
EpisodeOut run_episode(SoloLoop& loop, const EpisodeInput& in, FrameLog* log,
                       Tracer* tracer) {
  reset_to_level0(loop);
  core::CriticalityGreedyPolicy greedy(kCertified, loop.hysteresis,
                                       loop.provider->level_count());
  core::SafetyMonitor monitor(kCertified);
  std::optional<TimedProvider> timed_provider;
  std::optional<TimedPolicy> timed_policy;
  core::InferenceProvider* provider = loop.provider;
  core::Policy* policy = &greedy;
  if (tracer != nullptr) {
    timed_provider.emplace(*provider, tracer->log);
    timed_policy.emplace(greedy, tracer->log);
    provider = &*timed_provider;
    policy = &*timed_policy;
  }
  core::RuntimeController controller(*policy, *provider, &monitor);
  sim::FaultHarness harness;
  if (loop.checker != nullptr) {
    harness.targets.live_net = loop.scrub_net;
    harness.checker = loop.checker;
    harness.levels = loop.levels;
    harness.ladder = loop.ladder;
  }
  sim::RunConfig rc = loop.rc;
  rc.noise_seed = in.noise_seed;
  rc.faults = in.plan;
  const sim::FrameEngine engine(rc);

  const Clock::time_point t0 = Clock::now();
  sim::StreamState state = engine.make_stream(
      in.scenario, controller, loop.checker != nullptr ? &harness : nullptr);
  int prev_level = 0;
  double probe_s = 0.0;
  while (!state.done()) {
    if (tracer != nullptr) {
      traced_step(engine, state, *tracer);
      continue;
    }
    const Clock::time_point a = Clock::now();
    engine.step(state);
    const double us = us_between(a, Clock::now());
    const core::FrameRecord& rec = state.result.telemetry.records().back();
    if (log != nullptr) {
      log->record(us, rec.executed_level, prev_level);
      if ((rec.frame + 1) % kProbeEvery == 0) probe_s += log->probe();
    }
    prev_level = rec.executed_level;
  }
  sim::RunResult run = engine.finish(state);
  const double wall = seconds_since(t0) - probe_s;

  EpisodeOut out;
  out.frames = static_cast<std::int64_t>(run.telemetry.size());
  out.summary = run.summary;
  out.digest = digest_run(run);
  for (const sim::InjectedFault& f : harness.injected)
    if (f.applied && f.kind == sim::FaultKind::WeightBitFlip) ++out.flips;
  if (log != nullptr) log->close_window(out.frames, wall);
  if (tracer != nullptr) {
    tracer->frames += out.frames;
    tracer->wall_s += wall;
    tracer->restores += timed_provider->restore_count();
    tracer->restore_bytes += timed_provider->restore_bytes();
  }
  if (!in.plan.empty() && loop.checker != nullptr) {
    // Every flip lands at least four scrubs before the end, so the loop's
    // own scrub and self-heal must already have healed it: the live
    // weights equal golden ⊙ mask at the level the episode ended on.
    for (const sim::FaultHarness::Recovery& rec : harness.recoveries) {
      out.repaired += rec.elements;
      if (!rec.recovered) out.errors.push_back("a self-heal did not recover");
    }
    const int level = loop.provider->current_level();
    if (!loop.checker->scrub(*loop.scrub_net, loop.levels->mask(level))
             .clean())
      out.errors.push_back("weights diverged from golden after the run");
    // Untimed: back to level 0 and repair anyway, so the next episode
    // starts from the golden weights even after a failed check.
    reset_to_level0(loop);
    const prune::NetworkMask& mask0 = loop.levels->mask(0);
    loop.checker->scrub_and_repair(*loop.scrub_net, mask0);
    if (!loop.checker->scrub(*loop.scrub_net, mask0).clean())
      out.errors.push_back("repair left the weights diverged (golden store)");
  }
  return out;
}

struct SoloRun {
  FrameLog log;
  std::vector<core::RunSummary> outcomes;  ///< the outcome episodes
  std::int64_t flips = 0;
  std::int64_t repaired = 0;
  std::int64_t episodes = 0;
  std::vector<std::string> errors;
};

void keep_errors(const EpisodeOut& ep, const std::string& where,
                 SoloRun& run) {
  run.flips += ep.flips;
  run.repaired += ep.repaired;
  for (const std::string& e : ep.errors)
    run.errors.push_back(where + ": " + e);
}

/// Untraced measurement: episodes 0, 1, 2, … until `seconds` of loop wall
/// time are spent.  Then, untimed, the outcome episodes; the first two run
/// again and must reproduce their telemetry digests.
SoloRun measure_solo(SoloLoop& loop, double seconds) {
  SoloRun out;
  for (std::size_t e = 0; e == 0 || out.log.wall_s < seconds; ++e) {
    keep_errors(run_episode(loop, loop.episode(e), &out.log, nullptr),
                "episode " + std::to_string(e), out);
    ++out.episodes;
  }
  std::vector<std::uint64_t> digests;
  for (std::size_t e = 0; e < kSoloOutcomeEpisodes; ++e) {
    const EpisodeOut ep = run_episode(loop, loop.outcome(e), nullptr, nullptr);
    keep_errors(ep, "outcome episode " + std::to_string(e), out);
    out.outcomes.push_back(ep.summary);
    digests.push_back(ep.digest);
  }
  for (std::size_t e = 0; e < 2; ++e) {
    if (run_episode(loop, loop.outcome(e), nullptr, nullptr).digest !=
        digests[e])
      out.errors.push_back("outcome episode " + std::to_string(e) +
                           ": telemetry digest differs on repeat");
  }
  if (out.flips > 0 && out.repaired == 0)
    out.errors.push_back("weight flips applied but the loop never healed one");
  return out;
}

/// Invariants 1 and 3: a level walk of the masked ReversiblePruner — its
/// O(Δ) prunes and restores — matches the compacted network of every level
/// it visits to the invariant-13 tolerance, and back at level 0 the live
/// weights are golden bit for bit.  Unlike the repeat digests this fails
/// on a deterministic regression in compaction, masked restore or BN
/// switching.
void check_ladder(core::ReversiblePruner& masked,
                  const std::function<nn::Network&(int)>& compacted,
                  const core::IntegrityChecker& checker,
                  const std::vector<nn::Tensor>& inputs,
                  std::vector<std::string>& errors) {
  for (const int k : {kLevels - 1, 1, 3, 0, 2, kLevels - 1, 0}) {
    masked.set_level(k);
    for (const nn::Tensor& x : inputs) {
      const nn::Tensor a = masked.infer(x);
      const nn::Tensor b = compacted(k).forward(x, false);
      if (a.shape() != b.shape() || !(a.max_abs_diff(b) < kEquivTolerance)) {
        errors.push_back("masked and compacted outputs differ at L" +
                         std::to_string(k));
        break;
      }
    }
  }
  if (!checker.scrub(masked.network(), masked.levels().mask(0)).clean())
    errors.push_back("level walk did not restore the golden weights");
}

void add_outcome_metrics(std::vector<Metric>& m, std::vector<Metric>& info,
                         const std::vector<core::RunSummary>& runs) {
  double correct = 0.0, frames = 0.0, missed = 0.0, critical = 0.0;
  for (const core::RunSummary& s : runs) {
    correct += s.accuracy * static_cast<double>(s.frames);
    frames += static_cast<double>(s.frames);
    missed += s.missed_critical_rate * static_cast<double>(s.critical_frames);
    critical += static_cast<double>(s.critical_frames);
  }
  add(m, "accuracy", frames > 0 ? correct / frames : 0.0, "fraction");
  // Printed, not gated: it can be 0, as on detnet_loop.
  add(info, "missed_critical_frac", critical > 0 ? missed / critical : 0.0,
      "fraction");
}

/// Quantile p of each run of `chunk` consecutive samples (of all samples
/// when there are fewer).
std::vector<double> chunk_quantiles(const std::vector<double>& v,
                                    std::size_t chunk, double p) {
  std::vector<double> out;
  for (std::size_t b = 0; b + chunk <= v.size(); b += chunk)
    out.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                            v.begin() + static_cast<std::ptrdiff_t>(b + chunk)),
        p));
  if (out.empty() && !v.empty()) out.push_back(quantile(v, p));
  return out;
}

/// Every timing is the faster quartile over windows.  Neighbours on a
/// shared-core host slow stretches of 0.1 s to minutes; the speed probes
/// scale most of that away, but not all.  A quantile pooled over the run,
/// or the median window, then follows the slowed share of the run; the
/// faster quartile of windows reads the same whenever at least a quarter
/// of the run was fast, which is the min-of-repeats rule applied per
/// window.
void add_latency_metrics(std::vector<Metric>& m, const FrameLog& log) {
  add(m, "frames_per_s", quantile(log.window_fps, 0.75), "frames/s");
  add(m, "frame_us_p50", quantile(log.window_p50, 0.25), "us");
  add(m, "frame_us_p99", quantile(log.window_p99, 0.25), "us");
  add(m, "restore_us_p50",
      quantile(chunk_quantiles(log.restore_mid_us, kRestoreChunk, 0.50), 0.25),
      "us");
  add(m, "restore_us_p95",
      quantile(chunk_quantiles(log.restore_tail_us, kRestoreChunk, 0.95),
               0.25),
      "us");
}

void add_sample_info(Result& r, const FrameLog& log) {
  add(r.info, "raw_frames_per_s", static_cast<double>(log.frames) / log.wall_s,
      "frames/s");
  add(r.info, "host_speed", median(log.window_speed), "x");
  add(r.info, "frame_samples", static_cast<double>(log.samples), "count");
  add(r.info, "restore_samples",
      static_cast<double>(log.restore_mid_us.size()), "count");
  for (int k = 0; k < kLevels; ++k)
    add(r.info, "level_frac.L" + std::to_string(k),
        log.frames > 0
            ? static_cast<double>(log.level_frames[static_cast<std::size_t>(k)]) /
                  static_cast<double>(log.frames)
            : 0.0,
        "fraction");
}

// ---------------------------------------------------------------------------
// Per-layer pieces of the traced run
// ---------------------------------------------------------------------------

/// Replays each level's Network::forward layer by layer through the public
/// Layer::forward, checks the replay is bit-identical to forward, and
/// reports per-level forward time, per-kind self time, MAC throughput,
/// computed bytes moved and exact allocation counts.
void nn_profile(const std::function<nn::Network&(int)>& level_net,
                const std::function<std::int64_t(int)>& level_macs,
                const std::vector<nn::Tensor>& inputs, int reps, Result& r) {
  for (int k = 0; k < kLevels; ++k) {
    nn::Network& net = level_net(k);
    std::vector<double> forward_us;
    std::vector<std::vector<double>> layer_us(net.layer_count());
    double bytes = 0.0, allocs = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const nn::Tensor& x = inputs[static_cast<std::size_t>(rep) % inputs.size()];
      if (rep == 0) {  // counted on an extra, untimed forward
        const CountAllocations counting;
        const std::int64_t a0 = allocation_count();
        (void)net.forward(x, false);
        allocs = static_cast<double>(allocation_count() - a0);
      }
      const Clock::time_point t0 = Clock::now();
      const nn::Tensor reference = net.forward(x, false);
      forward_us.push_back(us_between(t0, Clock::now()));

      nn::Tensor cur = x;
      for (std::size_t li = 0; li < net.layer_count(); ++li) {
        nn::Layer& layer = net.layer(li);
        const Clock::time_point a = Clock::now();
        nn::Tensor next = layer.forward(cur, false);
        layer_us[li].push_back(us_between(a, Clock::now()));
        if (rep == 0) {
          // Computed, not measured: input + output activations + weights.
          double elems = static_cast<double>(cur.numel() + next.numel());
          for (const nn::ParamRef& p : layer.params())
            elems += static_cast<double>(p.value->numel());
          bytes += elems * sizeof(float);
        }
        cur = std::move(next);
      }
      if (!same_bits(cur, reference))
        r.errors.push_back("layer replay differs from Network::forward at L" +
                           std::to_string(k));
    }
    const std::string lk = ".L" + std::to_string(k);
    const double fwd = median(forward_us);
    add(r.metrics, "nn.forward_us" + lk, fwd, "us");
    for (const char* kind : kLayerKinds) {
      double self = 0.0;
      for (std::size_t li = 0; li < net.layer_count(); ++li)
        if (std::strcmp(nn::layer_kind_name(net.layer(li).kind()), kind) == 0)
          self += median(layer_us[li]);
      add(r.metrics, std::string("nn.layer_us.") + kind + lk, self, "us");
    }
    add(r.metrics, "nn.macs_per_us" + lk,
        static_cast<double>(level_macs(k)) / fwd, "MACs/us");
    add(r.metrics, "nn.bytes_moved" + lk, bytes, "B");
    add(r.metrics, "nn.allocs_per_infer" + lk, allocs, "count");
  }
}

template <typename Fn>
double median_us(int reps, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    us.push_back(us_between(t0, Clock::now()));
  }
  return median(std::move(us));
}

/// Standalone scrub / repair of `net` against golden ⊙ mask(0).
void integrity_profile(core::IntegrityChecker& checker, nn::Network& net,
                       const prune::PruneLevelLibrary& levels, Result& r) {
  const prune::NetworkMask& mask = levels.mask(0);
  std::int64_t elements = 0;
  const double scrub_us = median_us(50, [&] {
    elements = checker.scrub(net, mask).elements_checked;
  });
  // Repair: flip one exponent bit of a live weight, scrub, time the heal.
  std::vector<nn::ParamRef> params = net.params();
  std::vector<double> repair_us;
  for (int rep = 0; rep < 50; ++rep) {
    nn::Tensor& w = *params[static_cast<std::size_t>(rep) % params.size()].value;
    float& v = w[rep % w.numel()];
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    bits ^= 1u << 23;
    std::memcpy(&v, &bits, sizeof bits);
    const core::ScrubReport report = checker.scrub(net, mask);
    const Clock::time_point t0 = Clock::now();
    checker.repair(net, mask, report);
    repair_us.push_back(us_between(t0, Clock::now()));
  }
  if (!checker.scrub(net, mask).clean())
    r.errors.push_back("repair left the network diverged from golden");
  add(r.metrics, "core.scrub_us", scrub_us, "us");
  add(r.metrics, "core.scrub_elements", static_cast<double>(elements), "count");
  add(r.metrics, "core.repair_us", median(std::move(repair_us)), "us");
}

/// O(Δ) masked-arm alignment after a full-depth swap and back.
double sync_masked_us(core::CompactedLadderProvider& ladder) {
  std::vector<double> us;
  for (int rep = 0; rep < 50; ++rep) {
    for (const int level : {kLevels - 1, 0}) {
      ladder.set_level(level);
      const Clock::time_point t0 = Clock::now();
      ladder.sync_masked();
      us.push_back(us_between(t0, Clock::now()));
    }
  }
  return median(std::move(us));
}

void sim_util_profile(const sim::Scenario& scenario, std::uint64_t seed,
                      Result& r) {
  const sim::VisionTaskConfig vision;
  Rng rng(seed);
  std::size_t i = 0;
  add(r.metrics, "sim.render_us", median_us(2000, [&] {
        const nn::Tensor t = sim::render_scene(
            scenario.scenes[i++ % scenario.scenes.size()], vision, rng);
        (void)t;
      }), "us");
  add(r.metrics, "util.fanout_us", median_us(2000, [] {
        parallel_for(0, 32, 1, [](std::int64_t, std::int64_t) {});
      }), "us");
}

std::vector<nn::Tensor> sample_inputs(const sim::Scenario& scenario,
                                      std::uint64_t seed, int count) {
  const sim::VisionTaskConfig vision;
  Rng rng(seed);
  std::vector<nn::Tensor> out;
  for (int i = 0; i < count; ++i) {
    const sim::Scene& scene =
        scenario.scenes[static_cast<std::size_t>(i * 7) % scenario.scenes.size()];
    out.push_back(sim::render_scene(scene, vision, rng).reshape({1, 1, 16, 16}));
  }
  return out;
}

/// The decorator-derived metrics, and the traced/untraced throughput pair
/// that measures the tracing overhead.
void add_tracer_metrics(const Tracer& t, double untraced_fps, Result& r) {
  add(r.metrics, "core.infer_us", median(t.infer_us), "us");
  add(r.metrics, "core.set_level_us", median(t.set_level_us), "us");
  add(r.metrics, "core.decide_us", median(t.decide_us), "us");
  add(r.metrics, "core.restore_bytes",
      t.restores > 0 ? static_cast<double>(t.restore_bytes) /
                           static_cast<double>(t.restores)
                     : 0.0,
      "B");
  add(r.metrics, "sim.frame_self_us", median(t.self_us), "us");
  add(r.metrics, "sim.allocs_per_frame", median(t.allocs), "count");
  add(r.metrics, "bench.untraced_frames_per_s", untraced_fps, "frames/s");
  add(r.metrics, "bench.traced_frames_per_s",
      static_cast<double>(t.frames) / t.wall_s, "frames/s");
  add(r.info, "traced_frames", static_cast<double>(t.frames), "count");
  add(r.info, "spans", static_cast<double>(t.log.spans().size()), "count");
}

/// Runs the same episodes untraced for half the budget, then traced for
/// the other half (whole episodes, within the span log's capacity).
Tracer traced_solo(SoloLoop& loop, std::size_t episode_frames, double seconds,
                   double& untraced_fps) {
  FrameLog plain;
  for (std::size_t e = 0; e == 0 || plain.wall_s < seconds / 2; ++e)
    run_episode(loop, loop.episode(e), &plain, nullptr);
  untraced_fps = static_cast<double>(plain.frames) / plain.wall_s;

  Tracer tracer(400000);
  for (std::size_t e = 0;
       e == 0 || (tracer.wall_s < seconds / 2 &&
                  tracer.log.spans().size() + 8 * episode_frames <
                      tracer.log.spans().capacity());
       ++e)
    run_episode(loop, loop.episode(e), nullptr, &tracer);
  return tracer;
}

void write_spans(const Tracer& t, const std::string& path, Result& r) {
  if (path.empty()) return;
  std::ofstream out(path);
  t.log.write_csv(out);
  if (!out) r.errors.push_back("cannot write spans to " + path);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A provisioned model with what the workload builds over it.  Held by
/// pointer and never moved: providers keep pointers into `pm.net`.
struct SoloModel {
  models::ProvisionedModel pm;
  std::unique_ptr<core::CompactedLadderProvider> fast;
  std::unique_ptr<core::ReversiblePruner> masked;
  std::unique_ptr<core::IntegrityChecker> checker;
};

struct FleetModel {
  models::ProvisionedModel pm;
  std::unique_ptr<serve::ServeEngine> engine;
};

/// Set-up times: total_s at the reference speed (the gated setup_s), the
/// rest raw.
struct SetupTimes {
  std::vector<double> total_s, raw_total_s, provision_s, build_s;
};

/// Runs warm-cache provisioning plus `build` `count` times, keeping the
/// last model.
template <typename Model, typename Build>
std::unique_ptr<Model> timed_setups(const std::string& cache,
                                    models::ModelKind kind, int count,
                                    Build&& build, SetupTimes& times) {
  std::unique_ptr<Model> model;
  for (int i = 0; i < count; ++i) {
    model.reset();
    const double probe_before = probe_us();
    const Clock::time_point t0 = Clock::now();
    model = std::make_unique<Model>();
    model->pm = models::get_provisioned(kind, {}, {}, cache);
    const Clock::time_point t1 = Clock::now();
    build(*model);
    const Clock::time_point t2 = Clock::now();
    const double scale =
        kReferenceProbeUs / (0.5 * (probe_before + probe_us()));
    times.raw_total_s.push_back(us_between(t0, t2) * 1e-6);
    times.total_s.push_back(us_between(t0, t2) * 1e-6 * scale);
    times.provision_s.push_back(us_between(t0, t1) * 1e-6);
    times.build_s.push_back(us_between(t1, t2) * 1e-6);
  }
  return model;
}

void add_setup_metrics(const SetupTimes& t, bool traced, Result& r) {
  if (traced) {
    add(r.metrics, "models.provision_s", median(t.provision_s), "s");
    add(r.metrics, "core.ladder_build_s", median(t.build_s), "s");
  } else {
    add(r.metrics, "setup_s", median(t.total_s), "s");
    add(r.info, "raw_setup_s", median(t.raw_total_s), "s");
  }
}

sim::FaultMix weight_flips_only() {
  sim::FaultMix mix;
  mix.sensor_blackout = mix.store_bit_flip = mix.stuck_criticality =
      mix.stale_criticality = mix.latency_spike = mix.dropped_decision =
          mix.artifact_read_failure = 0.0;
  mix.weight_bit_flip = 1.0;
  return mix;
}

/// Episode e of a single-stream workload: its own scenario, sensor noise
/// and (masked_storm) fault plan, all derived from (seed, e).
std::function<EpisodeInput(std::size_t)> solo_episodes(
    sim::ScenarioSpec scenario, int frames, std::uint64_t seed, int faults) {
  return [=](std::size_t e) {
    const std::uint64_t salt = static_cast<std::uint64_t>(e) * 16;
    EpisodeInput in;
    in.scenario =
        sim::generate_scenario(scenario, frames, derive(seed, salt + 1));
    in.noise_seed = derive(seed, salt + 2);
    // Flips land at least four scrubs before the end, so the loop heals
    // them all.
    if (faults > 0)
      in.plan = sim::FaultPlan::random_plan(derive(seed, salt + 3),
                                            frames - 4 * kStormScrubPeriod,
                                            faults, weight_flips_only());
    return in;
  };
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

Result run_solo_workload(const Options& opt, bool storm) {
  ThreadPool::set_global_threads(storm ? kStormThreads : kDetnetThreads);
  Result r;
  SetupTimes times;
  std::unique_ptr<SoloModel> m = timed_setups<SoloModel>(
      opt.cache_dir, models::ModelKind::DetNet, kDetnetSetups,
      [&](SoloModel& model) {
        if (storm) {
          model.masked =
              std::make_unique<core::ReversiblePruner>(model.pm.make_pruner());
          model.checker =
              std::make_unique<core::IntegrityChecker>(model.masked->store());
        } else {
          model.fast = std::make_unique<core::CompactedLadderProvider>(
              model.pm.make_fast_provider(models::zoo_input_shape()));
          model.checker = std::make_unique<core::IntegrityChecker>(
              model.fast->masked().store());
        }
      },
      times);

  SoloLoop loop;
  loop.checker = m->checker.get();
  loop.levels = &m->pm.levels;
  loop.rc.deadline_ms = 12.0;
  loop.rc.self_heal = true;
  int frames = 0;
  if (storm) {
    loop.provider = m->masked.get();
    loop.scrub_net = &m->masked->network();
    loop.hysteresis = kStormHysteresis;
    loop.rc.criticality_source = sim::CriticalitySource::Perception;
    loop.rc.scrub_period_frames = kStormScrubPeriod;
    frames = kStormFrames;
    const sim::ScenarioSpec spec = sim::builtin_scenario_spec(kStormScenario);
    loop.episode = solo_episodes(spec, frames, opt.seed, kStormFaults);
    loop.outcome = solo_episodes(spec, frames, kOutcomeSeed, kStormFaults);
  } else {
    loop.provider = m->fast.get();
    loop.ladder = m->fast.get();
    loop.scrub_net = &m->fast->masked().network();
    loop.hysteresis = kDetnetHysteresis;
    loop.rc.scrub_period_frames = kDetnetScrubPeriod;
    frames = kDetnetFrames;
    sim::ScenarioSpec spec = sim::builtin_scenario_spec("cut_in");
    spec.primitives.front().params["period"] = kDetnetCutInPeriod;
    loop.episode = solo_episodes(spec, frames, opt.seed, 0);
    loop.outcome = solo_episodes(spec, frames, kOutcomeSeed, 0);
  }
  const nn::Shape shape = models::zoo_input_shape();

  if (!opt.trace) {
    add_setup_metrics(times, false, r);
    SoloRun run = measure_solo(loop, opt.seconds);
    add_latency_metrics(r.metrics, run.log);
    add(r.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add_outcome_metrics(r.metrics, r.info, run.outcomes);
    add_sample_info(r, run.log);
    add(r.info, "episodes", static_cast<double>(run.episodes), "count");
    if (storm)
      add(r.info, "weight_flips", static_cast<double>(run.flips), "count");

    const std::vector<nn::Tensor> inputs =
        sample_inputs(loop.outcome(0).scenario, kOutcomeSeed, 8);
    if (storm) {
      // The reference ladder is compacted from a copy of the golden net,
      // so the storm's own pruner is the one walked.
      m->masked->set_level(0);
      nn::Network golden = m->pm.net.clone();
      core::CompactedLadderProvider ref(golden, m->pm.levels, shape,
                                        m->pm.bn_states);
      check_ladder(*m->masked,
                   [&](int k) -> nn::Network& { return ref.network_at(k); },
                   *m->checker, inputs, run.errors);
    } else {
      core::CompactedLadderProvider& f = *m->fast;
      f.set_level(0);
      f.sync_masked();
      check_ladder(f.masked(),
                   [&](int k) -> nn::Network& { return f.network_at(k); },
                   *m->checker, inputs, run.errors);
    }
    r.attempted = run.log.frames;
    r.errors = run.errors;
    if (!r.errors.empty()) r.failed = r.attempted;
    r.correct = r.errors.empty();
    return r;
  }

  add_setup_metrics(times, true, r);
  double untraced_fps = 0.0;
  const Tracer tracer =
      traced_solo(loop, static_cast<std::size_t>(frames), opt.seconds,
                  untraced_fps);
  r.attempted = tracer.frames;
  add_tracer_metrics(tracer, untraced_fps, r);

  const sim::Scenario scenario = loop.episode(0).scenario;
  const std::vector<nn::Tensor> inputs = sample_inputs(scenario, opt.seed, 16);
  if (storm) {
    core::ReversiblePruner& p = *m->masked;
    nn_profile(
        [&](int k) -> nn::Network& {
          p.set_level(k);
          return p.network();
        },
        [&](int k) {
          p.set_level(k);
          return p.active_macs(shape);
        },
        inputs, 64, r);
    p.set_level(0);
    add(r.metrics, "core.sync_masked_us", 0.0, "us");  // no lagging arm
    integrity_profile(*m->checker, p.network(), p.levels(), r);
  } else {
    core::CompactedLadderProvider& f = *m->fast;
    nn_profile([&](int k) -> nn::Network& { return f.network_at(k); },
               [&](int k) {
                 f.set_level(k);
                 return f.active_macs(shape);
               },
               inputs, 64, r);
    add(r.metrics, "core.sync_masked_us", sync_masked_us(f), "us");
    f.set_level(0);
    f.sync_masked();
    integrity_profile(*m->checker, f.masked().network(), f.masked().levels(),
                      r);
  }
  sim_util_profile(scenario, opt.seed, r);
  add(r.metrics, "serve.non_infer_us_per_frame", 0.0, "us");  // no fleet
  add(r.metrics, "serve.rss_growth_bytes_per_frame", 0.0, "B/frame");
  write_spans(tracer, opt.spans_path, r);
  r.correct = r.errors.empty();
  return r;
}

std::vector<serve::StreamSpec> fleet_specs() {
  std::vector<serve::StreamSpec> specs;
  for (int i = 0; i < kFleetStreams; ++i) {
    serve::StreamSpec s;
    s.scenario = kFleetScenario;
    s.policy = "greedy";
    s.frames = kFleetFrames;
    s.arrival_tick = static_cast<std::int64_t>(i) * kFleetStagger;
    s.deadline_ms = 12.0;
    s.hysteresis = 6;
    specs.push_back(s);
  }
  return specs;
}

/// Fleet run e serves the same specs under engine seed derive(seed, e), so
/// every run draws new scenarios and sensor noise for all 32 streams.
serve::ServeConfig fleet_config(std::uint64_t seed, std::size_t e) {
  serve::ServeConfig cfg;
  cfg.seed = derive(seed, 7 + static_cast<std::uint64_t>(e) * 16);
  cfg.tick_budget_ms = 0.0;  // uncontended: nothing is degraded or shed
  cfg.admission.max_streams = kFleetStreams;
  // The engine's measured channel gives each frame's inference wall time;
  // the fleet's per-frame latency metrics come from it.
  cfg.measure_wall = true;
  return cfg;
}

std::unique_ptr<serve::ServeEngine> make_engine(models::ProvisionedModel& pm,
                                                const serve::ServeConfig& cfg) {
  serve::ServeInputs inputs;
  inputs.net = &pm.net;
  inputs.levels = &pm.levels;
  inputs.bn_states = pm.bn_states;
  inputs.certified = kCertified;
  return std::make_unique<serve::ServeEngine>(inputs, cfg);
}

std::uint64_t digest_report(const serve::ServeReport& report) {
  std::ostringstream os;
  serve::write_serve_report_json(report, os);
  for (const serve::StreamResult& s : report.streams)
    s.run.telemetry.write_csv(os);
  return digest_string(os.str());
}

struct FleetEpisode {
  serve::ServeReport report;
  double wall_s = 0.0;
};

FleetEpisode run_fleet(serve::ServeEngine& engine,
                       const std::vector<serve::StreamSpec>& specs) {
  FleetEpisode ep;
  const Clock::time_point t0 = Clock::now();
  ep.report = engine.run(specs);
  ep.wall_s = seconds_since(t0);
  return ep;
}

/// Fleet run e from scratch: a fresh engine under run e's seed (untimed).
FleetEpisode fleet_episode(models::ProvisionedModel& pm, std::uint64_t seed,
                           std::size_t e,
                           const std::vector<serve::StreamSpec>& specs) {
  const std::unique_ptr<serve::ServeEngine> engine =
      make_engine(pm, fleet_config(seed, e));
  return run_fleet(*engine, specs);
}

std::int64_t unserved_frames(const serve::ServeReport& report,
                             const std::vector<serve::StreamSpec>& specs) {
  std::int64_t missing = 0;
  for (std::size_t i = 0; i < specs.size(); ++i)
    missing += specs[i].frames - report.streams[i].frames_executed;
  return missing;
}

Result run_fleet_workload(const Options& opt) {
  ThreadPool::set_global_threads(kFleetThreads);
  Result r;
  const std::vector<serve::StreamSpec> specs = fleet_specs();
  SetupTimes times;
  std::unique_ptr<FleetModel> m = timed_setups<FleetModel>(
      opt.cache_dir, models::ModelKind::LeNet, kLenetSetups,
      [&](FleetModel& model) {
        model.engine = make_engine(model.pm, fleet_config(opt.seed, 0));
      },
      times);

  if (!opt.trace) {
    add_setup_metrics(times, false, r);
    FrameLog log;
    std::size_t runs = 0;
    for (std::size_t e = 0; e == 0 || log.wall_s < opt.seconds; ++e) {
      // A fleet run has no per-frame hook: its window's speed probes are
      // taken just before it and at its end.
      for (int i = 0; i < 4; ++i) log.probe();
      const FleetEpisode ep = e == 0 ? run_fleet(*m->engine, specs)
                                     : fleet_episode(m->pm, opt.seed, e, specs);
      ++runs;
      for (const serve::StreamResult& s : ep.report.streams) {
        int prev_level = 0;
        for (const sim::WallFrame& w : s.run.wall.frames) {
          log.record(w.infer_us, w.level, prev_level);
          prev_level = w.level;
        }
      }
      log.close_window(ep.report.frames, ep.wall_s);
      const std::int64_t missing = unserved_frames(ep.report, specs);
      r.attempted += ep.report.frames + missing;
      r.failed += missing;
    }
    add_latency_metrics(r.metrics, log);
    add(r.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    add_sample_info(r, log);
    add(r.info, "fleet_runs", static_cast<double>(runs), "count");

    // Untimed: the outcome runs, each on a fresh engine.  The first one
    // then repeats on a reused engine, and again at RRP_THREADS=1
    // (invariant 16); all three must give the same bytes.
    std::vector<core::RunSummary> outcomes;
    std::uint64_t first_digest = 0;
    for (std::size_t e = 0; e < kOutcomeFleetRuns; ++e) {
      const FleetEpisode ep = fleet_episode(m->pm, kOutcomeSeed, e, specs);
      for (const serve::StreamResult& s : ep.report.streams)
        outcomes.push_back(s.run.summary);
      if (unserved_frames(ep.report, specs) != 0)
        r.errors.push_back("outcome fleet run left frames unserved");
      if (e == 0) first_digest = digest_report(ep.report);
    }
    add_outcome_metrics(r.metrics, r.info, outcomes);
    const std::unique_ptr<serve::ServeEngine> ref =
        make_engine(m->pm, fleet_config(kOutcomeSeed, 0));
    if (digest_report(run_fleet(*ref, specs).report) != first_digest)
      r.errors.push_back("fleet report digest differs on repeat");
    {
      ThreadCountGuard one_thread(1);
      if (digest_report(run_fleet(*ref, specs).report) != first_digest)
        r.errors.push_back("fleet report at RRP_THREADS=1 differs");
    }
    core::CompactedLadderProvider& shared = m->engine->shared_provider();
    const core::IntegrityChecker checker(shared.masked().store());
    check_ladder(
        shared.masked(),
        [&](int k) -> nn::Network& { return shared.network_at(k); }, checker,
        sample_inputs(sim::make_suite_or_dsl(kFleetScenario, kFleetFrames,
                                             kOutcomeSeed),
                      kOutcomeSeed, 8),
        r.errors);
    if (!r.errors.empty()) r.failed = r.attempted;
    r.correct = r.errors.empty();
    return r;
  }

  add_setup_metrics(times, true, r);
  serve::ServeEngine& engine = *m->engine;
  // Fleet-level layers first, on a heap that has not yet served a frame:
  // heap growth across one run (report alive) per frame served, then the
  // per-frame time the fleet spends outside inference.
  {
    const double heap0 = heap_in_use_bytes();
    const FleetEpisode ep = run_fleet(engine, specs);
    const double growth = heap_in_use_bytes() - heap0;
    add(r.metrics, "serve.rss_growth_bytes_per_frame",
        growth / static_cast<double>(ep.report.frames), "B/frame");
  }
  std::vector<double> non_infer;
  serve::ServeReport last;
  for (double spent = 0.0; non_infer.empty() || spent < opt.seconds / 4;) {
    FleetEpisode ep = run_fleet(engine, specs);
    spent += ep.wall_s;
    double infer_us = 0.0;
    for (const serve::StreamResult& s : ep.report.streams)
      for (const sim::WallFrame& w : s.run.wall.frames) infer_us += w.infer_us;
    // Thread time: the fan-out runs kFleetThreads threads for the wall.
    non_infer.push_back((ep.wall_s * 1e6 * kFleetThreads - infer_us) /
                        static_cast<double>(ep.report.frames));
    last = std::move(ep.report);
  }
  add(r.metrics, "serve.non_infer_us_per_frame", median(non_infer), "us");

  // Decorated solo replay of the fleet's streams over a view of the shared
  // ladder: the per-frame path a fleet stream takes (floor 0), and — by
  // invariant 16 — the same telemetry bytes, which is checked.
  const serve::ServeConfig cfg = fleet_config(opt.seed, 0);
  core::CompactedLadderProvider& shared = engine.shared_provider();
  core::CompactedLadderView view(shared);
  SoloLoop loop;
  loop.provider = &view;
  loop.hysteresis = specs.front().hysteresis;
  loop.rc.deadline_ms = specs.front().deadline_ms;
  loop.rc.sensing_delay_frames = cfg.sensing_delay_frames;
  loop.rc.measure_wall = true;
  loop.episode = [&](std::size_t e) {
    const std::size_t i = e % specs.size();
    EpisodeInput in;
    in.scenario = sim::make_suite_or_dsl(
        specs[i].scenario, specs[i].frames,
        serve::stream_scenario_seed(cfg.seed, i));
    in.noise_seed = serve::stream_noise_seed(cfg.seed, i);
    return in;
  };
  for (std::size_t i = 0; i < 4; ++i) {
    if (run_episode(loop, loop.episode(i), nullptr, nullptr).digest !=
        digest_run(last.streams[i].run))
      r.errors.push_back("solo replay of fleet stream " + std::to_string(i) +
                         " differs from the fleet's telemetry");
  }
  double untraced_fps = 0.0;
  const Tracer tracer = traced_solo(
      loop, static_cast<std::size_t>(kFleetFrames), opt.seconds / 2,
      untraced_fps);
  r.attempted = tracer.frames;
  add_tracer_metrics(tracer, untraced_fps, r);

  const sim::Scenario scenario = loop.episode(0).scenario;
  const std::vector<nn::Tensor> inputs = sample_inputs(scenario, opt.seed, 16);
  const nn::Shape shape = models::zoo_input_shape();
  nn_profile([&](int k) -> nn::Network& { return shared.network_at(k); },
             [&](int k) {
               view.set_level(k);
               return view.active_macs(shape);
             },
             inputs, 256, r);
  add(r.metrics, "core.sync_masked_us", sync_masked_us(shared), "us");
  shared.set_level(0);
  shared.sync_masked();
  core::IntegrityChecker checker(shared.masked().store());
  integrity_profile(checker, shared.masked().network(),
                    shared.masked().levels(), r);
  sim_util_profile(scenario, opt.seed, r);
  write_spans(tracer, opt.spans_path, r);
  r.correct = r.errors.empty();
  return r;
}

}  // namespace

Result run_workload(const Options& opt) {
  if (opt.workload == "detnet_loop") return run_solo_workload(opt, false);
  if (opt.workload == "masked_storm") return run_solo_workload(opt, true);
  if (opt.workload == "lenet_fleet") return run_fleet_workload(opt);
  RRP_CHECK_MSG(false, "unknown workload '" << opt.workload << "'");
  return {};
}

void provision_models(const std::string& cache_dir) {
  models::get_provisioned_all(
      {models::ModelKind::DetNet, models::ModelKind::LeNet}, {}, {}, cache_dir);
}

}  // namespace perfbench
