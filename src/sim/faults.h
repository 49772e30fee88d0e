// faults.h — deterministic fault injection for the closed loop.
//
// The safety story of reversible pruning is only credible if the loop is
// exercised UNDER faults: single-event upsets in weight memory (live
// network and golden store), stuck/stale criticality sensing, latency
// spikes, dropped controller decisions, sensor blackouts and transient
// artifact-read failures.  A FaultPlan is a seeded, reproducible schedule
// of such faults; the runner applies them at frame boundaries via a
// FaultInjector, and the integrity layer (core/integrity.h) detects and
// repairs the weight faults — O(Δ) for the reversible provider versus a
// full artifact reload for the non-reversible baseline (experiment R-F9).
//
// Everything here is seeded through rrp::Rng: the same (seed, frames, mix)
// always yields the same plan, and a campaign's CSV is byte-identical for
// any RRP_THREADS.  Ambient RNG stays banned in this file by rrp_lint
// (src/sim/faults.* is deliberately NOT on the determinism-random
// whitelist — randomness only via the seeded util/rng.h API).
#pragma once

#include <iosfwd>
#include <optional>

#include "core/baselines.h"
#include "core/integrity.h"
#include "core/reversible_pruner.h"
#include "core/safety_monitor.h"
#include "sim/scenario.h"

namespace rrp::sim {

/// Every fault the campaign framework can schedule.
enum class FaultKind : int {
  SensorBlackout = 0,   ///< camera frame lost (empty road) for a burst
  WeightBitFlip = 1,    ///< SEU in a live network weight
  StoreBitFlip = 2,     ///< SEU in the golden WeightStore copy
  StuckCriticality = 3, ///< criticality sensor pinned at a fixed class
  StaleCriticality = 4, ///< criticality sensor repeats its last reading
  LatencySpike = 5,     ///< modeled inference latency multiplied for a burst
  DroppedDecision = 6,  ///< controller decision not applied this frame
  ArtifactReadFailure = 7,  ///< reload baseline: transient storage failures
};

constexpr int kFaultKinds = 8;

const char* fault_kind_name(FaultKind k);

/// One scheduled fault.
struct FaultEvent {
  FaultKind kind = FaultKind::SensorBlackout;
  std::int64_t frame = 0;    ///< first frame the fault is active
  int duration_frames = 1;   ///< burst length (blackout/stuck/stale/spike/drop)
  double magnitude = 4.0;    ///< LatencySpike: latency multiplier
  /// Bit flips: flat element selector, resolved modulo the target's total
  /// element count at injection time, and the bit to XOR (0..31).
  std::uint64_t target = 0;
  int bit = 30;
  core::CriticalityClass stuck = core::CriticalityClass::Low;
  int count = 1;  ///< ArtifactReadFailure: number of reads that fail
};

/// Relative frequency of each kind in a random plan (0 disables a kind).
struct FaultMix {
  double sensor_blackout = 0.5;
  double weight_bit_flip = 2.0;
  double store_bit_flip = 0.5;
  double stuck_criticality = 0.5;
  double stale_criticality = 0.5;
  double latency_spike = 1.0;
  double dropped_decision = 0.5;
  double artifact_read_failure = 0.5;

  std::vector<double> weights() const;
};

/// A reproducible schedule of faults, sorted by frame.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  void add(FaultEvent e);  ///< inserts keeping frame order

  /// Draws `n_faults` faults uniformly over [warmup, frames) with kinds
  /// distributed per `mix`.  Deterministic in every argument.
  static FaultPlan random_plan(std::uint64_t seed, int frames, int n_faults,
                               const FaultMix& mix = {}, int warmup = 10);
};

/// Where injected faults land.  All pointers are optional and non-owning;
/// events whose target is absent are skipped (and reported as skipped).
struct FaultTargets {
  nn::Network* live_net = nullptr;        ///< WeightBitFlip
  core::WeightStore* store = nullptr;     ///< StoreBitFlip
  core::ReloadProvider* reload = nullptr; ///< ArtifactReadFailure
};

/// The per-frame effect set the runner consumes.
struct FrameFaults {
  bool blackout = false;
  bool drop_decision = false;
  double latency_scale = 1.0;
  std::optional<core::CriticalityClass> stuck_criticality;
  bool stale_criticality = false;
};

/// One fault actually injected (bit flips resolved to a concrete target).
struct InjectedFault {
  std::size_t event_index = 0;
  FaultKind kind = FaultKind::SensorBlackout;
  std::int64_t frame = 0;
  std::string param;          ///< bit flips: parameter hit
  std::int64_t element = -1;  ///< bit flips: flat element index
  int bit = -1;
  bool applied = false;  ///< false when the arm has no such target
};

/// Walks a FaultPlan over the frame sequence, applying weight/store flips
/// and read-failure injections eagerly and exposing burst effects
/// (blackout, stuck sensor, latency spike, …) per frame.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, FaultTargets targets);

  /// Must be called once per frame, in order.  Applies point faults whose
  /// frame has arrived and returns the burst effects active at `frame`.
  FrameFaults begin_frame(std::int64_t frame);

  /// Everything injected so far, in schedule order.
  const std::vector<InjectedFault>& injected() const { return injected_; }

 private:
  /// Applies or activates every event whose frame has arrived.
  void fire_due_events(std::int64_t frame);
  void apply_point_fault(std::size_t idx, const FaultEvent& e);

  FaultPlan plan_;
  FaultTargets targets_;
  std::size_t next_ = 0;  ///< first event not yet applied/activated
  std::vector<InjectedFault> injected_;
  /// Active bursts: (end_frame_exclusive, event index).
  std::vector<std::pair<std::int64_t, std::size_t>> active_;
};

/// Integrity wiring for one closed-loop run under faults.  The reversible
/// arm supplies checker/levels (scrub + O(Δ) self-heal); the reload arm
/// supplies reload/reload_digests (digest check + full-artifact reload).
struct FaultHarness {
  FaultTargets targets;
  /// Reversible arm: scrub against golden ⊙ mask and self-heal.
  core::IntegrityChecker* checker = nullptr;
  const prune::PruneLevelLibrary* levels = nullptr;
  /// Fast-path arm only: the provider whose masked golden arm lags the
  /// active compacted level.  The runner calls sync_masked() right before
  /// each scrub so the golden ⊙ mask reference matches the active level —
  /// the O(Δ) walk rides the scrub cadence, never the frame path.
  core::CompactedLadderProvider* ladder = nullptr;
  /// Reload arm: expected per-level digests of a cleanly-loaded network;
  /// divergence of the active network triggers reload_current().
  core::ReloadProvider* reload = nullptr;
  const std::vector<std::uint64_t>* reload_digests = nullptr;

  /// Filled by the runner: every detection/recovery that happened.
  struct Recovery {
    std::int64_t frame = 0;
    std::string mechanism;        ///< "self-heal" or "reload"
    std::int64_t elements = 0;    ///< elements rewritten
    std::int64_t bytes = 0;       ///< bytes rewritten
    double modeled_latency_ms = 0.0;
    bool recovered = true;  ///< false: store corrupt, no local repair
  };
  std::vector<Recovery> recoveries;
  std::vector<InjectedFault> injected;  ///< copied from the injector
};

/// Digest of each level's cleanly-deserialized artifact network (the
/// reload arm's reference for divergence detection).
std::vector<std::uint64_t> reload_level_digests(core::ReloadProvider& reload);

/// Digest of a live network's parameters (params() order).
std::uint64_t live_network_digest(nn::Network& net);

// ---------------------------------------------------------------------------
// Campaign driver (experiment R-F9)
// ---------------------------------------------------------------------------

/// One provider arm of the campaign.
enum class CampaignArm : int { Reversible = 0, ReloadMemory = 1, ReloadDisk = 2 };

const char* campaign_arm_name(CampaignArm arm);

struct FaultCampaignConfig {
  std::uint64_t seed = 20240325;
  int frames = 600;
  int faults_per_run = 10;
  FaultMix mix;
  std::vector<std::string> suites = {"cut_in", "urban"};
  std::vector<CampaignArm> arms = {CampaignArm::Reversible,
                                   CampaignArm::ReloadMemory};
  std::string policy = "greedy";  ///< "greedy" or "fixed<K>"
  int hysteresis = 6;
  double deadline_ms = 12.0;
  int scrub_period_frames = 20;
  int watchdog_overrun_frames = 8;
  std::string artifact_dir = "cache/fault_artifacts";  ///< ReloadDisk arm
};

/// One per-fault outcome row of the campaign CSV.
struct FaultOutcome {
  std::string suite;
  std::string provider;
  std::string policy;
  std::uint64_t seed = 0;
  std::size_t fault_id = 0;
  FaultKind kind = FaultKind::SensorBlackout;
  std::int64_t inject_frame = 0;
  bool applied = false;
  std::int64_t detect_frame = -1;      ///< weight faults: first scrub hit
  std::int64_t detect_latency_frames = -1;
  std::string recovery_mechanism;      ///< "self-heal" / "reload" / ""
  std::int64_t recovery_elements = 0;
  std::int64_t recovery_bytes = 0;
  double recovery_modeled_ms = 0.0;
  bool healed = false;
  /// Run-level context repeated per row (for grouped analysis).
  std::int64_t run_safety_violations = 0;
  std::int64_t run_watchdog_degrades = 0;
  double run_accuracy = 0.0;
};

struct FaultCampaignSummary {
  std::int64_t weight_faults_injected = 0;
  std::int64_t weight_faults_detected = 0;
  std::int64_t weight_faults_healed = 0;
  double mean_detect_latency_frames = 0.0;
  double mean_recovery_ms = 0.0;
  double mean_recovery_bytes = 0.0;
};

struct FaultCampaignResult {
  std::vector<FaultOutcome> outcomes;
  /// Per-arm aggregates keyed by provider name, deterministic order.
  std::vector<std::pair<std::string, FaultCampaignSummary>> summaries;
};

/// Everything a closed-loop driver needs about one provisioned model: the
/// fault and Monte-Carlo campaigns, the black box and (as
/// serve::ServeInputs) the serve engine.  The network is mutated during
/// fault runs but restored between arms.
struct CampaignInputs {
  nn::Network* net = nullptr;
  const prune::PruneLevelLibrary* levels = nullptr;
  std::vector<core::BnState> bn_states;  ///< optional switchable BN
  core::SafetyConfig certified;
};

/// Runs the full campaign: suites × arms, one seeded FaultPlan per suite
/// (identical across arms, so recovery numbers are paired).  Deterministic:
/// same config ⇒ byte-identical CSV for any RRP_THREADS.
FaultCampaignResult run_fault_campaign(const CampaignInputs& inputs,
                                       const FaultCampaignConfig& config);

/// Emits one CSV row per FaultOutcome (with header).
void write_campaign_csv(const FaultCampaignResult& result, std::ostream& out);

}  // namespace rrp::sim
