// reversible_pruner.h — the paper's primary contribution.
//
// Two ways of executing one nested level ladder:
//
//  * ReversiblePruner (masked mode) — one resident network; switching level
//    k→k′ touches exactly the elements whose keep flag differs between the
//    two nested masks: zero them (prune) or copy them back from the
//    WeightStore (restore).  Restore is "back to the future": O(Δ) memcpy,
//    no disk, no retraining, bit-exact.
//
//  * CompactedLadder (compact mode) — physically shrunk networks, one per
//    level, built once; a CompactedLadderView is a level cursor over it, so
//    switching is an index swap (O(1)) and inference actually gets faster,
//    at the memory cost of keeping every level resident.
//    CompactedLadderProvider owns the ladder, runs it through its own
//    cursor and keeps a lagging masked golden arm for safety.
//
// All implement InferenceProvider so the runtime controller, baselines and
// the scenario runner are interchangeable over them.
#pragma once

#include <memory>

#include "core/bn_calibration.h"
#include "core/weight_store.h"
#include "prune/compact.h"
#include "prune/levels.h"

namespace rrp::core {

/// Cost accounting for one level transition.
struct TransitionStats {
  int from_level = 0;
  int to_level = 0;
  bool is_restore = false;          ///< true when moving to a lower level
  std::int64_t elements_changed = 0;
  std::int64_t bytes_written = 0;
  double wall_us = 0.0;
  /// Reload baseline only: failed artifact-read attempts absorbed by the
  /// bounded retry loop, and the modeled backoff delay they cost.
  int read_retries = 0;
  double backoff_us = 0.0;
};

/// Uniform interface over every way of executing the network at a level.
class InferenceProvider {
 public:
  virtual ~InferenceProvider() = default;

  virtual const std::string& name() const = 0;
  virtual nn::Tensor infer(const nn::Tensor& x) = 0;
  /// Inference into `out`, which the provider sizes on first use; a caller
  /// that keeps `out` (FrameEngine's per-stream logits) reuses it.  The
  /// masked pruner and the ladder cursors override this to run a planned
  /// forward on their own activation arena, allocation-free once `out` is
  /// sized; the default delegates to infer().
  // rrp-frame-path-stop: the allocating default, kept only by the baseline
  // comparison arms (StaticProvider, ReloadProvider).
  virtual void infer_into(const nn::Tensor& x, nn::Tensor& out) {
    out = infer(x);
  }
  virtual TransitionStats set_level(int level) = 0;
  virtual int current_level() const = 0;
  virtual int level_count() const = 0;
  /// MACs one inference at the CURRENT level executes for a batch-1 input.
  virtual std::int64_t active_macs(const nn::Shape& input_shape) = 0;
  /// Resident weight memory in bytes (for the overhead experiment).
  virtual std::int64_t resident_weight_bytes() = 0;
};

/// Masked-mode reversible pruning over a single resident network.
class ReversiblePruner : public InferenceProvider {
 public:
  /// Snapshots `net`'s weights as golden and starts at level 0.
  /// The library must have been built for this network.
  ReversiblePruner(nn::Network& net, prune::PruneLevelLibrary levels);

  /// Leaves the network exactly as found: restores level 0 (golden
  /// weights and, when installed, the dense BatchNorm statistics), so a
  /// later provider built from the same network sees clean weights.
  ~ReversiblePruner() override;

  ReversiblePruner(ReversiblePruner&& other) noexcept;
  ReversiblePruner& operator=(ReversiblePruner&&) = delete;

  const std::string& name() const override { return name_; }
  /// Runs the live network through the plan when `x` has the planned
  /// shape, else through the allocating forward (batched evaluation).
  nn::Tensor infer(const nn::Tensor& x) override;
  /// Plans the live network for `x`'s shape on first use (restores write
  /// weights in place, so the plan's layer addresses stay valid), then
  /// runs it on this pruner's arena.
  void infer_into(const nn::Tensor& x, nn::Tensor& out) override;
  TransitionStats set_level(int level) override;
  int current_level() const override { return current_level_; }
  int level_count() const override { return levels_.level_count(); }
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  std::int64_t resident_weight_bytes() override;

  /// Convenience: full restore ("back to the future").
  TransitionStats restore_full() { return set_level(0); }

  /// Installs per-level BatchNorm statistics (switchable BN). Must contain
  /// exactly level_count() states; entry k is applied whenever level k is
  /// entered (including retroactively for the current level).
  void set_bn_states(std::vector<BnState> states);
  bool has_bn_states() const { return !bn_states_.empty(); }

  nn::Network& network() { return *net_; }
  const WeightStore& store() const { return store_; }
  /// FAULT-INJECTION BACKDOOR: mutable store access so sim/faults.h can
  /// simulate SEUs in the golden copy's memory (WeightStore::flip_bit).
  /// Never used by runtime control paths.
  WeightStore& mutable_store() { return store_; }
  const prune::PruneLevelLibrary& levels() const { return levels_; }
  /// The last kHistoryCapacity transitions.  Below capacity this is
  /// append-ordered; once full it becomes a ring and the oldest slot
  /// (at index history_ring_next()) is overwritten first, so the frame
  /// path never reallocates (R6, DESIGN.md invariant 14).
  const std::vector<TransitionStats>& history() const { return history_; }
  std::size_t history_ring_next() const { return history_next_; }
  static constexpr std::size_t kHistoryCapacity = 256;

  /// Bytes spent on the precomputed delta index lists (overhead report).
  std::int64_t delta_index_bytes() const;

 private:
  /// Elements newly pruned at level k (vs k-1) of one parameter: the unit
  /// of O(Δ) switching. Nesting guarantees these deltas partition the
  /// ever-pruned set, so any k->k' walk applies each element once.
  struct ParamDelta {
    nn::Tensor* value = nullptr;
    const nn::Tensor* golden = nullptr;
    std::vector<std::uint32_t> indices;
  };

  void build_deltas();
  void plan_for(const nn::Shape& input_shape);

  std::string name_ = "reversible-masked";
  nn::Network* net_;
  WeightStore store_;
  prune::PruneLevelLibrary levels_;
  std::vector<std::vector<ParamDelta>> deltas_;  // [level] -> param deltas
  std::vector<BnState> bn_states_;
  int current_level_ = 0;
  std::vector<TransitionStats> history_;  // bounded ring, see history()
  std::size_t history_next_ = 0;          // overwrite cursor once full
  nn::InferPlan plan_;                    // eval plan of *net_, see infer_into
  std::vector<float> arena_;              // plan_.arena_floats activations
};

/// The compacted level ladder: one physically shrunk clone of the network
/// per level (compact_network over that level's channel masks, with the
/// level's calibrated BN statistics baked in), built exactly once.  Each
/// level's MACs for the input shape the ladder was compacted for are
/// precomputed, so per-frame MAC accounting is a lookup, not a network
/// walk, and so is each level's activation plan for that shape.  Only valid
/// for structured level libraries.
struct CompactedLadder {
  /// `bn_states`, when present, must hold one state per level (captured on
  /// the MASKED network).  `net` must carry its golden weights.
  CompactedLadder(const nn::Network& net,
                  const prune::PruneLevelLibrary& levels,
                  const nn::Shape& shape,
                  const std::vector<BnState>& bn_states);

  nn::Shape input_shape;           ///< the shape the ladder was compacted for
  std::vector<nn::Network> nets;   ///< nets[k] executes level k
  std::vector<std::int64_t> macs;  ///< nets[k].macs(input_shape)
  std::vector<nn::InferPlan> plans;  ///< plans[k]: nets[k] at input_shape
  std::int64_t arena_floats = 0;     ///< max plans[k].arena_floats
  std::int64_t weight_bytes = 0;     ///< parameter bytes of every level
};

class CompactedLadderProvider;

/// A level cursor over one compacted ladder — the only compacted
/// implementation of infer / set_level / active_macs.
///
/// The serving engine (src/serve) runs N concurrent perception streams
/// against ONE resident ladder: the ladder networks and their activation
/// plans are immutable after construction and eval-mode forward_into
/// writes only the caller's memory, so any number of views may infer
/// concurrently — including two views at the same level over the very
/// same network.  Each view owns its level index AND its activation arena
/// (sized once to the largest level's plan, not one arena per level), so
/// streams share nothing mutable: a stream's set_level and inference are
/// invisible to every other stream (the aliasing property pinned in
/// test_fast_path.cpp).  One view must not infer from two threads at once.
///
/// A view points at the ladder, not at the provider that owns it, and the
/// ladder lives at a stable heap address: moving the owner leaves every
/// view valid.  The owner's cursor and masked golden arm are NOT consulted
/// or moved by views; integrity scrubbing of the shared weights remains
/// the owner's job.
class CompactedLadderView : public InferenceProvider {
 public:
  explicit CompactedLadderView(CompactedLadderProvider& owner, int level = 0);

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  /// The active level's plan on this view's arena; inputs of another shape
  /// than the ladder's take the allocating forward.
  void infer_into(const nn::Tensor& x, nn::Tensor& out) override;
  /// O(1): swaps this cursor's level index — no rebuild, no weight copy,
  /// no allocation.  TransitionStats reports zero elements/bytes (the
  /// modeled switch cost is the platform's fixed overhead only).  Safe
  /// from pool chunk bodies: no shared state is written.
  TransitionStats set_level(int level) override;
  int current_level() const override { return level_; }
  int level_count() const override {
    return static_cast<int>(ladder_->nets.size());
  }
  /// O(1) lookup for the shape the ladder was compacted for; any other
  /// shape walks the active network.
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  /// The shared ladder's footprint: a view's marginal resident cost is ~0
  /// (each stream does not pay for its own copy — that is the point).
  std::int64_t resident_weight_bytes() override {
    return ladder_->weight_bytes;
  }

  nn::Network& network_at(int level);
  const nn::Network& active_network() const;
  const CompactedLadder& ladder() const { return *ladder_; }

 protected:
  /// For the owning provider, which points ladder_ at the ladder it builds
  /// and then sizes the arena (attach_ladder).
  explicit CompactedLadderView(std::string name) : name_(std::move(name)) {}
  void attach_ladder(CompactedLadder* ladder);

  CompactedLadder* ladder_ = nullptr;

 private:
  std::string name_ = "reversible-fastpath-view";
  int level_ = 0;
  std::vector<float> arena_;  // ladder_->arena_floats, this cursor only
};

/// The sparsity-realizing fast path: the owner of one compacted ladder,
/// which it runs through its own level cursor, PLUS a masked golden arm
/// for safety.
///
/// At construction the ladder is materialized once next to a
/// ReversiblePruner over the golden weights.  After that:
///
///  * infer() / infer_into() run the ACTIVE COMPACTED network — physically
///    smaller tensors, so pruning buys real cycles, not just modeled ones —
///    through that level's plan on the provider's own arena;
///  * set_level() swaps an index — O(1), no rebuild, no weight copy, no
///    allocation on the frame path (prune.ladder_rebuilds stays flat and
///    parameter storage addresses are stable; see test_fast_path.cpp) —
///    and deliberately does NOT walk the masked arm;
///  * the masked golden arm keeps the paper's prune→restore bit-exactness
///    and gives the integrity scrub its golden ⊙ mask reference.  It LAGS
///    the active level and is aligned by sync_masked() — an O(Δ) delta
///    walk that runs on the scrub cadence (or before restore), never per
///    frame.
///
/// Numerically the compacted ladder matches the masked network to the
/// tolerance of DESIGN.md invariant 13 (exact for Linear/Conv gathers; BN
/// folding of pruned channels reorders no surviving arithmetic).
class CompactedLadderProvider : public CompactedLadderView {
 public:
  /// Snapshots `net` (level-0 golden) and materializes the ladder.
  /// `bn_states`, when present, must hold one state per level; each
  /// level's compacted clone bakes its own statistics in and the masked
  /// arm gets switchable BN as usual.
  CompactedLadderProvider(nn::Network& net, prune::PruneLevelLibrary levels,
                          const nn::Shape& input_shape,
                          std::vector<BnState> bn_states = {});

  /// The fast path pays for BOTH arms: the ladder plus the masked golden
  /// arm (live net + store + masks + delta indices).
  std::int64_t resident_weight_bytes() override;

  /// Aligns the masked golden arm to current_level() with the usual O(Δ)
  /// delta walk.  Runs on the scrub cadence inside the mission loop, so
  /// it carries the same real-time certification as set_level.
  // rrp-frame-path: scrub-cadence alignment of the masked golden arm.
  TransitionStats sync_masked() { return masked_.set_level(current_level()); }

  /// The masked golden arm (scrub target, fault-injection backdoor,
  /// "back to the future" restore).
  ReversiblePruner& masked() { return masked_; }
  const ReversiblePruner& masked() const { return masked_; }

 private:
  ReversiblePruner masked_;
  std::unique_ptr<CompactedLadder> owned_;  // stable address for views
};

}  // namespace rrp::core
