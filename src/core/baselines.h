// baselines.h — the comparison systems the paper's evaluation needs.
//
//  * StaticProvider      — design-time pruning: one fixed level, runtime
//                          requests to change level are ignored (that is
//                          the point of the baseline).
//  * ReloadProvider      — NON-reversible runtime pruning: only the
//                          currently-active artifact exists; changing level
//                          means deserializing another serialized model
//                          (from RAM or from disk), exactly like a deployed
//                          stack re-loading a .onnx/.pt file.  Recovery
//                          latency scales with model size, not with Δ.
//
// The retraining-recovery baseline (one epoch of plain SGD from the pruned
// state, which regrows the zeroed weights) is exercised directly by bench
// R-T1 via nn::train_sgd.
#pragma once

#include <optional>

#include "core/reversible_pruner.h"

namespace rrp::core {

/// Fixed design-time pruning at one level; level-change requests are no-ops.
class StaticProvider : public InferenceProvider {
 public:
  /// Clones `net`, applies the library's mask at `fixed_level`.  When
  /// `bn_states` is non-empty (one per level), the fixed level's calibrated
  /// BatchNorm statistics are baked in — a deployed pruned artifact would
  /// ship with its own statistics.
  StaticProvider(const nn::Network& net, const prune::PruneLevelLibrary& levels,
                 int fixed_level, const std::vector<BnState>& bn_states = {});

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  /// Ignores the request (records it in stats, changes nothing).
  TransitionStats set_level(int level) override;
  int current_level() const override { return fixed_level_; }
  int level_count() const override { return level_count_; }
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  std::int64_t resident_weight_bytes() override;

 private:
  std::string name_;
  nn::Network net_;
  int fixed_level_;
  int level_count_;
};

/// Non-reversible baseline: switching level deserializes a stored artifact.
class ReloadProvider : public InferenceProvider {
 public:
  enum class Source { Memory, Disk };

  /// Builds one serialized artifact per level from `net` + `levels`; each
  /// artifact embeds its level's calibrated BatchNorm statistics when
  /// `bn_states` is supplied (one per level).  With Source::Disk the blobs
  /// are written to `artifact_dir` (created if missing) and every switch
  /// re-reads the file.
  ReloadProvider(const nn::Network& net, const prune::PruneLevelLibrary& levels,
                 Source source, std::string artifact_dir = "",
                 const std::vector<BnState>& bn_states = {});

  const std::string& name() const override { return name_; }
  nn::Tensor infer(const nn::Tensor& x) override;
  TransitionStats set_level(int level) override;
  int current_level() const override { return current_level_; }
  int level_count() const override { return static_cast<int>(blobs_.size()); }
  std::int64_t active_macs(const nn::Shape& input_shape) override;
  std::int64_t resident_weight_bytes() override;

  /// Size of one level's artifact in bytes.
  std::int64_t artifact_bytes(int level) const;

  /// Re-deserializes the CURRENT level's artifact — the reload stack's only
  /// recovery path after in-memory weight corruption (it has no golden
  /// store to heal from).  Pays the full artifact cost every time.
  TransitionStats reload_current();

  /// The resident network (fault-injection target; see sim/faults.h).
  nn::Network& active_network() { return active_; }

  /// FAULT-INJECTION HOOK: the next `n` artifact reads fail as if the
  /// storage returned garbage; the retry loop absorbs up to three of them
  /// per switch (see load_with_retry).
  void inject_read_failures(int n) { injected_read_failures_ = n; }

 private:
  std::string path_for(int level) const;

  /// Loads `level`'s artifact with bounded retry-with-backoff (a deployed
  /// stack retries a flaky storage read rather than dying); fills retry
  /// accounting into `stats` and returns the deserialized network.  Throws
  /// rrp::SerializationError naming the artifact after the final attempt.
  nn::Network load_with_retry(int level, TransitionStats& stats);

  std::string name_;
  Source source_;
  std::string artifact_dir_;
  std::vector<std::string> blobs_;  // kept even in Disk mode for sizing
  nn::Network active_;
  int current_level_ = 0;
  int injected_read_failures_ = 0;
};

}  // namespace rrp::core
