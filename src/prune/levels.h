// levels.h — nested pruning-level construction.
//
// A PruneLevelLibrary holds the precomputed ladder of pruning levels the
// reversible runtime switches between.  All levels are derived from ONE
// importance ranking computed on the golden weights, which guarantees the
// nesting invariant  pruned(level k) ⊆ pruned(level k+1)  by construction
// — a k→k′ transition therefore touches exactly the symmetric difference
// of the two masks, and a restore to level 0 recovers the full network.
#pragma once

#include "prune/importance.h"
#include "prune/mask.h"

namespace rrp::prune {

/// The layers a structured ladder ranks: leaf Conv2D/Linear/DepthwiseConv2D
/// with out_prunable() == true, in execution order.
std::vector<nn::Layer*> prunable_layers(nn::Network& net);

/// Immutable ladder of nested pruning levels for one network.
class PruneLevelLibrary {
 public:
  /// Builds element-level (unstructured) levels. `ratios` must start at 0
  /// and be strictly increasing, all in [0, 1).
  static PruneLevelLibrary build_unstructured(
      nn::Network& net, std::vector<double> ratios,
      ImportanceMetric metric = ImportanceMetric::L1);

  /// Builds channel-level (structured) levels; `input_shape` is a batch-1
  /// sample shape used to lower channel masks to element masks.
  static PruneLevelLibrary build_structured(
      nn::Network& net, std::vector<double> ratios,
      const nn::Shape& input_shape,
      ImportanceMetric metric = ImportanceMetric::L1,
      int min_channels = 1);

  /// Structured levels ranked by externally supplied per-channel scores
  /// (e.g. Taylor importance from taylor_scores().channel).  Prunable
  /// layers missing from `channel_scores` are never pruned.
  static PruneLevelLibrary build_structured_scored(
      nn::Network& net, std::vector<double> ratios,
      const nn::Shape& input_shape,
      const std::map<std::string, std::vector<float>>& channel_scores,
      int min_channels = 1);

  /// Non-uniform structured levels: layer `l` is pruned at
  /// ratios[k] * layer_scale[l] (scale in [0, 1]; missing layers get
  /// scale 1).  Scales typically come from sensitivity_scales() so that
  /// fragile layers keep more channels at every level.  Nesting holds
  /// because each layer's effective ratio is still monotone in k.
  static PruneLevelLibrary build_structured_nonuniform(
      nn::Network& net, std::vector<double> ratios,
      const nn::Shape& input_shape,
      const std::map<std::string, double>& layer_scale,
      ImportanceMetric metric = ImportanceMetric::L1,
      int min_channels = 1);

  int level_count() const { return static_cast<int>(ratios_.size()); }
  double ratio(int level) const;
  bool structured() const { return structured_; }

  /// Element mask of a level (level 0 is the empty mask — nothing pruned).
  const NetworkMask& mask(int level) const;

  /// Channel masks of a level (structured libraries only; empty at level 0).
  const std::vector<ChannelMask>& channel_masks(int level) const;

  /// Achieved element sparsity of each level on `net`.
  std::vector<double> achieved_sparsity(nn::Network& net) const;

  /// Verifies the nesting invariant across all adjacent level pairs.
  bool verify_nested() const;

  /// Total mask storage bytes across all levels (overhead accounting).
  std::int64_t storage_bytes() const;

  /// Default-constructs an EMPTY library (level_count() == 0); only useful
  /// as a placeholder before assignment from a build_* factory.
  PruneLevelLibrary() = default;

  /// One layer's fixed channel ranking plus its per-level ratio scale —
  /// the input of the generic structured builder.
  struct LayerRankEntry {
    nn::Layer* layer;
    std::vector<std::size_t> ascending;  ///< least important first
    double scale = 1.0;
  };

  /// Generic structured builder all build_structured_* variants share.
  static PruneLevelLibrary build_structured_ranked(
      nn::Network& net, std::vector<double> ratios,
      const nn::Shape& input_shape, const std::vector<LayerRankEntry>& ranks,
      int min_channels);

 private:
  static void check_ratios(const std::vector<double>& ratios);

  std::vector<double> ratios_;
  std::vector<NetworkMask> masks_;
  std::vector<std::vector<ChannelMask>> channel_masks_;
  bool structured_ = false;
};

}  // namespace rrp::prune
