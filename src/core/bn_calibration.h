// bn_calibration.h — per-level BatchNorm statistics ("switchable BN").
//
// With shared weights, a pruned level changes the activation distribution
// entering every BatchNorm, so level-0 running statistics are wrong at
// masked levels.  The standard remedy (slimmable networks) is one tiny
// (mean, var) pair per BN layer *per level*, captured by running
// calibration batches at each level.  The ReversiblePruner swaps these in
// during a level switch — they are O(channels) per layer, so the O(Δ)
// switching cost story is unchanged.
#pragma once

#include <map>

#include "nn/train.h"
#include "prune/levels.h"

namespace rrp::core {

/// Snapshot of every BatchNorm layer's running statistics, keyed by layer
/// name: (running_mean, running_var).
struct BnState {
  std::map<std::string, std::pair<nn::Tensor, nn::Tensor>> stats;

  bool empty() const { return stats.empty(); }
  std::int64_t total_bytes() const;
};

/// Captures the current running statistics of all BatchNorm layers.
BnState capture_bn_state(nn::Network& net);

/// Writes a previously captured state back (layer names and channel counts
/// must match; extra layers in the state are an error).
void apply_bn_state(nn::Network& net, const BnState& state);

struct BnCalibrationConfig {
  int batches = 40;
  int batch_size = 32;
};

/// For each level: applies the mask, streams calibration batches through a
/// forward in which every BatchNorm normalizes with its batch statistics
/// (so the running stats adapt) and every other layer runs its eval path,
/// with no backward caches, and snapshots the stats.  The result equals
/// streaming the batches through Network::forward(x, true) bit for bit.
/// Restores the network's weights and level-0 statistics afterwards.
/// The returned vector has one BnState per level (index == level).
std::vector<BnState> calibrate_bn_per_level(
    nn::Network& net, const prune::PruneLevelLibrary& levels,
    const nn::Dataset& calib_data, const BnCalibrationConfig& config,
    Rng& rng);

}  // namespace rrp::core
