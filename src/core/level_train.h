// level_train.h — shared-weight co-training of the level ladder.
//
// Masks are computed once on the dense-trained weights; co-training then
// fine-tunes the SHARED weights while cycling mini-batches through the
// levels (slimmable-network style):
//     stash → apply mask_k → forward/backward → unstash → SGD step.
// Masked elements do not participate in the masked forward pass but still
// receive their dense-gradient update (straight-through), so every level's
// sub-network stays accurate with one weight tensor — the property that
// makes O(Δ) reversible switching possible without per-level weights.
//
// Limitation (documented): BatchNorm statistics are shared across levels;
// per-level BN would add accuracy at the cost of per-level state.
#pragma once

#include "nn/train.h"
#include "prune/levels.h"

namespace rrp::core {

struct CoTrainConfig {
  int epochs = 4;
  nn::SgdConfig sgd = {.lr = 0.008f,
                       .momentum = 0.9f,
                       .weight_decay = 1e-4f,
                       .batch_size = 32,
                       .epochs = 1,       // driven per-epoch by co_train
                       .lr_decay = 1.0f};  // decay handled across co-epochs
  float lr_decay_per_epoch = 0.75f;
  /// Probability mass of sampling level 0 (full network) per batch; the
  /// remaining mass is uniform over pruned levels.  Level 0 needs extra
  /// weight or dense accuracy erodes while sub-levels improve.
  double level0_weight = 0.34;
};

/// Per-(epoch, level) accuracy trace of a co-training run.
struct CoTrainStats {
  std::vector<double> final_level_accuracy;  ///< eval accuracy per level
};

/// Fine-tunes `net` in place so that EVERY level of `levels` performs well
/// with shared weights.  `levels` must have been built for `net`.
CoTrainStats co_train_levels(nn::Network& net,
                             const prune::PruneLevelLibrary& levels,
                             const nn::Dataset& train_data,
                             const nn::Dataset& eval_data,
                             const CoTrainConfig& config, Rng& rng);

}  // namespace rrp::core
