// train.h — mini-batch SGD trainer for classification models.
//
// The trainer exists so that accuracy-vs-pruning experiments run on
// *actually trained* weights rather than synthetic magnitudes; it also
// implements the masked fine-tuning used by the retraining baseline
// (gradients of masked-out weights are zeroed so sparsity is preserved).
#pragma once

#include <functional>
#include <vector>

#include "nn/loss.h"
#include "nn/network.h"
#include "util/rng.h"

namespace rrp::nn {

/// A labelled classification dataset. Samples share one shape.
struct Dataset {
  std::vector<Tensor> inputs;  ///< each sample WITHOUT batch dim, e.g. [C,H,W]
  std::vector<int> labels;
  int num_classes = 0;

  std::size_t size() const { return inputs.size(); }

  /// Stacks samples [first, first+count) into one batched tensor.
  Tensor batch(const std::vector<std::size_t>& indices, std::size_t first,
               std::size_t count, std::vector<int>* batch_labels) const;
};

/// SGD hyper-parameters.
struct SgdConfig {
  float lr = 0.05f;
  float momentum = 0.9f;
  float weight_decay = 1e-4f;
  int batch_size = 32;
  int epochs = 10;
  float lr_decay = 0.7f;  ///< multiplicative decay applied each epoch
};

/// Per-epoch training statistics.
struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double train_accuracy = 0.0;
};

/// SGD-with-momentum optimizer bound to one network's parameters.
class SgdOptimizer {
 public:
  SgdOptimizer(Network& net, SgdConfig config);

  /// Applies one update step from the accumulated gradients, then clears
  /// nothing (call net.zero_grad() before the next backward pass).
  void step();

  void set_lr(float lr) { config_.lr = lr; }
  float lr() const { return config_.lr; }
  const SgdConfig& config() const { return config_; }

 private:
  Network* net_;
  SgdConfig config_;
  std::vector<Tensor> velocity_;  // parallel to net params
};

/// Trains `net` on `data` with shuffled mini-batches; returns per-epoch
/// stats. Deterministic for a fixed rng seed.
std::vector<EpochStats> train_sgd(Network& net, const Dataset& data,
                                  SgdConfig config, Rng& rng);

/// Evaluates classification accuracy over a dataset (inference mode).
double evaluate_accuracy(Network& net, const Dataset& data,
                         int batch_size = 64);

/// Evaluates mean cross-entropy loss over a dataset (inference mode).
double evaluate_loss(Network& net, const Dataset& data, int batch_size = 64);

}  // namespace rrp::nn
