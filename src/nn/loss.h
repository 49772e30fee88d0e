// loss.h — training losses.  Each returns the scalar loss averaged over the
// batch and the gradient w.r.t. the logits/predictions.
#pragma once

#include <span>
#include <vector>

#include "nn/tensor.h"

namespace rrp::nn {

struct LossResult {
  float loss = 0.0f;
  Tensor grad;  ///< d(loss)/d(input), same shape as the input
};

/// Softmax + cross-entropy over logits [N, classes] with integer labels.
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels);

/// Index of the first largest value of a non-empty row, read in place.
int argmax(std::span<const float> row);

/// Argmax over the last dimension of each row of [N, classes].
std::vector<int> argmax_rows(const Tensor& logits);

/// Fraction of rows whose argmax equals the label.
double accuracy(const Tensor& logits, const std::vector<int>& labels);

}  // namespace rrp::nn
