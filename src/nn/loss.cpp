#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "util/checks.h"

namespace rrp::nn {

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<int>& labels) {
  RRP_CHECK_MSG(logits.dim() == 2, "logits must be [N, classes]");
  const int n = logits.size(0), k = logits.size(1);
  RRP_CHECK_MSG(static_cast<int>(labels.size()) == n,
                "label count " << labels.size() << " != batch " << n);

  LossResult r;
  r.grad = Tensor(logits.shape());
  double total = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (int i = 0; i < n; ++i) {
    RRP_CHECK_MSG(labels[i] >= 0 && labels[i] < k,
                  "label " << labels[i] << " out of range [0, " << k << ")");
    const float* row = logits.raw() + static_cast<std::int64_t>(i) * k;
    float* grow = r.grad.raw() + static_cast<std::int64_t>(i) * k;
    const float m = *std::max_element(row, row + k);
    double z = 0.0;
    for (int c = 0; c < k; ++c) z += std::exp(static_cast<double>(row[c]) - m);
    const double log_z = std::log(z) + m;
    total += log_z - row[labels[i]];
    for (int c = 0; c < k; ++c) {
      const float p =
          static_cast<float>(std::exp(static_cast<double>(row[c]) - log_z));
      grow[c] = (p - (c == labels[i] ? 1.0f : 0.0f)) * inv_n;
    }
  }
  r.loss = static_cast<float>(total / n);
  return r;
}

// rrp-frame-path: the frame's predicted class, read off the logits row.
int argmax(std::span<const float> row) {
  RRP_CHECK(!row.empty());
  return static_cast<int>(std::max_element(row.begin(), row.end()) -
                          row.begin());
}

std::vector<int> argmax_rows(const Tensor& logits) {
  RRP_CHECK(logits.dim() == 2);
  const int n = logits.size(0), k = logits.size(1);
  std::vector<int> out(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    out[static_cast<std::size_t>(i)] = argmax(logits.data().subspan(
        static_cast<std::size_t>(i) * static_cast<std::size_t>(k),
        static_cast<std::size_t>(k)));
  return out;
}

double accuracy(const Tensor& logits, const std::vector<int>& labels) {
  const std::vector<int> pred = argmax_rows(logits);
  RRP_CHECK(pred.size() == labels.size());
  if (pred.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < pred.size(); ++i)
    correct += (pred[i] == labels[i]);
  return static_cast<double>(correct) / static_cast<double>(pred.size());
}

}  // namespace rrp::nn
