#include "nn/train.h"

#include <algorithm>
#include <cstring>

#include "util/checks.h"
#include "util/thread_pool.h"

namespace rrp::nn {

Tensor Dataset::batch(const std::vector<std::size_t>& indices,
                      std::size_t first, std::size_t count,
                      std::vector<int>* batch_labels) const {
  RRP_CHECK(count > 0 && first + count <= indices.size());
  const Shape& sample_shape = inputs[indices[first]].shape();
  Shape batched;
  batched.push_back(static_cast<int>(count));
  for (int d : sample_shape) batched.push_back(d);
  Tensor out(batched);
  const std::int64_t stride = inputs[indices[first]].numel();
  if (batch_labels != nullptr) batch_labels->clear();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t src = indices[first + i];
    RRP_CHECK(src < inputs.size());
    RRP_CHECK_MSG(inputs[src].shape() == sample_shape,
                  "dataset samples must share one shape");
    std::memcpy(out.raw() + static_cast<std::int64_t>(i) * stride,
                inputs[src].raw(),
                sizeof(float) * static_cast<std::size_t>(stride));
    if (batch_labels != nullptr) batch_labels->push_back(labels[src]);
  }
  return out;
}

SgdOptimizer::SgdOptimizer(Network& net, SgdConfig config)
    : net_(&net), config_(config) {
  for (auto& p : net_->params()) velocity_.emplace_back(p.value->shape());
}

void SgdOptimizer::step() {
  auto params = net_->params();
  RRP_CHECK_MSG(params.size() == velocity_.size(),
                "network structure changed under the optimizer");
  for (std::size_t i = 0; i < params.size(); ++i) {
    auto v = velocity_[i].data();
    auto w = params[i].value->data();
    auto g = params[i].grad->data();
    RRP_CHECK(v.size() == w.size() && w.size() == g.size());
    for (std::size_t j = 0; j < w.size(); ++j) {
      const float grad = g[j] + config_.weight_decay * w[j];
      v[j] = config_.momentum * v[j] - config_.lr * grad;
      w[j] += v[j];
    }
  }
}

std::vector<EpochStats> train_sgd(Network& net, const Dataset& data,
                                  SgdConfig config, Rng& rng) {
  RRP_CHECK_MSG(data.size() > 0, "cannot train on an empty dataset");
  RRP_CHECK(data.inputs.size() == data.labels.size());
  SgdOptimizer opt(net, config);
  std::vector<EpochStats> history;
  std::vector<int> batch_labels;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    const std::vector<std::size_t> order = rng.permutation(data.size());
    double loss_sum = 0.0;
    std::size_t correct = 0, seen = 0;

    for (std::size_t first = 0; first < order.size();
         first += static_cast<std::size_t>(config.batch_size)) {
      const std::size_t count = std::min(
          static_cast<std::size_t>(config.batch_size), order.size() - first);
      const Tensor x = data.batch(order, first, count, &batch_labels);

      net.zero_grad();
      const Tensor logits = net.forward(x, /*training=*/true);
      const LossResult lr = softmax_cross_entropy(logits, batch_labels);
      net.backward(lr.grad);
      opt.step();

      loss_sum += static_cast<double>(lr.loss) * static_cast<double>(count);
      const auto preds = argmax_rows(logits);
      for (std::size_t i = 0; i < count; ++i)
        correct += (preds[i] == batch_labels[i]);
      seen += count;
    }

    EpochStats s;
    s.epoch = epoch;
    s.train_loss = loss_sum / static_cast<double>(seen);
    s.train_accuracy = static_cast<double>(correct) / static_cast<double>(seen);
    history.push_back(s);
    opt.set_lr(opt.lr() * config.lr_decay);
  }
  return history;
}

namespace {
// Runs `fn(net_for_chunk, batch_index)` for every evaluation batch, fanning
// batch chunks out over the thread pool.  Each worker chunk evaluates a
// private clone of `net` (layer forward() caches make a shared instance
// unsafe), and per-batch results land in index-addressed slots so callers
// can reduce them in batch order — making evaluation bit-identical to the
// serial engine for any thread count.
template <typename Fn>
void for_each_eval_batch(Network& net, const Dataset& data, int batch_size,
                         Fn&& fn) {
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::int64_t batches =
      (static_cast<std::int64_t>(order.size()) + batch_size - 1) / batch_size;

  parallel_for(0, batches, 1, [&](std::int64_t b_begin, std::int64_t b_end) {
    // Only clone when the chunk runs next to other chunks; the inline
    // single-chunk path (1 thread, or few batches) uses `net` directly,
    // exactly as the serial engine did.
    const bool whole_range = (b_begin == 0 && b_end == batches);
    Network clone;
    if (!whole_range) clone = net.clone();
    Network& local = whole_range ? net : clone;
    std::vector<int> batch_labels;
    for (std::int64_t bi = b_begin; bi < b_end; ++bi) {
      const std::size_t first =
          static_cast<std::size_t>(bi) * static_cast<std::size_t>(batch_size);
      const std::size_t count =
          std::min(static_cast<std::size_t>(batch_size), order.size() - first);
      const nn::Tensor x = data.batch(order, first, count, &batch_labels);
      fn(local, x, batch_labels, count, bi);
    }
  });
}
}  // namespace

double evaluate_accuracy(Network& net, const Dataset& data, int batch_size) {
  if (data.size() == 0) return 0.0;
  const std::int64_t batches =
      (static_cast<std::int64_t>(data.size()) + batch_size - 1) / batch_size;
  std::vector<std::size_t> per_batch_correct(
      static_cast<std::size_t>(batches), 0);
  for_each_eval_batch(
      net, data, batch_size,
      [&](Network& local, const Tensor& x, const std::vector<int>& labels,
          std::size_t count, std::int64_t bi) {
        const Tensor logits = local.forward(x, false);
        const auto preds = argmax_rows(logits);
        std::size_t correct = 0;
        for (std::size_t i = 0; i < count; ++i)
          correct += (preds[i] == labels[i]);
        per_batch_correct[static_cast<std::size_t>(bi)] = correct;
      });
  std::size_t correct = 0;
  for (std::size_t c : per_batch_correct) correct += c;
  return static_cast<double>(correct) / static_cast<double>(data.size());
}

double evaluate_loss(Network& net, const Dataset& data, int batch_size) {
  if (data.size() == 0) return 0.0;
  const std::int64_t batches =
      (static_cast<std::int64_t>(data.size()) + batch_size - 1) / batch_size;
  std::vector<double> per_batch_loss(static_cast<std::size_t>(batches), 0.0);
  for_each_eval_batch(
      net, data, batch_size,
      [&](Network& local, const Tensor& x, const std::vector<int>& labels,
          std::size_t count, std::int64_t bi) {
        const LossResult lr = softmax_cross_entropy(local.forward(x, false),
                                                    labels);
        per_batch_loss[static_cast<std::size_t>(bi)] =
            static_cast<double>(lr.loss) * static_cast<double>(count);
      });
  double loss_sum = 0.0;  // reduce in batch order: bit-stable across threads
  for (double l : per_batch_loss) loss_sum += l;
  return loss_sum / static_cast<double>(data.size());
}

}  // namespace rrp::nn
