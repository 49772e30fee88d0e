#include "test_support.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/weight_store.h"
#include "nn/loss.h"

namespace rrp::testing {

using namespace rrp::nn;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (float& v : t.data())
    v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

std::vector<std::uint32_t> float_bits(std::span<const float> v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

Shape tiny_input_shape() { return {1, 1, 8, 8}; }

Network tiny_conv_net(std::uint64_t seed) {
  Network net("tiny");
  net.emplace<Conv2D>("conv1", 1, 6, 3, 1, 1);
  net.emplace<ReLU>("relu1");
  net.emplace<MaxPool>("pool1", 2, 2);
  net.emplace<Flatten>("flatten");
  net.emplace<Linear>("fc1", 6 * 4 * 4, 16);
  net.emplace<ReLU>("relu2");
  auto& head = net.emplace<Linear>("head", 16, 3);
  head.set_out_prunable(false);
  Rng rng(seed);
  init_network(net, rng);
  return net;
}

Network tiny_bn_net(std::uint64_t seed) {
  Network net("tinybn");
  net.emplace<Conv2D>("conv1", 1, 6, 3, 1, 1);
  net.emplace<BatchNorm>("bn1", 6);
  net.emplace<ReLU>("relu1");
  net.emplace<MaxPool>("pool1", 2, 2);
  net.emplace<Flatten>("flatten");
  net.emplace<Linear>("fc1", 6 * 4 * 4, 16);
  net.emplace<ReLU>("relu2");
  auto& head = net.emplace<Linear>("head", 16, 3);
  head.set_out_prunable(false);
  Rng rng(seed);
  init_network(net, rng);
  return net;
}

Network tiny_residual_net(std::uint64_t seed) {
  Network net("tinyres");
  auto& stem = net.emplace<Conv2D>("stem", 1, 6, 3, 1, 1);
  stem.set_out_prunable(false);
  net.emplace<ReLU>("stem.relu");
  {
    Network body("block.body");
    body.emplace<Conv2D>("block.conv1", 6, 6, 3, 1, 1);
    body.emplace<ReLU>("block.relu");
    auto& c2 = body.emplace<Conv2D>("block.conv2", 6, 6, 3, 1, 1);
    c2.set_out_prunable(false);
    net.add(std::make_unique<Residual>("block", std::move(body)));
  }
  net.emplace<ReLU>("post.relu");
  net.emplace<GlobalAvgPool>("gap");
  auto& head = net.emplace<Linear>("head", 6, 3);
  head.set_out_prunable(false);
  Rng rng(seed);
  init_network(net, rng);
  return net;
}

Dataset tiny_dataset(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Dataset data;
  data.num_classes = 3;
  for (std::size_t i = 0; i < n; ++i) {
    const int label = rng.uniform_int(0, 2);
    Tensor img({1, 8, 8});
    // Class 0: bright top rows; class 1: bright left columns; class 2: X.
    for (int r = 0; r < 8; ++r)
      for (int c = 0; c < 8; ++c) {
        float v = 0.0f;
        if (label == 0 && r < 3) v = 1.0f;
        if (label == 1 && c < 3) v = 1.0f;
        if (label == 2 && (r == c || r == 7 - c)) v = 1.0f;
        img[static_cast<std::int64_t>(r) * 8 + c] =
            v + static_cast<float>(rng.normal(0.0, 0.15));
      }
    data.inputs.push_back(std::move(img));
    data.labels.push_back(label);
  }
  return data;
}

double quick_train(Network& net, const Dataset& data, int epochs,
                   std::uint64_t seed) {
  SgdConfig cfg;
  cfg.epochs = epochs;
  cfg.lr = 0.05f;
  cfg.batch_size = 16;
  Rng rng(seed);
  const auto history = train_sgd(net, data, cfg, rng);
  return history.back().train_accuracy;
}

double gradient_check(Network& net, const Tensor& x,
                      const std::vector<int>& labels, int directions) {
  // Analytic gradients (training mode: BN uses batch statistics).
  net.zero_grad();
  const Tensor logits = net.forward(x, true);
  const LossResult base = softmax_cross_entropy(logits, labels);
  net.backward(base.grad);

  std::vector<Tensor> analytic;
  for (auto& p : net.params()) analytic.push_back(*p.grad);

  auto params = net.params();
  const float eps = 1e-3f;
  std::vector<double> rel_errors;

  for (int t = 0; t < directions; ++t) {
    Rng dir_rng(0xD1Dull * 31 + static_cast<std::uint64_t>(t));
    // Direction d, one normal value per parameter element.
    std::vector<Tensor> d;
    double dot = 0.0;
    for (std::size_t pi = 0; pi < params.size(); ++pi) {
      Tensor di(params[pi].value->shape());
      for (std::int64_t i = 0; i < di.numel(); ++i) {
        di[i] = static_cast<float>(dir_rng.normal());
        dot += static_cast<double>(di[i]) * analytic[pi][i];
      }
      d.push_back(std::move(di));
    }

    auto shift = [&](float sign) {
      for (std::size_t pi = 0; pi < params.size(); ++pi)
        params[pi].value->axpy_(sign * eps, d[pi]);
    };
    shift(+1.0f);
    const float lp = softmax_cross_entropy(net.forward(x, true), labels).loss;
    shift(-2.0f);
    const float lm = softmax_cross_entropy(net.forward(x, true), labels).loss;
    shift(+1.0f);  // restore

    const double numeric = (static_cast<double>(lp) - lm) / (2.0 * eps);
    const double denom = std::max(std::fabs(dot), 1e-4);
    rel_errors.push_back(std::fabs(numeric - dot) / denom);
  }

  std::sort(rel_errors.begin(), rel_errors.end());
  return rel_errors[rel_errors.size() / 2];
}

std::vector<core::BnState> reference_calibrate_bn_per_level(
    Network& net, const prune::PruneLevelLibrary& levels,
    const Dataset& calib_data, const core::BnCalibrationConfig& config,
    Rng& rng) {
  const core::WeightStore golden = core::WeightStore::snapshot(net);
  const core::BnState level0 = core::capture_bn_state(net);
  const std::size_t per_level = static_cast<std::size_t>(config.batches) *
                                static_cast<std::size_t>(config.batch_size);
  std::vector<std::vector<std::size_t>> picks(
      static_cast<std::size_t>(levels.level_count()));
  for (int k = 1; k < levels.level_count(); ++k) {
    auto& p = picks[static_cast<std::size_t>(k)];
    p.resize(per_level);
    for (auto& i : p) i = rng.uniform_u64(calib_data.size());
  }
  std::vector<core::BnState> out(static_cast<std::size_t>(levels.level_count()));
  out[0] = level0;
  std::vector<int> labels;
  for (int k = 1; k < levels.level_count(); ++k) {
    Network local = net.clone();
    core::apply_bn_state(local, level0);
    golden.apply_mask(local, levels.mask(k));
    const auto& level_picks = picks[static_cast<std::size_t>(k)];
    for (int b = 0; b < config.batches; ++b) {
      const std::vector<std::size_t> pick(
          level_picks.begin() + b * config.batch_size,
          level_picks.begin() + (b + 1) * config.batch_size);
      const Tensor x = calib_data.batch(
          pick, 0, static_cast<std::size_t>(config.batch_size), &labels);
      (void)local.forward(x, /*training=*/true);
    }
    out[static_cast<std::size_t>(k)] = core::capture_bn_state(local);
  }
  return out;
}

bool same_bn_state(const core::BnState& a, const core::BnState& b) {
  if (a.stats.size() != b.stats.size()) return false;
  for (const auto& [name, mv] : a.stats) {
    const auto it = b.stats.find(name);
    if (it == b.stats.end()) return false;
    if (float_bits(mv.first.data()) != float_bits(it->second.first.data()) ||
        float_bits(mv.second.data()) != float_bits(it->second.second.data()))
      return false;
  }
  return true;
}

}  // namespace rrp::testing
