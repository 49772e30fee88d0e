#include "core/bn_calibration.h"

#include <algorithm>
#include <deque>

#include "core/weight_store.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp::core {

std::int64_t BnState::total_bytes() const {
  std::int64_t n = 0;
  for (const auto& [name, mv] : stats)
    n += (mv.first.numel() + mv.second.numel()) *
         static_cast<std::int64_t>(sizeof(float));
  return n;
}

BnState capture_bn_state(nn::Network& net) {
  BnState state;
  for (nn::Layer* l : net.leaf_layers())
    if (auto* bn = dynamic_cast<nn::BatchNorm*>(l))
      state.stats.emplace(bn->name(),
                          std::make_pair(bn->running_mean(), bn->running_var()));
  return state;
}

namespace {

// Activation memory of one calibration forward, reused across its
// batches: a ping-pong pair of buffers per Residual nesting depth (pair d
// at bufs[2d], bufs[2d + 1]) and one layer scratch.  A deque, so growing
// it for a nested body never moves the buffers an outer block reads.
struct CalibArena {
  std::deque<std::vector<float>> bufs;
  std::vector<float> scratch;

  float* buf(std::size_t i, std::int64_t floats) {
    if (bufs.size() <= i) bufs.resize(i + 1);
    std::vector<float>& b = bufs[i];
    if (static_cast<std::int64_t>(b.size()) < floats)
      b.resize(static_cast<std::size_t>(floats));
    return b.data();
  }
};

// The calibration forward of `net` on `x`: every BatchNorm normalizes with
// its batch statistics and moves its running statistics (forward_batch_into),
// every other layer runs its eval forward_into, and a Residual adds its
// input to its body's output.  Equals net.forward(x, true) bit for bit,
// with no backward caches.  `shape` is the input shape on entry and the
// output shape on return; the output lives in the pair at bufs[depth].
const float* calibration_forward(nn::Network& net, const float* x,
                                 nn::Shape& shape, CalibArena& arena,
                                 std::size_t depth) {
  const float* cur = x;
  std::size_t cur_buf = depth + 1;  // written first: bufs[depth]
  for (const auto& owned : net.layers()) {
    nn::Layer* layer = owned.get();
    const nn::Shape out = layer->output_shape(shape);
    // In-place kinds overwrite their input unless it is the caller's.
    const bool in_place = layer->in_place() && cur != x;
    const std::size_t next = cur_buf == depth ? depth + 1 : depth;
    float* y = in_place ? const_cast<float*>(cur)
                        : arena.buf(next, nn::shape_numel(out));
    if (layer->kind() == nn::LayerKind::BatchNorm) {
      static_cast<nn::BatchNorm*>(layer)->forward_batch_into(cur, shape, y);
    } else if (layer->kind() == nn::LayerKind::Residual) {
      nn::Shape body_shape = shape;
      const float* body = calibration_forward(
          static_cast<nn::Residual*>(layer)->body(), cur, body_shape, arena,
          depth + 2);
      const std::int64_t n = nn::shape_numel(out);
      for (std::int64_t i = 0; i < n; ++i) y[i] = body[i] + cur[i];
    } else {
      const std::int64_t floats = layer->scratch_floats(shape);
      if (static_cast<std::int64_t>(arena.scratch.size()) < floats)
        arena.scratch.resize(static_cast<std::size_t>(floats));
      layer->forward_into(cur, shape, y, arena.scratch.data());
    }
    if (!in_place) cur_buf = next;
    cur = y;
    shape = out;
  }
  return cur;
}

}  // namespace

void apply_bn_state(nn::Network& net, const BnState& state) {
  static metrics::Counter& swaps = metrics::counter("bn.state_swaps");
  swaps.add(1);
  for (const auto& [name, mv] : state.stats) {
    nn::Layer* l = net.find(name);
    RRP_CHECK_MSG(l != nullptr, "BnState names unknown layer '" << name << "'");
    auto* bn = dynamic_cast<nn::BatchNorm*>(l);
    RRP_CHECK_MSG(bn != nullptr, "'" << name << "' is not a BatchNorm");
    RRP_CHECK_MSG(mv.first.shape() == bn->running_mean().shape(),
                  "BN state width mismatch on '" << name << "'");
    bn->running_mean() = mv.first;
    bn->running_var() = mv.second;
  }
}

std::vector<BnState> calibrate_bn_per_level(
    nn::Network& net, const prune::PruneLevelLibrary& levels,
    const nn::Dataset& calib_data, const BnCalibrationConfig& config,
    Rng& rng) {
  RRP_CHECK(config.batches >= 1 && config.batch_size >= 2);
  RRP_CHECK(calib_data.size() >= static_cast<std::size_t>(config.batch_size));

  RRP_SPAN_VAR(span, "bn.calibrate");
  span.add_items(levels.level_count() - 1);  // levels recalibrated
  static metrics::Counter& calibrations = metrics::counter("bn.calibrations");
  calibrations.add(std::max(0, levels.level_count() - 1));

  const WeightStore golden = WeightStore::snapshot(net);
  const BnState level0 = capture_bn_state(net);
  const int level_count = levels.level_count();

  // Draw every level's calibration batch indices up front, in level-major /
  // batch-major order — the exact sequence the serial engine consumed — so
  // the caller's rng ends in the same state for any thread count.
  const std::size_t per_level = static_cast<std::size_t>(config.batches) *
                                static_cast<std::size_t>(config.batch_size);
  std::vector<std::vector<std::size_t>> picks(
      static_cast<std::size_t>(level_count));
  for (int k = 1; k < level_count; ++k) {
    auto& p = picks[static_cast<std::size_t>(k)];
    p.resize(per_level);
    for (auto& i : p) i = rng.uniform_u64(calib_data.size());
  }

  // Levels are independent given their batch picks: each calibrates a
  // private clone (BN running stats move batch-by-batch within a level, so
  // the batch loop stays serial per level).  Results land in per-level
  // slots, keeping the output identical to the serial engine bit-for-bit.
  std::vector<BnState> out(static_cast<std::size_t>(level_count));
  out[0] = level0;  // dense stats are already converged

  parallel_for(1, level_count, 1, [&](std::int64_t k_begin,
                                      std::int64_t k_end) {
    std::vector<int> labels;
    CalibArena arena;
    for (std::int64_t k = k_begin; k < k_end; ++k) {
      nn::Network local = net.clone();
      // Start from the dense statistics, then adapt under the level's mask.
      apply_bn_state(local, level0);
      golden.apply_mask(local, levels.mask(static_cast<int>(k)));
      const auto& level_picks = picks[static_cast<std::size_t>(k)];
      for (int b = 0; b < config.batches; ++b) {
        const std::vector<std::size_t> pick(
            level_picks.begin() + b * config.batch_size,
            level_picks.begin() + (b + 1) * config.batch_size);
        const nn::Tensor x = calib_data.batch(
            pick, 0, static_cast<std::size_t>(config.batch_size), &labels);
        nn::Shape shape = x.shape();
        (void)calibration_forward(local, x.raw(), shape, arena, 0);
      }
      out[static_cast<std::size_t>(k)] = capture_bn_state(local);
    }
  });

  // The network is left exactly as found: clones absorbed all mutation.
  return out;
}

}  // namespace rrp::core
