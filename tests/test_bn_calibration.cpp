#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>

#include "core/bn_calibration.h"
#include "util/checks.h"
#include "core/reversible_pruner.h"
#include "models/trained_cache.h"
#include "nn/gemm_kernels.h"
#include "test_support.h"
#include "util/thread_pool.h"

namespace rrp::core {
namespace {

using rrp::testing::tiny_bn_net;
using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_dataset;
using rrp::testing::tiny_input_shape;

TEST(BnState, CaptureAndApplyRoundTrip) {
  nn::Network net = tiny_bn_net(1);
  auto* bn = dynamic_cast<nn::BatchNorm*>(net.find("bn1"));
  bn->running_mean() = nn::Tensor({6}, {1, 2, 3, 4, 5, 6});
  const BnState state = capture_bn_state(net);
  EXPECT_FALSE(state.empty());
  EXPECT_GT(state.total_bytes(), 0);

  bn->running_mean().fill(0.0f);
  apply_bn_state(net, state);
  EXPECT_FLOAT_EQ(bn->running_mean()[3], 4.0f);
}

TEST(BnState, EmptyForNetWithoutBn) {
  nn::Network net = tiny_conv_net(2);
  EXPECT_TRUE(capture_bn_state(net).empty());
}

TEST(BnState, ApplyValidatesLayerNames) {
  nn::Network net = tiny_bn_net(3);
  BnState bogus;
  bogus.stats.emplace("ghost",
                      std::make_pair(nn::Tensor({2}), nn::Tensor({2})));
  EXPECT_THROW(apply_bn_state(net, bogus), PreconditionError);
}

class CalibrationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = tiny_bn_net(4);
    data_ = tiny_dataset(300, 5);
    rrp::testing::quick_train(net_, data_, 3);
    lib_ = prune::PruneLevelLibrary::build_structured(
        net_, {0.0, 0.5}, tiny_input_shape());
  }
  nn::Network net_;
  nn::Dataset data_;
  prune::PruneLevelLibrary lib_;
};

TEST_F(CalibrationFixture, ReturnsOneStatePerLevel) {
  Rng rng(6);
  const auto states =
      calibrate_bn_per_level(net_, lib_, data_, BnCalibrationConfig{}, rng);
  EXPECT_EQ(states.size(), 2u);
  for (const auto& s : states) EXPECT_FALSE(s.empty());
}

TEST_F(CalibrationFixture, LevelZeroKeepsDenseStats) {
  const BnState before = capture_bn_state(net_);
  Rng rng(7);
  const auto states =
      calibrate_bn_per_level(net_, lib_, data_, BnCalibrationConfig{}, rng);
  for (const auto& [name, mv] : before.stats) {
    const auto it = states[0].stats.find(name);
    ASSERT_NE(it, states[0].stats.end());
    EXPECT_TRUE(it->second.first.equals(mv.first));
    EXPECT_TRUE(it->second.second.equals(mv.second));
  }
}

TEST_F(CalibrationFixture, NetworkRestoredAfterCalibration) {
  std::vector<nn::Tensor> before;
  for (auto& p : net_.params()) before.push_back(*p.value);
  const BnState stats_before = capture_bn_state(net_);

  Rng rng(8);
  calibrate_bn_per_level(net_, lib_, data_, BnCalibrationConfig{}, rng);

  auto after = net_.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(before[i]));
  const BnState stats_after = capture_bn_state(net_);
  for (const auto& [name, mv] : stats_before.stats) {
    EXPECT_TRUE(stats_after.stats.at(name).first.equals(mv.first));
    EXPECT_TRUE(stats_after.stats.at(name).second.equals(mv.second));
  }
}

TEST_F(CalibrationFixture, CalibratedStatsDifferFromDenseAtPrunedLevel) {
  Rng rng(9);
  const auto states =
      calibrate_bn_per_level(net_, lib_, data_, BnCalibrationConfig{}, rng);
  bool any_diff = false;
  for (const auto& [name, mv] : states[1].stats) {
    const auto& dense = states[0].stats.at(name);
    if (!mv.first.equals(dense.first)) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST_F(CalibrationFixture, CalibrationImprovesOrMatchesPrunedAccuracy) {
  Rng rng(10);
  const auto states =
      calibrate_bn_per_level(net_, lib_, data_, BnCalibrationConfig{}, rng);

  ReversiblePruner rp(net_, lib_);
  rp.set_level(1);
  const double without = nn::evaluate_accuracy(net_, data_);
  rp.set_level(0);

  ReversiblePruner rp2(net_, lib_);
  rp2.set_bn_states(states);
  rp2.set_level(1);
  const double with = nn::evaluate_accuracy(net_, data_);
  EXPECT_GE(with + 0.03, without);
}

TEST_F(CalibrationFixture, ValidatesConfig) {
  Rng rng(11);
  BnCalibrationConfig bad;
  bad.batches = 0;
  EXPECT_THROW(calibrate_bn_per_level(net_, lib_, data_, bad, rng),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// BatchNormStats: the one batch-statistics routine (training forward and
// calibration both) against the per-channel loop it replaced, kept here as
// the oracle.  Every comparison is bitwise.
// ---------------------------------------------------------------------------

struct OracleBn {
  std::vector<float> running_mean, running_var, y;
};

// The pre-lane BatchNorm training forward: one channel at a time, its
// double sums in (sample, pixel) order, then (x - m) * inv * gamma + beta.
void oracle_batch_norm(const nn::Tensor& x, int c_count, int hw,
                       const nn::BatchNorm& bn, OracleBn& st) {
  const int n = x.size(0);
  const float momentum = bn.momentum();
  const double count = static_cast<double>(n) * hw;
  std::vector<float> mean(static_cast<std::size_t>(c_count));
  std::vector<float> inv_std(static_cast<std::size_t>(c_count));
  for (int c = 0; c < c_count; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int s = 0; s < n; ++s) {
      const float* plane =
          x.raw() + (static_cast<std::int64_t>(s) * c_count + c) * hw;
      for (int i = 0; i < hw; ++i) {
        sum += plane[i];
        sq += static_cast<double>(plane[i]) * plane[i];
      }
    }
    const double m = sum / count;
    const double var = sq / count - m * m;
    const auto u = static_cast<std::size_t>(c);
    mean[u] = static_cast<float>(m);
    inv_std[u] = static_cast<float>(1.0 / std::sqrt(var + bn.eps()));
    st.running_mean[u] = (1.0f - momentum) * st.running_mean[u] +
                         momentum * static_cast<float>(m);
    st.running_var[u] =
        (1.0f - momentum) * st.running_var[u] +
        momentum * static_cast<float>(var * count / (count - 1));
  }
  st.y.assign(static_cast<std::size_t>(x.numel()), 0.0f);
  for (int s = 0; s < n; ++s) {
    for (int c = 0; c < c_count; ++c) {
      const auto u = static_cast<std::size_t>(c);
      const std::int64_t off = (static_cast<std::int64_t>(s) * c_count + c) * hw;
      for (int i = 0; i < hw; ++i) {
        const float nrm = (x.raw()[off + i] - mean[u]) * inv_std[u];
        st.y[static_cast<std::size_t>(off + i)] =
            nrm * bn.gamma()[c] + bn.beta()[c];
      }
    }
  }
}

// [N, C] for hw 1 (the rank-2 path), [N, C, 1, 3] for 3, square otherwise.
nn::Shape stats_shape(int n, int c, int hw) {
  if (hw == 1) return {n, c};
  if (hw == 3) return {n, c, 1, 3};
  const int side = static_cast<int>(std::lround(std::sqrt(hw)));
  return {n, c, side, side};
}

// Values mixing magnitudes 1e-30..1e30, signed zeros and subnormals.
nn::Tensor extreme_tensor(const nn::Shape& shape, std::uint64_t seed) {
  Rng rng(seed);
  nn::Tensor t(shape);
  for (float& v : t.data()) {
    const std::uint64_t pick = rng.uniform_u64(8);
    const float sign = rng.uniform(0.0, 1.0) < 0.5 ? -1.0f : 1.0f;
    if (pick == 0) v = sign * 0.0f;
    else if (pick == 1) v = sign * std::numeric_limits<float>::denorm_min() *
                            static_cast<float>(1 + rng.uniform_u64(1000));
    else if (pick == 2) v = sign * static_cast<float>(std::pow(10.0, rng.uniform(-30.0, 30.0)));
    else v = static_cast<float>(rng.uniform(-3.0, 3.0));
  }
  return t;
}

// Gives `bn` a non-trivial affine and running statistics.
void seed_stats_layer(nn::BatchNorm& bn, std::uint64_t seed) {
  Rng rng(seed);
  for (int i = 0; i < bn.channels(); ++i) {
    bn.gamma()[i] = static_cast<float>(rng.uniform(0.5, 2.0));
    bn.beta()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    bn.running_mean()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    bn.running_var()[i] = static_cast<float>(rng.uniform(0.5, 2.0));
  }
}

// Runs two batches through the oracle, forward(x, true) and
// forward_batch_into (out of place, then in place on a second layer) and
// requires every running statistic and output bit to agree.
void expect_stats_match(const nn::Tensor& a, const nn::Tensor& b, int c,
                        int hw, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "N=" << a.size(0) << " C=" << c
                                    << " HW=" << hw);
  nn::BatchNorm train("bn", c, /*momentum=*/0.3f);
  nn::BatchNorm calib("bn", c, /*momentum=*/0.3f);
  nn::BatchNorm in_place("bn", c, /*momentum=*/0.3f);
  for (nn::BatchNorm* bn : {&train, &calib, &in_place})
    seed_stats_layer(*bn, seed);
  OracleBn oracle{std::vector<float>(train.running_mean().data().begin(),
                                     train.running_mean().data().end()),
                  std::vector<float>(train.running_var().data().begin(),
                                     train.running_var().data().end()),
                  {}};
  for (const nn::Tensor* x : {&a, &b}) {
    oracle_batch_norm(*x, c, hw, train, oracle);
    const nn::Tensor y_train = train.forward(*x, /*training=*/true);
    std::vector<float> y_calib(static_cast<std::size_t>(x->numel()));
    calib.forward_batch_into(x->raw(), x->shape(), y_calib.data());
    nn::Tensor y_in_place = *x;
    in_place.forward_batch_into(y_in_place.raw(), x->shape(),
                                y_in_place.raw());

    using rrp::testing::float_bits;
    const auto want_y = float_bits(oracle.y);
    EXPECT_EQ(float_bits(y_train.data()), want_y);
    EXPECT_EQ(float_bits(y_calib), want_y);
    EXPECT_EQ(float_bits(y_in_place.data()), want_y);
    for (const nn::BatchNorm* bn : {&train, &calib, &in_place}) {
      EXPECT_EQ(float_bits(bn->running_mean().data()),
                float_bits(oracle.running_mean));
      EXPECT_EQ(float_bits(bn->running_var().data()),
                float_bits(oracle.running_var));
    }
  }
}

TEST(BatchNormStats, MatchesThePerChannelLoopOverShapes) {
  std::uint64_t seed = 100;
  for (int n : {2, 3, 32})
    for (int c : {1, 3, 7, 8, 9, 33})
      for (int hw : {1, 3, 64, 256}) {
        const nn::Shape shape = stats_shape(n, c, hw);
        expect_stats_match(rrp::testing::random_tensor(shape, seed),
                           rrp::testing::random_tensor(shape, seed + 1), c,
                           hw, seed);
        seed += 2;
      }
}

TEST(BatchNormStats, MatchesOnExtremeMagnitudesZerosAndSubnormals) {
  std::uint64_t seed = 500;
  for (int n : {2, 3, 32})
    for (int c : {1, 3, 7, 8, 9, 33})
      for (int hw : {1, 3, 64, 256}) {
        const nn::Shape shape = stats_shape(n, c, hw);
        expect_stats_match(extreme_tensor(shape, seed),
                           extreme_tensor(shape, seed + 1), c, hw, seed);
        seed += 2;
      }
}

TEST(BatchNormStats, MatchesWithANanChannelAndAnInfChannel) {
  for (int c : {3, 9, 33}) {
    const nn::Shape shape = stats_shape(4, c, 64);
    nn::Tensor a = rrp::testing::random_tensor(shape, 900 + c);
    nn::Tensor b = rrp::testing::random_tensor(shape, 901 + c);
    // Channel 1 carries one NaN per batch, the last channel one +Inf.
    for (nn::Tensor* x : {&a, &b}) {
      x->raw()[(1 * c + 1) * 64 + 5] = std::numeric_limits<float>::quiet_NaN();
      x->raw()[(2 * c + (c - 1)) * 64 + 7] =
          std::numeric_limits<float>::infinity();
    }
    expect_stats_match(a, b, c, 64, 950 + c);
  }
}

// Both channel_moments variants against the one-channel loop, pixel
// tails (hw not a multiple of 4) included.
TEST(BatchNormStats, MomentKernelVariantsMatchTheOneChannelLoop) {
  using nn::kernels::kMomentLanes;
  std::vector<nn::kernels::ChannelMomentsFn> variants = {
      &nn::kernels::channel_moments_reference};
#if defined(RRP_HAVE_AVX2)
  if (nn::kernels::avx2_usable())
    variants.push_back(&nn::kernels::channel_moments_avx2);
#endif
  std::uint64_t seed = 1200;
  for (int n : {1, 2, 5})
    for (int hw : {1, 3, 4, 5, 7, 64, 65}) {
      // 9 channels, so the group at channel 1 reads interior planes.
      const nn::Tensor x = extreme_tensor({n, 9, 1, hw}, seed++);
      const std::int64_t stride = 9LL * hw;
      double want_sum[kMomentLanes], want_sq[kMomentLanes];
      for (int l = 0; l < kMomentLanes; ++l) {
        double s = 0.0, q = 0.0;
        for (int smp = 0; smp < n; ++smp)
          for (int i = 0; i < hw; ++i) {
            const double e = x.raw()[smp * stride + (1 + l) * hw + i];
            s += e;
            q += e * e;
          }
        want_sum[l] = s;
        want_sq[l] = q;
      }
      for (const auto fn : variants) {
        double sum[kMomentLanes], sq[kMomentLanes];
        fn(x.raw() + hw, n, stride, hw, sum, sq);
        for (int l = 0; l < kMomentLanes; ++l) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(sum[l]),
                    std::bit_cast<std::uint64_t>(want_sum[l]))
              << "n=" << n << " hw=" << hw << " lane " << l;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(sq[l]),
                    std::bit_cast<std::uint64_t>(want_sq[l]))
              << "n=" << n << " hw=" << hw << " lane " << l;
        }
      }
    }
}

TEST(BatchNormStats, RejectsASingleValuePerChannel) {
  nn::BatchNorm bn("bn", 2);
  const nn::Tensor x({1, 2});
  std::vector<float> y(2);
  EXPECT_THROW(bn.forward_batch_into(x.raw(), x.shape(), y.data()),
               PreconditionError);
}

// ---------------------------------------------------------------------------
// BnCalibrationParity: the eval-cost calibration returns exactly the BN
// states of the old training-forward engine, at every level and thread
// count, on zoo models with and without Residual blocks.
// ---------------------------------------------------------------------------

void expect_calibration_parity(models::ModelKind kind) {
  SCOPED_TRACE(models::model_kind_name(kind));
  models::TrainRecipe recipe;
  recipe.train_samples = 128;
  recipe.eval_samples = 32;
  nn::Dataset train, eval;
  models::make_datasets(recipe, train, eval);
  Rng init(recipe.init_seed);
  nn::Network net = models::build_model(kind, init);
  rrp::testing::quick_train(net, train, 1);
  const auto levels = prune::PruneLevelLibrary::build_structured(
      net, models::LevelRecipe{}.ratios, models::zoo_input_shape(),
      prune::ImportanceMetric::L1, /*min_channels=*/2);
  BnCalibrationConfig config;
  config.batches = 3;
  config.batch_size = 16;

  Rng ref_rng(41);
  const auto want = rrp::testing::reference_calibrate_bn_per_level(
      net, levels, train, config, ref_rng);
  ASSERT_EQ(want.size(), static_cast<std::size_t>(levels.level_count()));
  for (int threads : {1, 3}) {
    ThreadCountGuard guard(threads);
    Rng rng(41);
    const auto got = calibrate_bn_per_level(net, levels, train, config, rng);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k)
      EXPECT_TRUE(rrp::testing::same_bn_state(got[k], want[k]))
          << "level " << k << " at " << threads << " threads";
    EXPECT_EQ(rng.next_u64(), Rng(ref_rng).next_u64());
  }
}

TEST(BnCalibrationParity, DetNetMatchesTheTrainingForwardEngine) {
  expect_calibration_parity(models::ModelKind::DetNet);
}

TEST(BnCalibrationParity, ResNetLiteMatchesTheTrainingForwardEngine) {
  expect_calibration_parity(models::ModelKind::ResNetLite);
}

TEST(BnCalibrationParity, MobileNetLiteMatchesTheTrainingForwardEngine) {
  expect_calibration_parity(models::ModelKind::MobileNetLite);
}

}  // namespace
}  // namespace rrp::core
