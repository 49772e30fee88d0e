// test_support.h — shared fixtures/helpers for the rrp test suite.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/bn_calibration.h"
#include "models/trained_cache.h"
#include "nn/init.h"
#include "nn/network.h"
#include "nn/train.h"
#include "sim/vision_task.h"
#include "util/rng.h"

namespace rrp::testing {

/// Fills a tensor with deterministic pseudo-random values in [-1, 1].
nn::Tensor random_tensor(nn::Shape shape, std::uint64_t seed);

/// Bit patterns of `v`, for bitwise comparison: -0 differs from +0 and
/// NaNs compare equal to themselves.
std::vector<std::uint32_t> float_bits(std::span<const float> v);

/// A tiny conv net (1x8x8 input, 3 classes) that trains in well under a
/// second; structured-prunable (conv1, fc1), pinned head.
nn::Network tiny_conv_net(std::uint64_t seed);

/// Same topology as tiny_conv_net but with BatchNorm after conv1.
nn::Network tiny_bn_net(std::uint64_t seed);

/// A tiny residual net (shape-preserving block) on 1x8x8 input.
nn::Network tiny_residual_net(std::uint64_t seed);

/// Batch-1 input shape for the tiny nets.
nn::Shape tiny_input_shape();

/// A small synthetic 3-class dataset on 1x8x8 inputs whose classes are
/// linearly separable-ish patterns; trains to >80% in a couple of epochs.
nn::Dataset tiny_dataset(std::size_t n, std::uint64_t seed);

/// Trains `net` briefly on tiny_dataset; returns final train accuracy.
double quick_train(nn::Network& net, const nn::Dataset& data, int epochs = 3,
                   std::uint64_t seed = 11);

/// Directional-derivative gradient check: compares the analytic gradient's
/// projection onto random directions against central differences of the
/// loss along those directions.  Returns the MEDIAN relative error over
/// `directions` probes — robust to isolated ReLU/MaxPool kink crossings
/// while any systematic backward bug shifts every probe.
double gradient_check(nn::Network& net, const nn::Tensor& x,
                      const std::vector<int>& labels, int directions = 15);

/// The BN calibration engine as it was before calibration ran at eval
/// cost: each level streams its batches through a clone's
/// Network::forward(x, /*training=*/true), serially, with the same batch
/// draws.  The oracle for core::calibrate_bn_per_level.
std::vector<core::BnState> reference_calibrate_bn_per_level(
    nn::Network& net, const prune::PruneLevelLibrary& levels,
    const nn::Dataset& calib_data, const core::BnCalibrationConfig& config,
    Rng& rng);

/// Bitwise equality of two BN states (same layers, same statistics bits).
bool same_bn_state(const core::BnState& a, const core::BnState& b);

}  // namespace rrp::testing
