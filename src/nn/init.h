// init.h — weight initialization schemes (deterministic via explicit Rng).
#pragma once

#include "nn/network.h"
#include "util/rng.h"

namespace rrp::nn {

/// Fills a tensor with He/Kaiming-normal values for the given fan-in.
void he_normal(Tensor& t, int fan_in, Rng& rng);

/// Initializes every Linear/Conv2D in the network: He-normal weights
/// (fan-in computed from the layer geometry), zero biases.  BatchNorm keeps
/// its gamma=1/beta=0 construction values.
void init_network(Network& net, Rng& rng);

}  // namespace rrp::nn
