#include "nn/init.h"

#include <cmath>

#include "util/checks.h"

namespace rrp::nn {

void he_normal(Tensor& t, int fan_in, Rng& rng) {
  RRP_CHECK(fan_in > 0);
  const double std = std::sqrt(2.0 / fan_in);
  for (float& v : t.data()) v = static_cast<float>(rng.normal(0.0, std));
}

void init_network(Network& net, Rng& rng) {
  for (Layer* l : net.leaf_layers()) {
    if (auto* lin = dynamic_cast<Linear*>(l)) {
      he_normal(lin->weight(), lin->in_features(), rng);
      if (lin->with_bias()) lin->bias().fill(0.0f);
    } else if (auto* conv = dynamic_cast<Conv2D*>(l)) {
      const int fan_in = conv->in_channels() * conv->kernel() * conv->kernel();
      he_normal(conv->weight(), fan_in, rng);
      if (conv->with_bias()) conv->bias().fill(0.0f);
    } else if (auto* dw = dynamic_cast<DepthwiseConv2D*>(l)) {
      he_normal(dw->weight(), dw->kernel() * dw->kernel(), rng);
      if (dw->with_bias()) dw->bias().fill(0.0f);
    }
  }
}

}  // namespace rrp::nn
