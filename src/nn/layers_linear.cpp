#include <cstring>
#include <memory>

#include "nn/gemm.h"
#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

const char* layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::Linear: return "Linear";
    case LayerKind::Conv2D: return "Conv2D";
    case LayerKind::ReLU: return "ReLU";
    case LayerKind::MaxPool: return "MaxPool";
    case LayerKind::AvgPool: return "AvgPool";
    case LayerKind::GlobalAvgPool: return "GlobalAvgPool";
    case LayerKind::BatchNorm: return "BatchNorm";
    case LayerKind::Softmax: return "Softmax";
    case LayerKind::Flatten: return "Flatten";
    case LayerKind::Residual: return "Residual";
    case LayerKind::DepthwiseConv2D: return "DepthwiseConv2D";
  }
  return "?";
}

Tensor Layer::forward_eval(const Tensor& x) const {
  Tensor y(output_shape(x.shape()));
  // Uninitialized, so only the scratch a forward uses gets touched (a
  // batched conv has min(N, 8) padded slots, but only one per thread
  // taking chunks is written); every layer writes its scratch before
  // reading it.
  const std::int64_t n = scratch_floats(x.shape());
  const std::unique_ptr<float[]> scratch(
      n > 0 ? new float[static_cast<std::size_t>(n)] : nullptr);
  forward_into(x.raw(), x.shape(), y.raw(), scratch.get());
  return y;
}

Tensor Layer::backward(const Tensor& grad_out) {
  (void)grad_out;
  throw Error("layer '" + name() + "' (" + layer_kind_name(kind()) +
              ") does not support backward");
}

Linear::Linear(std::string name, int in_features, int out_features,
               bool with_bias)
    : Layer(std::move(name)),
      in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias),
      weight_({out_features, in_features}),
      bias_(with_bias ? Tensor({out_features}) : Tensor()),
      weight_grad_({out_features, in_features}),
      bias_grad_(with_bias ? Tensor({out_features}) : Tensor()) {
  RRP_CHECK(in_features > 0 && out_features > 0);
}

Tensor Linear::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_input_ = x;
  return y;
}

void Linear::forward_into(const float* x, const Shape& in, float* y,
                          float* scratch) const {
  (void)scratch;
  forward_fused_into(x, in, y, false);
}

// rrp-frame-path: every eval Linear (a planned ReLU after it included).
void Linear::forward_fused_into(const float* x, const Shape& in, float* y,
                                bool relu) const {
  RRP_CHECK_MSG(in.size() == 2 && in[1] == in_features_,
                "Linear '" << name() << "' expects [N, " << in_features_
                           << "], got " << shape_str(in));
  // y[N, out] = x[N, in] * W^T (W is [out, in]), + bias, then the ReLU.
  gemm_bt(in[0], out_features_, in_features_, 1.0f, x, in_features_,
          weight_.raw(), in_features_, 0.0f, y, out_features_,
          with_bias_ ? bias_.raw() : nullptr, relu);
}

Tensor Linear::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(),
                "Linear '" << name() << "' backward without forward(train)");
  const Tensor& x = cached_input_;
  const int n = x.size(0);
  RRP_CHECK(grad_out.dim() == 2 && grad_out.size(0) == n &&
            grad_out.size(1) == out_features_);

  // dW[out, in] += gradY^T[out, N] * x[N, in]
  gemm_at(out_features_, in_features_, n, 1.0f, grad_out.raw(), out_features_,
          x.raw(), in_features_, 1.0f, weight_grad_.raw(), in_features_);
  if (with_bias_) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < out_features_; ++j)
        bias_grad_[j] += grad_out.at(i, j);
  }
  // dX[N, in] = gradY[N, out] * W[out, in]
  Tensor grad_in({n, in_features_});
  gemm(n, in_features_, out_features_, 1.0f, grad_out.raw(), out_features_,
       weight_.raw(), in_features_, 0.0f, grad_in.raw(), in_features_);
  return grad_in;
}

// rrp-frame-path-stop: bounded param-view collector (see Network::params).
std::vector<ParamRef> Linear::params() {
  std::vector<ParamRef> p;
  p.push_back({name() + ".weight", &weight_, &weight_grad_});
  if (with_bias_) p.push_back({name() + ".bias", &bias_, &bias_grad_});
  return p;
}

Shape Linear::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 2 && in[1] == in_features_);
  return {in[0], out_features_};
}

std::int64_t Linear::macs(const Shape& in) const {
  (void)in;
  return static_cast<std::int64_t>(in_features_) * out_features_;
}

std::int64_t Linear::effective_macs(const Shape& in) const {
  (void)in;
  return count_nonzero(weight_.raw(), weight_.numel());
}

std::unique_ptr<Layer> Linear::clone() const {
  auto c = std::make_unique<Linear>(name(), in_features_, out_features_,
                                    with_bias_);
  c->weight_ = weight_;
  if (with_bias_) c->bias_ = bias_;
  c->out_prunable_ = out_prunable_;
  return c;
}

}  // namespace rrp::nn
