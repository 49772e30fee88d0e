#include <algorithm>
#include <cmath>

#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

Tensor ReLU::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_input_ = x;
  return y;
}

void ReLU::forward_into(const float* x, const Shape& in, float* y,
                        float* scratch) const {
  (void)scratch;
  const std::int64_t n = shape_numel(in);
  for (std::int64_t i = 0; i < n; ++i) y[i] = std::max(x[i], 0.0f);
}

Tensor ReLU::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(),
                "ReLU '" << name() << "' backward without forward(train)");
  RRP_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor grad_in = grad_out;
  auto g = grad_in.data();
  auto x = cached_input_.data();
  for (std::size_t i = 0; i < g.size(); ++i)
    if (x[i] <= 0.0f) g[i] = 0.0f;
  return grad_in;
}

std::unique_ptr<Layer> ReLU::clone() const {
  return std::make_unique<ReLU>(name());
}

Tensor Softmax::forward(const Tensor& x, bool training) {
  (void)training;
  return forward_eval(x);
}

void Softmax::forward_into(const float* x, const Shape& in, float* y,
                           float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(!in.empty(), "Softmax needs rank >= 1");
  const int cols = in.back();
  const std::int64_t numel = shape_numel(in);
  const std::int64_t rows = numel / cols;
  if (y != x) std::copy(x, x + numel, y);
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = y + r * cols;
    const float m = *std::max_element(row, row + cols);
    double z = 0.0;
    for (int c = 0; c < cols; ++c) {
      row[c] = std::exp(row[c] - m);
      z += row[c];
    }
    const float inv = static_cast<float>(1.0 / z);
    for (int c = 0; c < cols; ++c) row[c] *= inv;
  }
}

std::unique_ptr<Layer> Softmax::clone() const {
  return std::make_unique<Softmax>(name());
}

Tensor Flatten::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_in_shape_ = x.shape();
  return y;
}

void Flatten::forward_into(const float* x, const Shape& in, float* y,
                           float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(in.size() >= 2, "Flatten needs rank >= 2");
  if (y != x) std::copy(x, x + shape_numel(in), y);
}

Tensor Flatten::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "Flatten '" << name() << "' backward without forward(train)");
  return grad_out.reshape(cached_in_shape_);
}

Shape Flatten::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() >= 2);
  int rest = 1;
  for (std::size_t i = 1; i < in.size(); ++i) rest *= in[i];
  return {in[0], rest};
}

std::unique_ptr<Layer> Flatten::clone() const {
  return std::make_unique<Flatten>(name());
}

}  // namespace rrp::nn
