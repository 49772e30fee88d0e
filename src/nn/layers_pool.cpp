#include <algorithm>
#include <limits>

#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

namespace {
std::pair<int, int> pool_out_hw(int h, int w, int k, int s) {
  const int oh = (h - k) / s + 1;
  const int ow = (w - k) / s + 1;
  RRP_CHECK_MSG(oh > 0 && ow > 0, "pool input " << h << "x" << w
                                                << " smaller than kernel");
  return {oh, ow};
}

// Inference max pool over `planes` [h, w] planes: no argmax, no bounds
// checks.  The window is scanned in (ki, kj) order with `v > best` from
// -inf, exactly like the training loop, so NaN inputs are passed over and
// the first of equal values (+0 / -0 ties) wins in both paths.  K and S
// fix the window and stride at compile time (0 = take `k` / `s`), which
// unrolls the common 2x2 stride-2 pool.
template <int K, int S>
void max_pool_planes(const float* x, std::int64_t planes, int h, int w,
                     int k, int s, int oh, int ow, float* y) {
  if constexpr (K > 0) k = K;
  if constexpr (S > 0) s = S;
  const std::int64_t plane = static_cast<std::int64_t>(h) * w;
  for (std::int64_t p = 0; p < planes; ++p, x += plane) {
    for (int oi = 0; oi < oh; ++oi) {
      const float* top = x + static_cast<std::int64_t>(oi) * s * w;
      for (int oj = 0; oj < ow; ++oj, ++y) {
        float best = -std::numeric_limits<float>::infinity();
        for (int ki = 0; ki < k; ++ki) {
          const float* row =
              top + static_cast<std::int64_t>(ki) * w + oj * s;
          for (int kj = 0; kj < k; ++kj)
            best = row[kj] > best ? row[kj] : best;
        }
        *y = best;
      }
    }
  }
}

}  // namespace

MaxPool::MaxPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  RRP_CHECK(kernel > 0 && stride > 0);
}

void MaxPool::forward_into(const float* x, const Shape& in, float* y,
                           float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(in.size() == 4, "MaxPool expects NCHW");
  const int h = in[2], w = in[3];
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  const std::int64_t planes = static_cast<std::int64_t>(in[0]) * in[1];
  if (kernel_ == 2 && stride_ == 2)
    max_pool_planes<2, 2>(x, planes, h, w, 2, 2, oh, ow, y);
  else
    max_pool_planes<0, 0>(x, planes, h, w, kernel_, stride_, oh, ow, y);
}

Tensor MaxPool::forward(const Tensor& x, bool training) {
  if (!training) return forward_eval(x);
  RRP_CHECK_MSG(x.dim() == 4, "MaxPool expects NCHW");
  const int n = x.size(0), c = x.size(1), h = x.size(2), w = x.size(3);
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  Tensor y({n, c, oh, ow});
  cached_in_shape_ = x.shape();
  argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  std::int64_t oidx = 0;
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x.raw() + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      const std::int64_t plane_base =
          (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int oi = 0; oi < oh; ++oi) {
        for (int oj = 0; oj < ow; ++oj, ++oidx) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (int ki = 0; ki < kernel_; ++ki) {
            const int ii = oi * stride_ + ki;
            for (int kj = 0; kj < kernel_; ++kj) {
              const int jj = oj * stride_ + kj;
              const float v = plane[static_cast<std::int64_t>(ii) * w + jj];
              if (v > best) {
                best = v;
                best_idx = plane_base + static_cast<std::int64_t>(ii) * w + jj;
              }
            }
          }
          y[oidx] = best;
          argmax_[static_cast<std::size_t>(oidx)] = best_idx;
        }
      }
    }
  }
  return y;
}

Tensor MaxPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "MaxPool '" << name() << "' backward without forward(train)");
  RRP_CHECK(static_cast<std::size_t>(grad_out.numel()) == argmax_.size());
  Tensor grad_in(cached_in_shape_);
  for (std::int64_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_[static_cast<std::size_t>(i)]] += grad_out[i];
  return grad_in;
}

Shape MaxPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  const auto [oh, ow] = pool_out_hw(in[2], in[3], kernel_, stride_);
  return {in[0], in[1], oh, ow};
}

std::unique_ptr<Layer> MaxPool::clone() const {
  return std::make_unique<MaxPool>(name(), kernel_, stride_);
}

AvgPool::AvgPool(std::string name, int kernel, int stride)
    : Layer(std::move(name)), kernel_(kernel), stride_(stride) {
  RRP_CHECK(kernel > 0 && stride > 0);
}

Tensor AvgPool::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_in_shape_ = x.shape();
  return y;
}

void AvgPool::forward_into(const float* x, const Shape& in, float* y,
                           float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(in.size() == 4, "AvgPool expects NCHW");
  const int n = in[0], c = in[1], h = in[2], w = in[3];
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  std::int64_t oidx = 0;
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int oi = 0; oi < oh; ++oi) {
        for (int oj = 0; oj < ow; ++oj, ++oidx) {
          double acc = 0.0;
          for (int ki = 0; ki < kernel_; ++ki) {
            const int ii = oi * stride_ + ki;
            for (int kj = 0; kj < kernel_; ++kj)
              acc += plane[static_cast<std::int64_t>(ii) * w + oj * stride_ +
                           kj];
          }
          y[oidx] = static_cast<float>(acc) * inv;
        }
      }
    }
  }
}

Tensor AvgPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "AvgPool '" << name() << "' backward without forward(train)");
  const int n = cached_in_shape_[0], c = cached_in_shape_[1],
            h = cached_in_shape_[2], w = cached_in_shape_[3];
  const auto [oh, ow] = pool_out_hw(h, w, kernel_, stride_);
  RRP_CHECK(grad_out.dim() == 4 && grad_out.size(2) == oh &&
            grad_out.size(3) == ow);
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);
  std::int64_t oidx = 0;
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      float* plane =
          grad_in.raw() + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int oi = 0; oi < oh; ++oi) {
        for (int oj = 0; oj < ow; ++oj, ++oidx) {
          const float g = grad_out[oidx] * inv;
          for (int ki = 0; ki < kernel_; ++ki) {
            const int ii = oi * stride_ + ki;
            for (int kj = 0; kj < kernel_; ++kj)
              plane[static_cast<std::int64_t>(ii) * w + oj * stride_ + kj] +=
                  g;
          }
        }
      }
    }
  }
  return grad_in;
}

Shape AvgPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  const auto [oh, ow] = pool_out_hw(in[2], in[3], kernel_, stride_);
  return {in[0], in[1], oh, ow};
}

std::unique_ptr<Layer> AvgPool::clone() const {
  return std::make_unique<AvgPool>(name(), kernel_, stride_);
}

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_in_shape_ = x.shape();
  return y;
}

void GlobalAvgPool::forward_into(const float* x, const Shape& in, float* y,
                                 float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(in.size() == 4, "GlobalAvgPool expects NCHW");
  const int n = in[0], c = in[1], h = in[2], w = in[3];
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float* plane =
          x + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      double acc = 0.0;
      for (int i = 0; i < h * w; ++i) acc += plane[i];
      y[static_cast<std::int64_t>(s) * c + ch] = static_cast<float>(acc) * inv;
    }
  }
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_in_shape_.empty(),
                "GlobalAvgPool backward without forward(train)");
  const int n = cached_in_shape_[0], c = cached_in_shape_[1],
            h = cached_in_shape_[2], w = cached_in_shape_[3];
  RRP_CHECK(grad_out.dim() == 2 && grad_out.size(0) == n &&
            grad_out.size(1) == c);
  Tensor grad_in(cached_in_shape_);
  const float inv = 1.0f / static_cast<float>(h * w);
  for (int s = 0; s < n; ++s) {
    for (int ch = 0; ch < c; ++ch) {
      const float g = grad_out.at(s, ch) * inv;
      float* plane =
          grad_in.raw() + (static_cast<std::int64_t>(s) * c + ch) * h * w;
      for (int i = 0; i < h * w; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4);
  return {in[0], in[1]};
}

std::unique_ptr<Layer> GlobalAvgPool::clone() const {
  return std::make_unique<GlobalAvgPool>(name());
}

}  // namespace rrp::nn
