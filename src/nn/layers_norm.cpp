#include <cmath>

#include "nn/layers.h"
#include "util/checks.h"

namespace rrp::nn {

BatchNorm::BatchNorm(std::string name, int channels, float momentum, float eps)
    : Layer(std::move(name)),
      channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_({channels}),
      beta_({channels}),
      gamma_grad_({channels}),
      beta_grad_({channels}),
      running_mean_({channels}),
      running_var_({channels}) {
  RRP_CHECK(channels > 0);
  gamma_.fill(1.0f);
  running_var_.fill(1.0f);
}

namespace {
// Treats [N, C] as [N, C, 1, 1] so one code path handles both ranks.
struct NchwView {
  int n, c, hw;
};
NchwView view_of(const Shape& in, int channels) {
  RRP_CHECK_MSG(
      (in.size() == 4 && in[1] == channels) ||
          (in.size() == 2 && in[1] == channels),
      "BatchNorm expects [N, " << channels << ", H, W] or [N, " << channels
                               << "], got " << shape_str(in));
  if (in.size() == 2) return {in[0], channels, 1};
  return {in[0], channels, in[2] * in[3]};
}
}  // namespace

std::pair<float, float> BatchNorm::eval_affine(int c) const {
  const float inv_std = 1.0f / std::sqrt(running_var_.raw()[c] + eps_);
  const float scale = gamma_.raw()[c] * inv_std;
  return {scale, beta_.raw()[c] - running_mean_.raw()[c] * scale};
}

void BatchNorm::forward_into(const float* x, const Shape& in, float* y,
                             float* scratch) const {
  (void)scratch;
  const NchwView v = view_of(in, channels_);
  for (int s = 0; s < v.n; ++s) {
    for (int c = 0; c < v.c; ++c) {
      const auto [scale, shift] = eval_affine(c);
      const std::int64_t off = (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* src = x + off;
      float* dst = y + off;
      for (int i = 0; i < v.hw; ++i) dst[i] = src[i] * scale + shift;
    }
  }
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  if (!training) return forward_eval(x);
  const NchwView v = view_of(x.shape(), channels_);
  Tensor y = x;

  // Training path: batch statistics per channel.
  batch_mean_.assign(static_cast<std::size_t>(v.c), 0.0f);
  batch_inv_std_.assign(static_cast<std::size_t>(v.c), 0.0f);
  const double count = static_cast<double>(v.n) * v.hw;
  RRP_CHECK_MSG(count > 1, "BatchNorm training needs more than one value");
  for (int c = 0; c < v.c; ++c) {
    double sum = 0.0, sq = 0.0;
    for (int s = 0; s < v.n; ++s) {
      const float* plane =
          x.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      for (int i = 0; i < v.hw; ++i) {
        sum += plane[i];
        sq += static_cast<double>(plane[i]) * plane[i];
      }
    }
    const double m = sum / count;
    const double var = sq / count - m * m;
    batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(m);
    batch_inv_std_[static_cast<std::size_t>(c)] =
        static_cast<float>(1.0 / std::sqrt(var + eps_));
    running_mean_[c] =
        (1.0f - momentum_) * running_mean_[c] + momentum_ * static_cast<float>(m);
    running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                      momentum_ * static_cast<float>(var * count / (count - 1));
  }

  cached_input_ = x;
  cached_norm_ = Tensor(x.shape());
  for (int s = 0; s < v.n; ++s) {
    for (int c = 0; c < v.c; ++c) {
      const float m = batch_mean_[static_cast<std::size_t>(c)];
      const float inv = batch_inv_std_[static_cast<std::size_t>(c)];
      const float g = gamma_[c], b = beta_[c];
      const float* xin =
          x.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      float* nrm =
          cached_norm_.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      float* out = y.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      for (int i = 0; i < v.hw; ++i) {
        nrm[i] = (xin[i] - m) * inv;
        out[i] = nrm[i] * g + b;
      }
    }
  }
  return y;
}

Tensor BatchNorm::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(),
                "BatchNorm '" << name() << "' backward without forward(train)");
  const NchwView v = view_of(cached_input_.shape(), channels_);
  RRP_CHECK(grad_out.shape() == cached_input_.shape());
  Tensor grad_in(cached_input_.shape());
  const double count = static_cast<double>(v.n) * v.hw;

  for (int c = 0; c < v.c; ++c) {
    // Accumulate the two per-channel reductions the BN gradient needs.
    double sum_g = 0.0, sum_gx = 0.0;
    for (int s = 0; s < v.n; ++s) {
      const float* g =
          grad_out.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* nrm =
          cached_norm_.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      for (int i = 0; i < v.hw; ++i) {
        sum_g += g[i];
        sum_gx += static_cast<double>(g[i]) * nrm[i];
      }
    }
    beta_grad_[c] += static_cast<float>(sum_g);
    gamma_grad_[c] += static_cast<float>(sum_gx);

    const float inv = batch_inv_std_[static_cast<std::size_t>(c)];
    const float gamma = gamma_[c];
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gx = static_cast<float>(sum_gx / count);
    for (int s = 0; s < v.n; ++s) {
      const float* g =
          grad_out.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* nrm =
          cached_norm_.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      float* gi =
          grad_in.raw() + (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      for (int i = 0; i < v.hw; ++i)
        gi[i] = gamma * inv * (g[i] - mean_g - nrm[i] * mean_gx);
    }
  }
  return grad_in;
}

// rrp-frame-path-stop: bounded param-view collector (see Network::params).
std::vector<ParamRef> BatchNorm::params() {
  return {{name() + ".gamma", &gamma_, &gamma_grad_},
          {name() + ".beta", &beta_, &beta_grad_}};
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto c = std::make_unique<BatchNorm>(name(), channels_, momentum_, eps_);
  c->gamma_ = gamma_;
  c->beta_ = beta_;
  c->running_mean_ = running_mean_;
  c->running_var_ = running_var_;
  return c;
}

}  // namespace rrp::nn
