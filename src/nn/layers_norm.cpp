#include <cmath>

#include "nn/gemm_kernels.h"
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

namespace {

// Sum and sum of squares of one channel over every (sample, pixel), in
// that order: the form of kernels::channel_moments for a channel left over
// after the last full group of kMomentLanes.
void channel_moments_one(const float* x, const NchwView& v, int c,
                         double* sum, double* sq) {
  double s = 0.0, q = 0.0;
  for (int n = 0; n < v.n; ++n) {
    const float* plane = x + (static_cast<std::int64_t>(n) * v.c + c) * v.hw;
    for (int i = 0; i < v.hw; ++i) {
      const double e = plane[i];
      s += e;
      q += e * e;
    }
  }
  *sum = s;
  *sq = q;
}

}  // namespace

// The one batch-statistics pass: training forward and BN calibration both
// run it.  batch_mean_ / batch_inv_std_ stay behind for backward.
void BatchNorm::forward_batch_into(const float* x, const Shape& in, float* y) {
  const NchwView v = view_of(in, channels_);
  const double count = static_cast<double>(v.n) * v.hw;
  RRP_CHECK_MSG(count > 1, "BatchNorm training needs more than one value");
  batch_mean_.resize(static_cast<std::size_t>(v.c));
  batch_inv_std_.resize(static_cast<std::size_t>(v.c));
  using kernels::kMomentLanes;
  static const kernels::ChannelMomentsFn moments =
      kernels::active_channel_moments();
  const std::int64_t sample_stride = static_cast<std::int64_t>(v.c) * v.hw;
  double sum[kMomentLanes], sq[kMomentLanes];
  for (int c0 = 0; c0 < v.c;) {
    const int lanes = v.c - c0 >= kMomentLanes ? kMomentLanes : 1;
    if (lanes == kMomentLanes)
      moments(x + static_cast<std::int64_t>(c0) * v.hw, v.n, sample_stride,
              v.hw, sum, sq);
    else
      channel_moments_one(x, v, c0, sum, sq);
    for (int l = 0; l < lanes; ++l) {
      const int c = c0 + l;
      const double m = sum[l] / count;
      const double var = sq[l] / count - m * m;
      batch_mean_[static_cast<std::size_t>(c)] = static_cast<float>(m);
      batch_inv_std_[static_cast<std::size_t>(c)] =
          static_cast<float>(1.0 / std::sqrt(var + eps_));
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(m);
      running_var_[c] =
          (1.0f - momentum_) * running_var_[c] +
          momentum_ * static_cast<float>(var * count / (count - 1));
    }
    c0 += lanes;
  }

  for (int s = 0; s < v.n; ++s) {
    for (int c = 0; c < v.c; ++c) {
      const float m = batch_mean_[static_cast<std::size_t>(c)];
      const float inv = batch_inv_std_[static_cast<std::size_t>(c)];
      const float g = gamma_[c], b = beta_[c];
      const std::int64_t off = (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* src = x + off;
      float* dst = y + off;
      for (int i = 0; i < v.hw; ++i) {
        const float nrm = (src[i] - m) * inv;
        dst[i] = nrm * g + b;
      }
    }
  }
}

Tensor BatchNorm::forward(const Tensor& x, bool training) {
  if (!training) return forward_eval(x);
  Tensor y(x.shape());
  forward_batch_into(x.raw(), x.shape(), y.raw());
  cached_input_ = x;  // backward recomputes (x - m) * inv from it
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
    // The forward's normalized value, (x - m) * inv, recomputed bit for bit.
    const float m = batch_mean_[static_cast<std::size_t>(c)];
    const float inv = batch_inv_std_[static_cast<std::size_t>(c)];
    // Accumulate the two per-channel reductions the BN gradient needs.
    double sum_g = 0.0, sum_gx = 0.0;
    for (int s = 0; s < v.n; ++s) {
      const std::int64_t off = (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* g = grad_out.raw() + off;
      const float* xin = cached_input_.raw() + off;
      for (int i = 0; i < v.hw; ++i) {
        const float nrm = (xin[i] - m) * inv;
        sum_g += g[i];
        sum_gx += static_cast<double>(g[i]) * nrm;
      }
    }
    beta_grad_[c] += static_cast<float>(sum_g);
    gamma_grad_[c] += static_cast<float>(sum_gx);

    const float gamma = gamma_[c];
    const float mean_g = static_cast<float>(sum_g / count);
    const float mean_gx = static_cast<float>(sum_gx / count);
    for (int s = 0; s < v.n; ++s) {
      const std::int64_t off = (static_cast<std::int64_t>(s) * v.c + c) * v.hw;
      const float* g = grad_out.raw() + off;
      const float* xin = cached_input_.raw() + off;
      float* gi = grad_in.raw() + off;
      for (int i = 0; i < v.hw; ++i) {
        const float nrm = (xin[i] - m) * inv;
        gi[i] = gamma * inv * (g[i] - mean_g - nrm * mean_gx);
      }
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
