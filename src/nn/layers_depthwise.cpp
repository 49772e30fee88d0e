#include "nn/layers.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp::nn {

DepthwiseConv2D::DepthwiseConv2D(std::string name, int channels, int kernel,
                                 int stride, int padding, bool with_bias)
    : Layer(std::move(name)),
      channels_(channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      with_bias_(with_bias),
      weight_({channels, 1, kernel, kernel}),
      bias_(with_bias ? Tensor({channels}) : Tensor()),
      weight_grad_({channels, 1, kernel, kernel}),
      bias_grad_(with_bias ? Tensor({channels}) : Tensor()) {
  RRP_CHECK(channels > 0 && kernel > 0 && stride > 0 && padding >= 0);
}

std::pair<int, int> DepthwiseConv2D::out_hw(int h, int w) const {
  const int oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const int ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  RRP_CHECK_MSG(oh > 0 && ow > 0, "DepthwiseConv2D '" << name() << "' input "
                                                      << h << "x" << w
                                                      << " too small");
  return {oh, ow};
}

Tensor DepthwiseConv2D::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_input_ = x;
  return y;
}

namespace {

// Everything a depthwise plane chunk reads: the parallel_for body captures
// one pointer to it, so its std::function stays in the small-object buffer.
struct DepthwisePlanes {
  const float* x;
  const float* weight;
  const float* bias;  // nullptr without bias
  float* y;
  int channels, kernel, stride, padding;
  int h, w, oh, ow;
};

}  // namespace

// rrp-frame-path: direct depthwise conv loop on the per-frame path.
void DepthwiseConv2D::forward_into(const float* x, const Shape& in, float* y,
                                   float* scratch) const {
  (void)scratch;
  RRP_CHECK_MSG(in.size() == 4 && in[1] == channels_,
                "DepthwiseConv2D '" << name() << "' expects [N, " << channels_
                                    << ", H, W], got " << shape_str(in));
  const int n = in[0], h = in[2], w = in[3];
  const auto [oh, ow] = out_hw(h, w);
  const int kk = kernel_;
  static metrics::Counter& calls = metrics::counter("depthwise.calls");
  static metrics::Counter& flops = metrics::counter("depthwise.flops");
  const std::int64_t fma = static_cast<std::int64_t>(n) * channels_ * oh * ow *
                           kk * kk;  // upper bound; padding skips some taps
  calls.add(1);
  flops.add(fma);
  RRP_SPAN_VAR(span, "depthwise.forward");
  span.add_items(fma);

  // Every (sample, channel) plane is independent: parallelize the flat
  // n*channels grid over the pool (disjoint output planes, bit-exact for
  // any thread count).
  const float* bias = with_bias_ ? bias_.raw() : nullptr;
  const DepthwisePlanes args{x,  weight_.raw(), bias, y, channels_, kk,
                             stride_, padding_, h, w, oh, ow};
  parallel_for(
      0, static_cast<std::int64_t>(n) * channels_, 1,
      [a = &args](std::int64_t p_begin, std::int64_t p_end) {
        const int kk = a->kernel, h = a->h, w = a->w, oh = a->oh, ow = a->ow;
        for (std::int64_t p = p_begin; p < p_end; ++p) {
          const std::int64_t s = p / a->channels;
          const int c = static_cast<int>(p % a->channels);
          const float* plane = a->x + (s * a->channels + c) * h * w;
          const float* filter =
              a->weight + static_cast<std::int64_t>(c) * kk * kk;
          float* out = a->y + (s * a->channels + c) * oh * ow;
          const float b = a->bias != nullptr ? a->bias[c] : 0.0f;
          for (int oi = 0; oi < oh; ++oi) {
            for (int oj = 0; oj < ow; ++oj) {
              double acc = b;
              for (int ki = 0; ki < kk; ++ki) {
                const int ii = oi * a->stride - a->padding + ki;
                if (ii < 0 || ii >= h) continue;
                for (int kj = 0; kj < kk; ++kj) {
                  const int jj = oj * a->stride - a->padding + kj;
                  if (jj < 0 || jj >= w) continue;
                  acc += static_cast<double>(filter[ki * kk + kj]) *
                         plane[static_cast<std::int64_t>(ii) * w + jj];
                }
              }
              out[static_cast<std::int64_t>(oi) * ow + oj] =
                  static_cast<float>(acc);
            }
          }
        }
      });
}

Tensor DepthwiseConv2D::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(), "DepthwiseConv2D '"
                                            << name()
                                            << "' backward without "
                                               "forward(train)");
  const Tensor& x = cached_input_;
  const int n = x.size(0), h = x.size(2), w = x.size(3);
  const auto [oh, ow] = out_hw(h, w);
  RRP_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n &&
            grad_out.size(1) == channels_ && grad_out.size(2) == oh &&
            grad_out.size(3) == ow);

  Tensor grad_in(x.shape());
  const int kk = kernel_;
  // Channel c owns wgrad/bias slot c and its grad_in planes across all
  // samples, so channels parallelize with no shared writes.  The sample
  // loop stays innermost and ascending: per-channel gradient accumulation
  // order matches the serial engine exactly (the legacy s-outer / c-inner
  // nest visits each (s, c) block in the same s order per channel).
  parallel_for(0, channels_, 1, [&](std::int64_t c_begin, std::int64_t c_end) {
    for (std::int64_t c = c_begin; c < c_end; ++c) {
      const float* filter = weight_.raw() + c * kk * kk;
      float* wgrad = weight_grad_.raw() + c * kk * kk;
      for (int s = 0; s < n; ++s) {
        const float* plane =
            x.raw() + (static_cast<std::int64_t>(s) * channels_ + c) * h * w;
        const float* gout =
            grad_out.raw() +
            (static_cast<std::int64_t>(s) * channels_ + c) * oh * ow;
        float* gin = grad_in.raw() +
                     (static_cast<std::int64_t>(s) * channels_ + c) * h * w;

        double bias_acc = 0.0;
        for (int oi = 0; oi < oh; ++oi) {
          for (int oj = 0; oj < ow; ++oj) {
            const float g = gout[static_cast<std::int64_t>(oi) * ow + oj];
            if (g == 0.0f) continue;
            bias_acc += g;
            for (int ki = 0; ki < kk; ++ki) {
              const int ii = oi * stride_ - padding_ + ki;
              if (ii < 0 || ii >= h) continue;
              for (int kj = 0; kj < kk; ++kj) {
                const int jj = oj * stride_ - padding_ + kj;
                if (jj < 0 || jj >= w) continue;
                wgrad[ki * kk + kj] +=
                    g * plane[static_cast<std::int64_t>(ii) * w + jj];
                gin[static_cast<std::int64_t>(ii) * w + jj] +=
                    g * filter[ki * kk + kj];
              }
            }
          }
        }
        if (with_bias_) bias_grad_[c] += static_cast<float>(bias_acc);
      }
    }
  });
  return grad_in;
}

// rrp-frame-path-stop: bounded param-view collector (see Network::params).
std::vector<ParamRef> DepthwiseConv2D::params() {
  std::vector<ParamRef> p;
  p.push_back({name() + ".weight", &weight_, &weight_grad_});
  if (with_bias_) p.push_back({name() + ".bias", &bias_, &bias_grad_});
  return p;
}

Shape DepthwiseConv2D::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4 && in[1] == channels_);
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return {in[0], channels_, oh, ow};
}

std::int64_t DepthwiseConv2D::macs(const Shape& in) const {
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return static_cast<std::int64_t>(channels_) * kernel_ * kernel_ * oh * ow;
}

std::int64_t DepthwiseConv2D::effective_macs(const Shape& in) const {
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return count_nonzero(weight_.raw(), weight_.numel()) *
         static_cast<std::int64_t>(oh) * ow;
}

std::unique_ptr<Layer> DepthwiseConv2D::clone() const {
  auto c = std::make_unique<DepthwiseConv2D>(name(), channels_, kernel_,
                                             stride_, padding_, with_bias_);
  c->weight_ = weight_;
  if (with_bias_) c->bias_ = bias_;
  c->out_prunable_ = out_prunable_;
  return c;
}

}  // namespace rrp::nn
