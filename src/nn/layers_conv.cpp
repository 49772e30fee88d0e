#include <algorithm>
#include <tuple>

#include "nn/gemm.h"
#include "nn/layers.h"
#include "util/checks.h"
#include "util/metrics.h"
#include "util/thread_pool.h"
#include "util/trace.h"

namespace rrp::nn {

Conv2D::Conv2D(std::string name, int in_ch, int out_ch, int kernel, int stride,
               int padding, bool with_bias)
    : Layer(std::move(name)),
      in_ch_(in_ch),
      out_ch_(out_ch),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      with_bias_(with_bias),
      weight_({out_ch, in_ch, kernel, kernel}),
      bias_(with_bias ? Tensor({out_ch}) : Tensor()),
      weight_grad_({out_ch, in_ch, kernel, kernel}),
      bias_grad_(with_bias ? Tensor({out_ch}) : Tensor()) {
  RRP_CHECK(in_ch > 0 && out_ch > 0 && kernel > 0 && stride > 0 &&
            padding >= 0);
  // The eval forward's liveness lists hold channel indices as floats.
  RRP_CHECK(in_ch <= (1 << 24) && out_ch <= (1 << 24));
}

std::pair<int, int> Conv2D::out_hw(int h, int w) const {
  const int oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const int ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  RRP_CHECK_MSG(oh > 0 && ow > 0, "Conv2D '" << name() << "' input " << h
                                             << "x" << w << " too small");
  return {oh, ow};
}

namespace {

// Output positions o in [0, out) whose input coordinate o*stride + offset
// lands inside [0, extent); the rest read the zero padding.
std::pair<int, int> valid_range(int offset, int stride, int extent, int out) {
  const int lo = offset >= 0 ? 0 : (-offset + stride - 1) / stride;
  const int last = extent - 1 - offset;  // largest in-bounds o * stride
  const int hi = last < 0 ? 0 : last / stride + 1;
  return {std::min(lo, out), std::clamp(hi, std::min(lo, out), out)};
}

}  // namespace

// Unrolls one sample's input [in_ch, h, w] into col [in_ch*k*k, oh*ow].
// The in-bounds output range is found once per (c, ki, kj), so the inner
// loops are a plain (strided) copy between zeroed padding edges.
void Conv2D::im2col(const float* src, int h, int w, float* col) const {
  const auto [oh, ow] = out_hw(h, w);
  const int k = kernel_;
  float* out = col;
  for (int c = 0; c < in_ch_; ++c) {
    const float* plane = src + static_cast<std::int64_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      const auto [ilo, ihi] = valid_range(ki - padding_, stride_, h, oh);
      for (int kj = 0; kj < k; ++kj) {
        const int off = kj - padding_;
        const auto [jlo, jhi] = valid_range(off, stride_, w, ow);
        std::fill(out, out + static_cast<std::int64_t>(ilo) * ow, 0.0f);
        out += static_cast<std::int64_t>(ilo) * ow;
        for (int oi = ilo; oi < ihi; ++oi, out += ow) {
          const int ii = oi * stride_ - padding_ + ki;
          const float* srow = plane + static_cast<std::int64_t>(ii) * w;
          std::fill(out, out + jlo, 0.0f);
          if (stride_ == 1) {
            std::copy(srow + jlo + off, srow + jhi + off, out + jlo);
          } else {
            for (int oj = jlo; oj < jhi; ++oj)
              out[oj] = srow[oj * stride_ + off];
          }
          std::fill(out + jhi, out + ow, 0.0f);
        }
        const std::int64_t tail = static_cast<std::int64_t>(oh - ihi) * ow;
        std::fill(out, out + tail, 0.0f);
        out += tail;
      }
    }
  }
}

// Scatters col gradients [in_ch*k*k, oh*ow] back into [in_ch, h, w].
void Conv2D::col2im(const float* col, int h, int w, float* dst) const {
  const auto [oh, ow] = out_hw(h, w);
  const int k = kernel_;
  std::int64_t row = 0;
  for (int c = 0; c < in_ch_; ++c) {
    float* plane = dst + static_cast<std::int64_t>(c) * h * w;
    for (int ki = 0; ki < k; ++ki) {
      for (int kj = 0; kj < k; ++kj, ++row) {
        const float* in = col + row * static_cast<std::int64_t>(oh) * ow;
        for (int oi = 0; oi < oh; ++oi) {
          const int ii = oi * stride_ - padding_ + ki;
          if (ii < 0 || ii >= h) continue;
          float* drow = plane + static_cast<std::int64_t>(ii) * w;
          const float* irow = in + static_cast<std::int64_t>(oi) * ow;
          for (int oj = 0; oj < ow; ++oj) {
            const int jj = oj * stride_ - padding_ + kj;
            if (jj >= 0 && jj < w) drow[jj] += irow[oj];
          }
        }
      }
    }
  }
}

Tensor Conv2D::forward(const Tensor& x, bool training) {
  Tensor y = forward_eval(x);
  if (training) cached_input_ = x;
  return y;
}

namespace {

// Padded-sample slots of one conv call: at most this many threads take its
// sample chunks, each through the slot of its ThreadPool::chunk_slot(), so
// a batch of N needs min(N, kConvSlots) slots, not N.
constexpr std::int64_t kConvSlots = 8;

// Everything a conv sample chunk reads: the parallel_for body captures one
// pointer to it, so its std::function stays in the small-object buffer.
struct ConvSamples {
  const Conv2D* conv;
  const float* x;
  float* y;
  float* slots;  // padded samples, one per chunk_slot(); null: no padding
  int h, w;
  std::int64_t slot_floats;
  ConvGemm g;  // everything but the sample's xp and c
};

}  // namespace

// Scratch layout: BN scale and shift (out_ch each), the live-row list
// (out_ch), the live-channel runs (in_ch + 1), then the padded-sample slots.
std::int64_t Conv2D::scratch_floats(const Shape& in) const {
  const std::int64_t fixed = 3 * out_ch_ + in_ch_ + 1;
  if (padding_ == 0) return fixed;
  const std::int64_t slot = static_cast<std::int64_t>(in_ch_) *
                            (in[2] + 2 * padding_) * (in[3] + 2 * padding_);
  return fixed + std::min<std::int64_t>(in[0], kConvSlots) * slot;
}

// Copies one sample [in_ch, h, w] into dst [in_ch, h+2p, w+2p] with zeroed
// borders (every border float is written: the slot is reused arena).
void Conv2D::pad_into(const float* src, int h, int w, float* dst) const {
  const int p = padding_, wp = w + 2 * p;
  for (int c = 0; c < in_ch_; ++c) {
    std::fill(dst, dst + p * wp + p, 0.0f);  // top rows, first left edge
    dst += p * wp + p;
    for (int r = 0; r < h; ++r, src += w) {
      dst = std::copy(src, src + w, dst);
      // right edge of this row, left edge of the next
      std::fill(dst, dst + 2 * p, 0.0f);
      dst += 2 * p;
    }
    std::fill(dst, dst + p * wp - p, 0.0f);  // bottom rows
    dst += p * wp - p;
  }
}

void Conv2D::forward_into(const float* x, const Shape& in, float* y,
                          float* scratch) const {
  forward_fused_into(x, in, y, scratch, StepFusion{});
}

// rrp-frame-path: implicit-GEMM conv — the dominant per-frame inference cost.
void Conv2D::forward_fused_into(const float* x, const Shape& in, float* y,
                                float* scratch,
                                const StepFusion& fuse) const {
  RRP_CHECK_MSG(in.size() == 4 && in[1] == in_ch_,
                "Conv2D '" << name() << "' expects [N, " << in_ch_
                           << ", H, W], got " << shape_str(in));
  const int n = in[0], h = in[2], w = in[3];
  const auto [oh, ow] = out_hw(h, w);

  static metrics::Counter& calls = metrics::counter("conv.calls");
  calls.add(1);
  RRP_SPAN_VAR(span, "conv.forward");
  span.add_items(static_cast<std::int64_t>(n) * out_ch_ * in_ch_ * kernel_ *
                 kernel_ * oh * ow);  // implicit-GEMM FMAs

  // The fused BatchNorm's per-channel affine, from its live statistics.
  float* scale = scratch;
  float* shift = scratch + out_ch_;
  if (fuse.bn != nullptr)
    for (int c = 0; c < out_ch_; ++c)
      std::tie(scale[c], shift[c]) = fuse.bn->eval_affine(c);

  ConvSamples args{this, x, y, nullptr, h, w, 0, {}};
  if (padding_ > 0) {
    args.slots = scratch + 3 * out_ch_ + in_ch_ + 1;
    args.slot_floats = static_cast<std::int64_t>(in_ch_) * (h + 2 * padding_) *
                       (w + 2 * padding_);
  }
  ConvGemm& g = args.g;
  g.a = weight_.raw();
  g.lda = static_cast<std::int64_t>(in_ch_) * kernel_ * kernel_;
  g.cin = in_ch_;
  g.kernel = kernel_;
  g.stride = stride_;
  g.hp = h + 2 * padding_;
  g.wp = w + 2 * padding_;
  g.oh = oh;
  g.ow = ow;
  g.bias = with_bias_ ? bias_.raw() : nullptr;
  g.scale = fuse.bn != nullptr ? scale : nullptr;
  g.shift = shift;
  g.relu = fuse.relu;
  g.ldc = static_cast<std::int64_t>(oh) * ow;
  // Liveness from the weights as they are now (a fault in a pruned slot
  // makes its row and channel live until repair), shared by every sample.
  conv_liveness(out_ch_, g, scratch + 2 * out_ch_, scratch + 3 * out_ch_);
  // Samples write disjoint output planes: fan the batch out over the pool
  // (each taking thread pads into its own slot; nested GEMMs stay serial).
  const auto body = [a = &args](std::int64_t s_begin, std::int64_t s_end) {
    const Conv2D& conv = *a->conv;
    const std::int64_t in_plane =
        static_cast<std::int64_t>(conv.in_ch_) * a->h * a->w;
    float* slot = a->slots + ThreadPool::chunk_slot() * a->slot_floats;
    ConvGemm g = a->g;
    for (std::int64_t s = s_begin; s < s_end; ++s) {
      const float* sample = a->x + s * in_plane;
      if (a->slots != nullptr) conv.pad_into(sample, a->h, a->w, slot);
      g.xp = a->slots != nullptr ? slot : sample;
      g.c = a->y + s * conv.out_ch_ * g.ldc;
      conv_gemm(conv.out_ch_, g);
    }
  };
  parallel_for(0, n, 1, body,
               static_cast<int>(std::min<std::int64_t>(n, kConvSlots)));
}

Tensor Conv2D::backward(const Tensor& grad_out) {
  RRP_CHECK_MSG(!cached_input_.empty(),
                "Conv2D '" << name() << "' backward without forward(train)");
  const Tensor& x = cached_input_;
  const int n = x.size(0), h = x.size(2), w = x.size(3);
  const auto [oh, ow] = out_hw(h, w);
  RRP_CHECK(grad_out.dim() == 4 && grad_out.size(0) == n &&
            grad_out.size(1) == out_ch_ && grad_out.size(2) == oh &&
            grad_out.size(3) == ow);

  const std::int64_t col_rows = static_cast<std::int64_t>(in_ch_) * kernel_ *
                                kernel_;
  const std::int64_t col_cols = static_cast<std::int64_t>(oh) * ow;

  Tensor grad_in(x.shape());
  // Per-sample weight/bias gradients land in private slices first; the
  // cross-sample reduction below runs serially in ascending sample order,
  // so the accumulated gradients match the serial engine bit-for-bit for
  // any thread count (float addition into weight_grad_ is per-element and
  // commutative between the two orderings involved).
  const std::int64_t wsize = weight_grad_.numel();
  std::vector<float> dw(static_cast<std::size_t>(n * wsize));
  std::vector<float> dbias(
      with_bias_ ? static_cast<std::size_t>(n) * out_ch_ : 0);

  parallel_for(0, n, 1, [&](std::int64_t s_begin, std::int64_t s_end) {
    std::vector<float> col(static_cast<std::size_t>(col_rows * col_cols));
    std::vector<float> col_grad(static_cast<std::size_t>(col_rows * col_cols));
    for (std::int64_t s = s_begin; s < s_end; ++s) {
      const float* src = x.raw() + s * in_ch_ * h * w;
      const float* gout = grad_out.raw() + s * out_ch_ * col_cols;

      // dW_s[out_ch, col_rows] = gout[out_ch, col_cols] * col^T
      im2col(src, h, w, col.data());
      gemm_bt(out_ch_, col_rows, col_cols, 1.0f, gout, col_cols, col.data(),
              col_cols, 0.0f, dw.data() + s * wsize, col_rows);

      if (with_bias_) {
        for (int c = 0; c < out_ch_; ++c) {
          const float* plane = gout + static_cast<std::int64_t>(c) * col_cols;
          double acc = 0.0;
          for (std::int64_t i = 0; i < col_cols; ++i) acc += plane[i];
          dbias[static_cast<std::size_t>(s * out_ch_ + c)] =
              static_cast<float>(acc);
        }
      }

      // dcol[col_rows, col_cols] = W^T[col_rows, out_ch] * gout
      gemm_at(col_rows, col_cols, out_ch_, 1.0f, weight_.raw(), col_rows,
              gout, col_cols, 0.0f, col_grad.data(), col_cols);
      float* gin = grad_in.raw() + s * in_ch_ * h * w;
      col2im(col_grad.data(), h, w, gin);
    }
  });

  for (std::int64_t s = 0; s < n; ++s) {
    const float* dws = dw.data() + s * wsize;
    float* wg = weight_grad_.raw();
    for (std::int64_t i = 0; i < wsize; ++i) wg[i] += dws[i];
    if (with_bias_)
      for (int c = 0; c < out_ch_; ++c)
        bias_grad_[c] += dbias[static_cast<std::size_t>(s * out_ch_ + c)];
  }
  return grad_in;
}

// rrp-frame-path-stop: bounded param-view collector (see Network::params).
std::vector<ParamRef> Conv2D::params() {
  std::vector<ParamRef> p;
  p.push_back({name() + ".weight", &weight_, &weight_grad_});
  if (with_bias_) p.push_back({name() + ".bias", &bias_, &bias_grad_});
  return p;
}

Shape Conv2D::output_shape(const Shape& in) const {
  RRP_CHECK(in.size() == 4 && in[1] == in_ch_);
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return {in[0], out_ch_, oh, ow};
}

std::int64_t Conv2D::macs(const Shape& in) const {
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return static_cast<std::int64_t>(out_ch_) * in_ch_ * kernel_ * kernel_ * oh *
         ow;
}

std::int64_t Conv2D::effective_macs(const Shape& in) const {
  const auto [oh, ow] = out_hw(in[2], in[3]);
  return count_nonzero(weight_.raw(), weight_.numel()) *
         static_cast<std::int64_t>(oh) * ow;
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto c = std::make_unique<Conv2D>(name(), in_ch_, out_ch_, kernel_, stride_,
                                    padding_, with_bias_);
  c->weight_ = weight_;
  if (with_bias_) c->bias_ = bias_;
  c->out_prunable_ = out_prunable_;
  return c;
}

}  // namespace rrp::nn
