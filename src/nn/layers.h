// layers.h — concrete layer types of the rrp engine.
//
// Weight layouts:
//   Linear : weight [out_features, in_features], bias [out_features]
//   Conv2D : weight [out_ch, in_ch, kh, kw],     bias [out_ch]
// Structured pruning removes *output* rows/filters; the `out_prunable`
// flag marks layers whose output channels may be structurally pruned
// (false for residual-block-final convs and the classifier head, whose
// widths are pinned by the network topology / label count).
#pragma once


#include "nn/layer.h"

namespace rrp::nn {

/// Fully-connected layer: y = x W^T + b.
class Linear : public Layer {
 public:
  Linear(std::string name, int in_features, int out_features,
         bool with_bias = true);

  LayerKind kind() const override { return LayerKind::Linear; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  /// forward_into with the bias and, when `relu`, a following ReLU
  /// applied in gemm_bt's store (bit-identical to the separate passes).
  void forward_fused_into(const float* x, const Shape& in, float* y,
                          bool relu) const;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;
  std::int64_t effective_macs(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }
  bool with_bias() const { return with_bias_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  bool out_prunable() const { return out_prunable_; }
  void set_out_prunable(bool p) { out_prunable_ = p; }

 private:
  int in_features_;
  int out_features_;
  bool with_bias_;
  bool out_prunable_ = true;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

class BatchNorm;

/// The layers a planned Conv2D or Linear step folds into its store
/// (nn/infer_plan.h): a following BatchNorm (eval; Conv2D only) and/or
/// ReLU.
struct StepFusion {
  const BatchNorm* bn = nullptr;
  bool relu = false;
};

/// 2-D convolution (NCHW).  The eval forward is an implicit GEMM
/// (nn/gemm.h conv_gemm) over a zero-padded copy of each sample; there is
/// no im2col buffer.  Caller scratch holds 2*out_ch floats for a fused
/// BatchNorm's scale and shift, out_ch + in_ch + 1 floats for the
/// per-call live-row list and live-channel runs (nn/gemm.h
/// conv_liveness), then min(N, 8) padded [in_ch, h+2p, w+2p] slots, one
/// per pool chunk slot (none when padding is 0: the input is read in
/// place).  im2col/col2im serve the training backward only.
class Conv2D : public Layer {
 public:
  Conv2D(std::string name, int in_ch, int out_ch, int kernel, int stride = 1,
         int padding = 0, bool with_bias = true);

  LayerKind kind() const override { return LayerKind::Conv2D; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  std::int64_t scratch_floats(const Shape& in) const override;
  /// forward_into with the layers in `fuse` applied as each tile is
  /// stored; equals forward_into followed by those layers bit for bit.
  /// Reads the BatchNorm's running statistics at every call.
  void forward_fused_into(const float* x, const Shape& in, float* y,
                          float* scratch, const StepFusion& fuse) const;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;
  std::int64_t effective_macs(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int in_channels() const { return in_ch_; }
  int out_channels() const { return out_ch_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }
  bool with_bias() const { return with_bias_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  bool out_prunable() const { return out_prunable_; }
  void set_out_prunable(bool p) { out_prunable_ = p; }

  /// Spatial output extents for the given input extents.
  std::pair<int, int> out_hw(int h, int w) const;

 private:
  void pad_into(const float* src, int h, int w, float* dst) const;
  void im2col(const float* src, int h, int w, float* col) const;
  void col2im(const float* col, int h, int w, float* dst) const;

  int in_ch_, out_ch_, kernel_, stride_, padding_;
  bool with_bias_;
  bool out_prunable_ = true;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

/// Depthwise 2-D convolution (NCHW): channel c of the output is channel c
/// of the input convolved with its own k×k filter (multiplier 1).  Weight
/// layout [channels, 1, k, k].  Pruning couples input and output: a pruned
/// channel disappears from BOTH sides, which the mask lowering and the
/// compactor honor (out_live = in_live AND keep).
class DepthwiseConv2D : public Layer {
 public:
  DepthwiseConv2D(std::string name, int channels, int kernel, int stride = 1,
                  int padding = 0, bool with_bias = true);

  LayerKind kind() const override { return LayerKind::DepthwiseConv2D; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;
  std::int64_t effective_macs(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int channels() const { return channels_; }
  int kernel() const { return kernel_; }
  int stride() const { return stride_; }
  int padding() const { return padding_; }
  bool with_bias() const { return with_bias_; }
  Tensor& weight() { return weight_; }
  const Tensor& weight() const { return weight_; }
  Tensor& bias() { return bias_; }
  const Tensor& bias() const { return bias_; }

  bool out_prunable() const { return out_prunable_; }
  void set_out_prunable(bool p) { out_prunable_ = p; }

  std::pair<int, int> out_hw(int h, int w) const;

 private:
  int channels_, kernel_, stride_, padding_;
  bool with_bias_;
  bool out_prunable_ = true;
  Tensor weight_, bias_;
  Tensor weight_grad_, bias_grad_;
  Tensor cached_input_;
};

/// Element-wise rectifier.
class ReLU : public Layer {
 public:
  explicit ReLU(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::ReLU; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  bool in_place() const override { return true; }
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_input_;
};

/// Row-wise softmax over the last dimension (inference only).
class Softmax : public Layer {
 public:
  explicit Softmax(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::Softmax; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  bool in_place() const override { return true; }
  Shape output_shape(const Shape& in) const override { return in; }
  std::unique_ptr<Layer> clone() const override;
};

/// Collapses [N, C, H, W] (or any rank >= 2) to [N, rest].
class Flatten : public Layer {
 public:
  explicit Flatten(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::Flatten; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  bool in_place() const override { return true; }
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_in_shape_;
};

/// Max pooling with square window.
class MaxPool : public Layer {
 public:
  MaxPool(std::string name, int kernel, int stride);
  LayerKind kind() const override { return LayerKind::MaxPool; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int kernel() const { return kernel_; }
  int stride() const { return stride_; }

 private:
  int kernel_, stride_;
  Shape cached_in_shape_;
  std::vector<std::int64_t> argmax_;  // flat source index per output element
};

/// Average pooling with square window.
class AvgPool : public Layer {
 public:
  AvgPool(std::string name, int kernel, int stride);
  LayerKind kind() const override { return LayerKind::AvgPool; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  int kernel() const { return kernel_; }
  int stride() const { return stride_; }

 private:
  int kernel_, stride_;
  Shape cached_in_shape_;
};

/// Global average pooling: [N, C, H, W] -> [N, C].
class GlobalAvgPool : public Layer {
 public:
  explicit GlobalAvgPool(std::string name) : Layer(std::move(name)) {}
  LayerKind kind() const override { return LayerKind::GlobalAvgPool; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_in_shape_;
};

/// Per-channel batch normalization over [N, C, H, W] or [N, C].
class BatchNorm : public Layer {
 public:
  BatchNorm(std::string name, int channels, float momentum = 0.1f,
            float eps = 1e-5f);
  LayerKind kind() const override { return LayerKind::BatchNorm; }
  Tensor forward(const Tensor& x, bool training) override;
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  bool in_place() const override { return true; }
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::unique_ptr<Layer> clone() const override;

  int channels() const { return channels_; }
  float momentum() const { return momentum_; }
  float eps() const { return eps_; }
  Tensor& gamma() { return gamma_; }
  Tensor& beta() { return beta_; }
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }
  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }

  /// Eval-mode affine of channel `c` from the running statistics:
  /// y = x * scale + shift, returned as {scale, shift}.
  std::pair<float, float> eval_affine(int c) const;

  /// Training-mode normalization: normalizes `x` (shape `in`) with its
  /// batch statistics into `y` (which may equal `x`) and moves the running
  /// statistics.  forward(x, true) is this plus the input cache backward
  /// needs; BN calibration runs it alone (core/bn_calibration.h).
  void forward_batch_into(const float* x, const Shape& in, float* y);

 private:
  int channels_;
  float momentum_, eps_;
  Tensor gamma_, beta_, gamma_grad_, beta_grad_;
  Tensor running_mean_, running_var_;
  // training-time caches
  Tensor cached_input_;
  std::vector<float> batch_mean_, batch_inv_std_;
};

}  // namespace rrp::nn
