// layer.h — abstract layer interface for the rrp inference/training engine.
//
// Layers are stateful objects owning their parameters and (for training)
// gradients and forward caches.  The pruning runtime manipulates parameter
// storage directly through ParamRef, which is why parameters are plain
// Tensors rather than opaque handles.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"

namespace rrp::nn {

/// Closed set of layer kinds; used by serialization and the pruning planner.
enum class LayerKind {
  Linear,
  Conv2D,
  ReLU,
  MaxPool,
  AvgPool,
  GlobalAvgPool,
  BatchNorm,
  Softmax,
  Flatten,
  Residual,
  DepthwiseConv2D,
};

/// Stable string form of a LayerKind (used in serialization and reports).
const char* layer_kind_name(LayerKind kind);

/// Non-owning reference to one named parameter tensor and its gradient.
struct ParamRef {
  std::string name;   ///< hierarchical, e.g. "block1.conv2.weight"
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Abstract base for all layers.
///
/// Contract:
///  * forward_into is THE eval-mode implementation of every layer; it
///    writes into caller memory and allocates nothing, so a planned
///    network (nn/infer_plan.h) runs without touching the heap.
///  * forward(x, /*training=*/false) is a thin wrapper: it allocates the
///    output and the scratch, then calls forward_into — bit-identical by
///    construction.  It must not retain references to x.
///  * forward(x, true) may cache activations; a subsequent backward(g)
///    consumes that cache, accumulates into parameter grads, and returns
///    the gradient w.r.t. the layer input.
///  * Layers that do not support training throw rrp::Error from backward.
class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;

  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual LayerKind kind() const = 0;
  const std::string& name() const { return name_; }

  virtual Tensor forward(const Tensor& x, bool training = false) = 0;
  virtual Tensor backward(const Tensor& grad_out);

  /// Eval-mode forward of input `x` (shape `in`) into `y`, which holds
  /// shape_numel(output_shape(in)) floats, using `scratch`, which holds
  /// scratch_floats(in) floats.  Never allocates.  When in_place() is
  /// true, `y` may equal `x`.
  virtual void forward_into(const float* x, const Shape& in, float* y,
                            float* scratch) const = 0;
  /// Scratch floats forward_into needs for input shape `in`.
  virtual std::int64_t scratch_floats(const Shape& in) const {
    (void)in;
    return 0;
  }
  /// True when forward_into may run with `y == x`.
  virtual bool in_place() const { return false; }

  /// Parameters owned directly by this layer (not recursing into children).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Child layers (only Residual has any).
  virtual std::vector<Layer*> children() { return {}; }

  /// Output shape for a given input shape (excluding failures at runtime).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Dense multiply-accumulate count for one sample of the given shape.
  virtual std::int64_t macs(const Shape& in) const { (void)in; return 0; }

  /// MACs counting only nonzero weights (what a sparsity-aware platform
  /// executes); equals macs() when nothing is pruned.
  virtual std::int64_t effective_macs(const Shape& in) const { return macs(in); }

  /// Deep copy including parameter values (not grads/caches).
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  /// The allocating eval wrapper: sizes the output and the scratch, then
  /// runs forward_into.  Every forward(x, false) goes through here.
  Tensor forward_eval(const Tensor& x) const;

 private:
  std::string name_;
};

}  // namespace rrp::nn
