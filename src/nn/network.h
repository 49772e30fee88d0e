// network.h — sequential network container and the Residual block.
//
// Topology model: a Network is an ordered list of layers; residual
// connections are expressed by the Residual layer, which wraps a
// sub-Network and computes x + body(x).  This covers MLPs, LeNet-style
// CNNs and ResNet-style models without a general DAG executor, while
// keeping the structure statically analyzable for the pruning planner
// (a Residual pins its body's final output width to its input width).
#pragma once

#include <functional>
#include <memory>

#include "nn/infer_plan.h"
#include "nn/layers.h"

namespace rrp::nn {

/// Ordered container of layers with forward/backward execution.
class Network {
 public:
  Network() = default;
  explicit Network(std::string name) : name_(std::move(name)) {}

  Network(Network&&) = default;
  Network& operator=(Network&&) = default;

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Appends a layer; returns a reference to it typed as given.
  Layer& add(std::unique_ptr<Layer> layer);

  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto layer = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *layer;
    add(std::move(layer));
    return ref;
  }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  Tensor forward(const Tensor& x, bool training = false);
  /// Runs `plan` (built by plan_inference over THIS network) on `x` into
  /// `out`, which must already have plan.output_shape, with `arena`
  /// holding plan.arena_floats floats.  Allocates nothing, and equals
  /// forward(x, false) bit for bit.
  void forward_into(const InferPlan& plan, const Tensor& x, Tensor& out,
                    float* arena) const;
  /// Back-propagates through all layers; forward(x, true) must precede.
  Tensor backward(const Tensor& grad_out);

  /// All parameters, recursing into Residual bodies, in execution order.
  std::vector<ParamRef> params();

  /// All layers in execution order, recursing into Residual bodies.
  /// Residual containers themselves are included before their children.
  std::vector<Layer*> all_layers();

  /// Leaf layers only (no Residual containers), execution order.
  std::vector<Layer*> leaf_layers();

  /// Finds a leaf or container layer by exact name; nullptr if absent.
  Layer* find(const std::string& name);

  Shape output_shape(const Shape& in) const;
  std::int64_t macs(const Shape& in) const;
  std::int64_t effective_macs(const Shape& in) const;

  /// Total parameter element count.
  std::int64_t param_count();
  /// Count of nonzero parameter elements (post-masking).
  std::int64_t param_nonzero();

  void zero_grad();

  Network clone() const;

 private:
  friend class Residual;  // runs its body's plan on raw buffers

  /// forward_into on raw buffers, shapes unchecked.
  void run_plan(const InferPlan& plan, const float* x, float* out,
                float* arena) const;

  std::string name_;
  std::vector<std::unique_ptr<Layer>> layers_;
};

/// Residual block: y = x + body(x). The body must preserve shape.
class Residual : public Layer {
 public:
  Residual(std::string name, Network body);

  LayerKind kind() const override { return LayerKind::Residual; }
  Tensor forward(const Tensor& x, bool training) override;
  /// Plans the body per call; planned networks never reach it, because
  /// plan_inference flattens Residual bodies into its own steps.
  void forward_into(const float* x, const Shape& in, float* y,
                    float* scratch) const override;
  std::int64_t scratch_floats(const Shape& in) const override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamRef> params() override { return {}; }  // owned by body
  std::vector<Layer*> children() override;
  Shape output_shape(const Shape& in) const override;
  std::int64_t macs(const Shape& in) const override;
  std::int64_t effective_macs(const Shape& in) const override;
  std::unique_ptr<Layer> clone() const override;

  Network& body() { return body_; }
  const Network& body() const { return body_; }

 private:
  Network body_;
};

}  // namespace rrp::nn
