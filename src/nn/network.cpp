#include "nn/network.h"

#include "util/checks.h"

namespace rrp::nn {

// rrp-frame-path-stop: network construction is provision-time; reached
// only via receiver-blind 'add' name matching of metrics counters.
Layer& Network::add(std::unique_ptr<Layer> layer) {
  RRP_CHECK(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *layers_.back();
}

Layer& Network::layer(std::size_t i) {
  RRP_CHECK(i < layers_.size());
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  RRP_CHECK(i < layers_.size());
  return *layers_[i];
}

Tensor Network::forward(const Tensor& x, bool training) {
  if (layers_.empty()) return x;
  Tensor cur = layers_.front()->forward(x, training);
  for (std::size_t i = 1; i < layers_.size(); ++i)
    cur = layers_[i]->forward(cur, training);
  return cur;
}

namespace {

// The add closing a Residual block: y = body + skip, in add_ order.
void residual_add(const float* body, const float* skip, float* y,
                  std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) y[i] = body[i] + skip[i];
}

}  // namespace

// rrp-frame-path: the planned eval forward behind every provider's
// infer_into.
// rrp-lint-allow(frame-path-recursion): receiver-blind cycle through run_plan's layer call; plan steps hold leaf layers only (plan_inference flattens Residuals), so it never re-enters a Network.
void Network::forward_into(const InferPlan& plan, const Tensor& x,
                           Tensor& out, float* arena) const {
  RRP_CHECK_MSG(plan.network == this && x.shape() == plan.input_shape &&
                    out.shape() == plan.output_shape,
                "plan for network '" << name_ << "' does not fit input "
                                     << shape_str(x.shape()) << " / output "
                                     << shape_str(out.shape()));
  run_plan(plan, x.raw(), out.raw(), arena);
}

// The plan interpreter: one forward_into per layer step (a fused Conv2D
// or Linear step also runs the layers folded into it).
// rrp-lint-allow(frame-path-recursion): the same receiver-blind cycle as forward_into above; steps never call back into a Network.
void Network::run_plan(const InferPlan& plan, const float* x, float* out,
                       float* arena) const {
  const auto at = [&](std::int64_t where) -> float* {
    return where == kPlanOutput ? out : arena + where;
  };
  for (const InferStep& st : plan.steps) {
    const float* src = st.x == kPlanInput ? x : at(st.x);
    float* dst = at(st.y);
    if (st.layer == nullptr) {
      const float* skip = st.skip == kPlanInput ? x : at(st.skip);
      residual_add(src, skip, dst, st.numel);
    } else if (st.layer->kind() == LayerKind::Linear) {
      static_cast<const Linear*>(st.layer)->forward_fused_into(
          src, st.in, dst, st.fused.relu);
    } else if (st.fused.bn != nullptr || st.fused.relu) {
      static_cast<const Conv2D*>(st.layer)->forward_fused_into(
          src, st.in, dst, arena + st.scratch, st.fused);
    } else {
      st.layer->forward_into(src, st.in, dst, arena + st.scratch);
    }
  }
}

Tensor Network::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

// rrp-frame-path-stop: the param-view collector builds a vector bounded
// by layer count (a handful of references, not weights); the frame engine
// collects it once per stream and scrubs through that list (DESIGN.md
// invariant 14).
std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> out;
  for (Layer* l : all_layers())
    for (auto& p : l->params()) out.push_back(p);
  return out;
}

std::vector<Layer*> Network::all_layers() {
  std::vector<Layer*> out;
  std::function<void(Layer*)> visit = [&](Layer* l) {
    out.push_back(l);
    for (Layer* c : l->children()) visit(c);
  };
  for (auto& l : layers_) visit(l.get());
  return out;
}

std::vector<Layer*> Network::leaf_layers() {
  std::vector<Layer*> out;
  for (Layer* l : all_layers())
    if (l->kind() != LayerKind::Residual) out.push_back(l);
  return out;
}

Layer* Network::find(const std::string& name) {
  for (Layer* l : all_layers())
    if (l->name() == name) return l;
  return nullptr;
}

Shape Network::output_shape(const Shape& in) const {
  Shape cur = in;
  for (const auto& l : layers_) cur = l->output_shape(cur);
  return cur;
}

// rrp-frame-path-stop: whole-network MAC walks (provision time and
// unplanned shapes).  A frame counts through its plan's leaf steps
// (plan_effective_macs), which never hold a Network or a Residual; the
// analyzer reaches these only by receiver-blind name matching.
std::int64_t Network::macs(const Shape& in) const {
  Shape cur = in;
  std::int64_t total = 0;
  for (const auto& l : layers_) {
    total += l->macs(cur);
    cur = l->output_shape(cur);
  }
  return total;
}

// rrp-frame-path-stop: the same whole-network walk as macs above.
std::int64_t Network::effective_macs(const Shape& in) const {
  Shape cur = in;
  std::int64_t total = 0;
  for (const auto& l : layers_) {
    total += l->effective_macs(cur);
    cur = l->output_shape(cur);
  }
  return total;
}

std::int64_t Network::param_count() {
  std::int64_t n = 0;
  for (auto& p : params()) n += p.value->numel();
  return n;
}

std::int64_t Network::param_nonzero() {
  std::int64_t n = 0;
  for (auto& p : params())
    for (float v : p.value->data()) n += (v != 0.0f);
  return n;
}

void Network::zero_grad() {
  for (auto& p : params())
    if (p.grad != nullptr && !p.grad->empty()) p.grad->fill(0.0f);
}

Network Network::clone() const {
  Network c(name_);
  for (const auto& l : layers_) c.add(l->clone());
  return c;
}

Residual::Residual(std::string name, Network body)
    : Layer(std::move(name)), body_(std::move(body)) {
  RRP_CHECK_MSG(body_.layer_count() > 0, "Residual body must be non-empty");
}

Tensor Residual::forward(const Tensor& x, bool training) {
  if (!training) return forward_eval(x);
  Tensor y = body_.forward(x, training);
  RRP_CHECK_MSG(y.shape() == x.shape(),
                "Residual '" << name() << "' body changed shape "
                             << shape_str(x.shape()) << " -> "
                             << shape_str(y.shape()));
  y.add_(x);
  return y;
}

std::int64_t Residual::scratch_floats(const Shape& in) const {
  return plan_inference(body_, in).arena_floats;
}

// rrp-frame-path-stop: plan_inference flattens Residual bodies into plan
// steps, so planned inference never calls this; it serves forward().
void Residual::forward_into(const float* x, const Shape& in, float* y,
                            float* scratch) const {
  const InferPlan plan = plan_inference(body_, in);
  body_.run_plan(plan, x, y, scratch);
  residual_add(y, x, y, shape_numel(in));
}

Tensor Residual::backward(const Tensor& grad_out) {
  Tensor g = body_.backward(grad_out);
  g.add_(grad_out);  // identity shortcut path
  return g;
}

std::vector<Layer*> Residual::children() {
  std::vector<Layer*> out;
  for (const auto& l : body_.layers()) out.push_back(l.get());
  return out;
}

Shape Residual::output_shape(const Shape& in) const {
  const Shape body_out = body_.output_shape(in);
  RRP_CHECK_MSG(body_out == in, "Residual '" << name()
                                             << "' body is not shape-preserving");
  return in;
}

// rrp-frame-path-stop: the residual body's whole-network walk (see
// Network::macs).
std::int64_t Residual::macs(const Shape& in) const { return body_.macs(in); }

// rrp-frame-path-stop: the residual body's whole-network walk (see
// Network::macs).
std::int64_t Residual::effective_macs(const Shape& in) const {
  return body_.effective_macs(in);
}

std::unique_ptr<Layer> Residual::clone() const {
  return std::make_unique<Residual>(name(), body_.clone());
}

}  // namespace rrp::nn
