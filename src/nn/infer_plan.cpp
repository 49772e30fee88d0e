#include "nn/infer_plan.h"

#include <algorithm>

#include "nn/network.h"
#include "util/checks.h"

namespace rrp::nn {

namespace {

constexpr int kInputBuffer = -1;  // the caller's input: read-only, no offset
constexpr int kNoBuffer = -2;

// A buffer of the flat step sequence: `size` floats, first written at step
// `def`, last read at step `last`.
struct Buffer {
  std::int64_t size = 0;
  int def = 0;
  int last = 0;
  std::int64_t off = 0;
};

// Buffer ids a step reads and writes.
struct StepBuffers {
  int x = kInputBuffer, y = kNoBuffer, skip = kNoBuffer, scratch = kNoBuffer;
};

struct Builder {
  std::vector<InferStep> steps;
  std::vector<StepBuffers> bufs;
  std::vector<Buffer> buffers;
  std::vector<int> open_skips;  // inputs of the Residual blocks being built

  int step() const { return static_cast<int>(steps.size()); }
  int define(std::int64_t size) {
    buffers.push_back({size, step(), step(), 0});
    return static_cast<int>(buffers.size()) - 1;
  }
  void read(int id) {
    if (id != kInputBuffer) buffers[static_cast<std::size_t>(id)].last = step();
  }
};

// Folds what directly follows layers[i] into `fused`: after a Conv2D a
// BatchNorm (same channel count) and/or a ReLU, after a Linear a ReLU.
// Returns the index of the last layer the step covers.
std::size_t fuse_following(const std::vector<std::unique_ptr<Layer>>& layers,
                           std::size_t i, StepFusion& fused) {
  const LayerKind kind = layers[i]->kind();
  if (kind != LayerKind::Conv2D && kind != LayerKind::Linear) return i;
  const auto next_is = [&](LayerKind next) {
    return i + 1 < layers.size() && layers[i + 1]->kind() == next;
  };
  if (kind == LayerKind::Conv2D && next_is(LayerKind::BatchNorm) &&
      static_cast<const BatchNorm&>(*layers[i + 1]).channels() ==
          static_cast<const Conv2D&>(*layers[i]).out_channels())
    fused.bn = static_cast<const BatchNorm*>(layers[++i].get());
  if (next_is(LayerKind::ReLU)) {
    fused.relu = true;
    ++i;
  }
  return i;
}

void flatten(const Network& net, Shape& shape, int& cur, Builder& b) {
  const auto& layers = net.layers();
  for (std::size_t li = 0; li < layers.size(); ++li) {
    const Layer& layer = *layers[li];
    if (layer.kind() == LayerKind::Residual) {
      const Shape in = shape;
      const int skip = cur;
      b.open_skips.push_back(skip);
      flatten(static_cast<const Residual&>(layer).body(), shape, cur, b);
      b.open_skips.pop_back();
      RRP_CHECK_MSG(shape == in, "Residual '"
                                     << layer.name()
                                     << "' body is not shape-preserving");
      InferStep add;
      add.in = in;
      add.numel = shape_numel(in);
      StepBuffers sb;
      sb.x = cur;
      sb.skip = skip;
      b.read(cur);
      b.read(skip);
      sb.y = b.define(add.numel);
      b.steps.push_back(std::move(add));
      b.bufs.push_back(sb);
      cur = sb.y;
      continue;
    }
    InferStep st;
    st.layer = &layer;
    st.in = shape;
    li = fuse_following(layers, li, st.fused);
    StepBuffers sb;
    sb.x = cur;
    b.read(cur);
    Shape out = layer.output_shape(shape);
    const std::int64_t scratch = layer.scratch_floats(shape);
    if (scratch > 0) sb.scratch = b.define(scratch);
    // Write over the input when the kind allows it and nothing reads the
    // input later (the caller's input and open skips are read later).
    const bool alias = layer.in_place() && cur != kInputBuffer &&
                       std::find(b.open_skips.begin(), b.open_skips.end(),
                                 cur) == b.open_skips.end();
    sb.y = alias ? cur : b.define(shape_numel(out));
    b.steps.push_back(std::move(st));
    b.bufs.push_back(sb);
    shape = std::move(out);
    cur = sb.y;
  }
}

// First-fit offsets in step order: a buffer defined at step t takes the
// lowest offset overlapping no buffer still live at t.
std::int64_t assign_offsets(std::vector<Buffer>& buffers, int final_buffer) {
  std::vector<int> order(buffers.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return buffers[static_cast<std::size_t>(a)].def <
           buffers[static_cast<std::size_t>(b)].def;
  });
  std::vector<int> live;
  std::int64_t arena = 0;
  for (int id : order) {
    Buffer& nb = buffers[static_cast<std::size_t>(id)];
    if (id == final_buffer) continue;  // lands in the caller's output
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](int l) {
                                return buffers[static_cast<std::size_t>(l)]
                                           .last < nb.def;
                              }),
               live.end());
    std::sort(live.begin(), live.end(), [&](int a, int b) {
      return buffers[static_cast<std::size_t>(a)].off <
             buffers[static_cast<std::size_t>(b)].off;
    });
    std::int64_t off = 0;
    for (int l : live) {
      const Buffer& lb = buffers[static_cast<std::size_t>(l)];
      if (off + nb.size <= lb.off) break;
      off = std::max(off, lb.off + lb.size);
    }
    nb.off = off;
    arena = std::max(arena, off + nb.size);
    live.push_back(id);
  }
  return arena;
}

}  // namespace

InferPlan plan_inference(const Network& net, const Shape& in) {
  RRP_CHECK_MSG(net.layer_count() > 0, "cannot plan an empty network");
  InferPlan plan;
  plan.network = &net;
  plan.input_shape = in;
  Builder b;
  Shape shape = in;
  int cur = kInputBuffer;
  flatten(net, shape, cur, b);
  plan.output_shape = shape;
  plan.arena_floats = assign_offsets(b.buffers, cur);

  const auto where = [&](int id) -> std::int64_t {
    if (id == kInputBuffer) return kPlanInput;
    if (id == cur) return kPlanOutput;
    return b.buffers[static_cast<std::size_t>(id)].off;
  };
  for (std::size_t i = 0; i < b.steps.size(); ++i) {
    InferStep& st = b.steps[i];
    const StepBuffers& sb = b.bufs[i];
    st.x = where(sb.x);
    st.y = where(sb.y);
    if (sb.skip != kNoBuffer) st.skip = where(sb.skip);
    if (sb.scratch != kNoBuffer)
      st.scratch = b.buffers[static_cast<std::size_t>(sb.scratch)].off;
  }
  plan.steps = std::move(b.steps);
  return plan;
}

// Fused layers and residual adds count no MACs, so the steps' sum is the
// layer walk's.
std::int64_t plan_effective_macs(const InferPlan& plan) {
  std::int64_t total = 0;
  for (const InferStep& st : plan.steps)
    if (st.layer != nullptr) total += st.layer->effective_macs(st.in);
  return total;
}

}  // namespace rrp::nn
