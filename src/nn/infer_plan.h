// infer_plan.h — a provision-time memory plan for one network's eval
// forward, so inference runs on a caller-owned arena with no allocation.
//
// The plan flattens the network (Residual bodies inline, each block closed
// by an identity-add step) and assigns every intermediate activation and
// every layer's scratch (a conv's padded-sample slots) an offset in one float
// arena.  Offsets come from liveness over that flat sequence: a buffer is
// live from the step that writes it to the last step that reads it, and a
// new buffer takes the lowest offset that overlaps no live one (first
// fit).  In a chain this is ping-pong between two buffers; a Residual's
// input stays live across its body (one skip slot per open block); and
// in-place kinds (ReLU, BatchNorm, Flatten, Softmax) write over their
// input when nothing reads that input later.  The caller's input is
// read-only, and the last value is written straight into the caller's
// output.
//
// A Conv2D step absorbs the BatchNorm and/or ReLU that directly follow it
// in the same Network, and a Linear step the ReLU that directly follows
// it: they run in the layer's store (Conv2D::forward_fused_into,
// Linear::forward_fused_into) and get no step and no buffer of their own.
//
// A plan is immutable and holds no activation memory, so any number of
// arenas (one per level cursor, DESIGN.md "Activation arena") can run it
// concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layers.h"

namespace rrp::nn {

class Network;

/// Step locations: an arena offset (>= 0) or one of these.
inline constexpr std::int64_t kPlanInput = -1;   ///< the caller's input
inline constexpr std::int64_t kPlanOutput = -2;  ///< the caller's output

/// One planned operation: a layer's forward_into, a Conv2D or Linear with
/// the layers in `fused` folded into it, or (layer == nullptr) the
/// identity add that closes a Residual block, y = x + skip.
struct InferStep {
  const Layer* layer = nullptr;
  Shape in;                  ///< input shape of this step
  std::int64_t x = 0;        ///< input location
  std::int64_t y = 0;        ///< output location
  std::int64_t scratch = 0;  ///< arena offset of the layer's scratch
  std::int64_t skip = 0;     ///< residual add: location of the block input
  std::int64_t numel = 0;    ///< residual add: elements added
  StepFusion fused;          ///< layers run in a Conv2D/Linear's store
};

struct InferPlan {
  const Network* network = nullptr;  ///< the network the plan runs
  Shape input_shape;
  Shape output_shape;
  std::vector<InferStep> steps;
  std::int64_t arena_floats = 0;  ///< arena size the plan needs
};

/// Plans `net`'s eval forward for inputs of shape `in` (provision time).
InferPlan plan_inference(const Network& net, const Shape& in);

/// plan.network->effective_macs(plan.input_shape) from the input shape
/// each step recorded, so the weights are counted as they are now with
/// no shape walk and no allocation.
std::int64_t plan_effective_macs(const InferPlan& plan);

}  // namespace rrp::nn
