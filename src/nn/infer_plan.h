// infer_plan.h — a provision-time memory plan for one network's eval
// forward, so inference runs on a caller-owned arena with no allocation.
//
// The plan flattens the network (Residual bodies inline, each block closed
// by an identity-add step) and assigns every intermediate activation and
// every layer's scratch (the conv im2col slots) an offset in one float
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
// A plan is immutable and holds no activation memory, so any number of
// arenas (one per level cursor, DESIGN.md "Activation arena") can run it
// concurrently.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/tensor.h"

namespace rrp::nn {

class Layer;
class Network;

/// Step locations: an arena offset (>= 0) or one of these.
inline constexpr std::int64_t kPlanInput = -1;   ///< the caller's input
inline constexpr std::int64_t kPlanOutput = -2;  ///< the caller's output

/// One planned operation: a layer's forward_into, or (layer == nullptr)
/// the identity add that closes a Residual block, y = x + skip.
struct InferStep {
  const Layer* layer = nullptr;
  Shape in;                  ///< input shape of this step
  std::int64_t x = 0;        ///< input location
  std::int64_t y = 0;        ///< output location
  std::int64_t scratch = 0;  ///< arena offset of the layer's scratch
  std::int64_t skip = 0;     ///< residual add: location of the block input
  std::int64_t numel = 0;    ///< residual add: elements added
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

}  // namespace rrp::nn
