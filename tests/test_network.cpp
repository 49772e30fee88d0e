#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "models/zoo.h"
#include "nn/network.h"
#include "test_support.h"
#include "util/checks.h"
#include "util/rng.h"

namespace rrp::nn {
namespace {

using rrp::testing::float_bits;
using rrp::testing::random_tensor;
using rrp::testing::tiny_residual_net;

TEST(Network, ForwardComposesLayers) {
  Network net("n");
  auto& l1 = net.emplace<Linear>("fc1", 2, 2, false);
  auto& l2 = net.emplace<Linear>("fc2", 2, 1, false);
  l1.weight() = Tensor({2, 2}, {1, 0, 0, 1});  // identity
  l2.weight() = Tensor({1, 2}, {1, 1});        // sum
  const Tensor y = net.forward(Tensor({1, 2}, {3, 4}), false);
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(Network, LayerAccessAndCount) {
  Network net("n");
  net.emplace<ReLU>("r1");
  net.emplace<ReLU>("r2");
  EXPECT_EQ(net.layer_count(), 2u);
  EXPECT_EQ(net.layer(1).name(), "r2");
  EXPECT_THROW(net.layer(2), PreconditionError);
}

TEST(Network, ParamsAreHierarchicallyNamed) {
  Network net = tiny_residual_net(1);
  std::vector<std::string> names;
  for (auto& p : net.params()) names.push_back(p.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "block.conv1.weight"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "head.bias"), names.end());
}

TEST(Network, AllLayersRecursesIntoResidual) {
  Network net = tiny_residual_net(1);
  auto all = net.all_layers();
  auto leaves = net.leaf_layers();
  // all includes the Residual container itself, leaves do not.
  EXPECT_EQ(all.size(), leaves.size() + 1);
  bool found_inner = false;
  for (auto* l : leaves) found_inner |= (l->name() == "block.conv2");
  EXPECT_TRUE(found_inner);
}

TEST(Network, FindLocatesNestedLayers) {
  Network net = tiny_residual_net(1);
  EXPECT_NE(net.find("block.conv1"), nullptr);
  EXPECT_NE(net.find("block"), nullptr);
  EXPECT_EQ(net.find("nope"), nullptr);
}

TEST(Network, OutputShapePropagates) {
  Network net = rrp::testing::tiny_conv_net(2);
  EXPECT_EQ(net.output_shape({4, 1, 8, 8}), (Shape{4, 3}));
}

TEST(Network, MacsSumOverLayers) {
  Network net("n");
  net.emplace<Linear>("a", 10, 20);
  net.emplace<ReLU>("r");
  net.emplace<Linear>("b", 20, 5);
  EXPECT_EQ(net.macs({1, 10}), 200 + 100);
}

TEST(Network, ParamCountAndNonzero) {
  Network net("n");
  auto& lin = net.emplace<Linear>("fc", 4, 2, false);
  EXPECT_EQ(net.param_count(), 8);
  lin.weight().fill(1.0f);
  lin.weight()[0] = 0.0f;
  EXPECT_EQ(net.param_nonzero(), 7);
}

TEST(Network, ZeroGradClearsAll) {
  Network net = rrp::testing::tiny_conv_net(3);
  const Tensor x = random_tensor({2, 1, 8, 8}, 4);
  const Tensor y = net.forward(x, true);
  Tensor g(y.shape());
  g.fill(1.0f);
  net.backward(g);
  net.zero_grad();
  for (auto& p : net.params()) EXPECT_EQ(p.grad->max_abs(), 0.0f);
}

TEST(Network, CloneIsIndependentDeepCopy) {
  Network net = rrp::testing::tiny_conv_net(5);
  Network copy = net.clone();
  const Tensor x = random_tensor({1, 1, 8, 8}, 6);
  const Tensor y1 = net.forward(x, false);
  // Mutate the original; the clone must be unaffected.
  for (auto& p : net.params()) p.value->fill(0.0f);
  const Tensor y2 = copy.forward(x, false);
  EXPECT_TRUE(y1.equals(y2));
  EXPECT_EQ(copy.name(), net.name());
}

TEST(Residual, AddsIdentity) {
  // Body that outputs all zeros -> residual output equals input.
  Network body("b");
  auto& conv = body.emplace<Conv2D>("c", 2, 2, 3, 1, 1);
  conv.weight().fill(0.0f);
  Network net("n");
  net.add(std::make_unique<Residual>("res", std::move(body)));
  const Tensor x = random_tensor({1, 2, 4, 4}, 7);
  const Tensor y = net.forward(x, false);
  EXPECT_NEAR(y.max_abs_diff(x), 0.0f, 1e-6f);
}

TEST(Residual, RejectsShapeChangingBody) {
  Network body("b");
  body.emplace<Conv2D>("c", 2, 3, 3, 1, 1);  // channel change
  Residual res("res", std::move(body));
  EXPECT_THROW(res.output_shape({1, 2, 4, 4}), PreconditionError);
  EXPECT_THROW(res.forward(random_tensor({1, 2, 4, 4}, 8), false),
               PreconditionError);
}

TEST(Residual, RejectsEmptyBody) {
  EXPECT_THROW(Residual("r", Network("b")), PreconditionError);
}

TEST(Residual, MacsComeFromBody) {
  Network net = tiny_residual_net(9);
  const Shape in{1, 1, 8, 8};
  EXPECT_GT(net.macs(in), 0);
  // Residual contributes its body's MACs exactly.
  Layer* res = net.find("block");
  ASSERT_NE(res, nullptr);
  auto* r = dynamic_cast<Residual*>(res);
  EXPECT_EQ(r->macs({1, 6, 8, 8}), r->body().macs({1, 6, 8, 8}));
}

TEST(Network, MoveSemantics) {
  Network a = rrp::testing::tiny_conv_net(10);
  const Tensor x = random_tensor({1, 1, 8, 8}, 11);
  const Tensor y1 = a.forward(x, false);
  Network b = std::move(a);
  const Tensor y2 = b.forward(x, false);
  EXPECT_TRUE(y1.equals(y2));
}

TEST(InferPlan, FusedConvBnReluKeepsNaNAndNegativeZero) {
  // Conv -> BatchNorm -> ReLU plans as one fused conv step whose output
  // equals the unfused layer chain bit for bit.  Channel 0 has zero
  // weights, a +0 bias and a BatchNorm with scale -1 and shift -0, so it
  // stores +0 * -1 + -0 = -0, which the ReLU must keep; channel 1 reads
  // a NaN pixel, which the ReLU must pass through.
  Network net("fused");
  auto& conv = net.emplace<Conv2D>("conv", 1, 2, 3, 1, 1);
  auto& bn = net.emplace<BatchNorm>("bn", 2, 0.1f, 0.0f);
  net.emplace<ReLU>("relu");
  net.emplace<Flatten>("flatten");
  conv.weight() = random_tensor({2, 1, 3, 3}, 5);
  for (int i = 0; i < 9; ++i) conv.weight()[i] = 0.0f;
  conv.bias() = Tensor({2}, {0.0f, 0.25f});
  bn.gamma() = Tensor({2}, {-1.0f, 1.5f});
  bn.beta() = Tensor({2}, {-0.0f, -0.1f});
  bn.running_mean() = Tensor({2}, {-0.0f, 0.2f});
  bn.running_var() = Tensor({2}, {1.0f, 0.5f});

  const Shape in{1, 1, 6, 6};
  const InferPlan plan = plan_inference(net, in);
  ASSERT_EQ(plan.steps.size(), 2u) << "conv+bn+relu fused, then flatten";
  EXPECT_EQ(plan.steps[0].fused.bn, &bn);
  EXPECT_TRUE(plan.steps[0].fused.relu);

  Tensor x = random_tensor(in, 6);
  x[14] = std::numeric_limits<float>::quiet_NaN();
  const Tensor want = net.forward(x, false);
  std::vector<float> arena(static_cast<std::size_t>(plan.arena_floats));
  Tensor got(plan.output_shape);
  net.forward_into(plan, x, got, arena.data());
  EXPECT_EQ(float_bits(got.data()), float_bits(want.data()));
  EXPECT_TRUE(std::signbit(got[0]) && got[0] == 0.0f) << "channel 0 is -0";
  EXPECT_TRUE(std::isnan(got[36 + 14])) << "channel 1 keeps the NaN";
}

TEST(InferPlan, FusesOnlyWhatDirectlyFollowsAConv) {
  // BatchNorm and ReLU fold into the conv they directly follow: a ReLU
  // alone folds, a BatchNorm behind a pool does not, and a conv closing a
  // Residual body fuses nothing across the add.
  Network net("partial");
  net.emplace<Conv2D>("c1", 1, 2, 3, 1, 1);
  net.emplace<ReLU>("r1");
  net.emplace<MaxPool>("pool", 2, 2);
  net.emplace<BatchNorm>("bn_pool", 2);
  net.emplace<Conv2D>("c2", 2, 3, 3, 1, 1);
  net.emplace<BatchNorm>("bn2", 3);
  Network body("body");
  body.emplace<Conv2D>("body.conv", 3, 3, 3, 1, 1);
  net.emplace<Residual>("res", std::move(body));
  net.emplace<ReLU>("r3");
  const Shape in{2, 1, 8, 8};
  const InferPlan plan = plan_inference(net, in);
  std::vector<std::string> steps;
  for (const InferStep& st : plan.steps) {
    std::string name = st.layer != nullptr ? st.layer->name() : "add";
    if (st.fused.bn != nullptr) name += "+" + st.fused.bn->name();
    if (st.fused.relu) name += "+relu";
    steps.push_back(name);
  }
  EXPECT_EQ(steps, (std::vector<std::string>{"c1+relu", "pool", "bn_pool",
                                             "c2+bn2", "body.conv", "add",
                                             "r3"}));
  const Tensor x = random_tensor(in, 8);
  std::vector<float> arena(static_cast<std::size_t>(plan.arena_floats));
  Tensor got(plan.output_shape);
  net.forward_into(plan, x, got, arena.data());
  EXPECT_EQ(float_bits(got.data()), float_bits(net.forward(x, false).data()));
}

TEST(InferPlan, LenetFoldsEachReluIntoTheConvOrLinearBeforeIt) {
  // Pins lenet's plan: seven steps, both conv ReLUs and fc1's ReLU folded
  // into their stores; the head (no ReLU after it) stands alone.
  Rng rng(5);
  Network net = models::build_model(models::ModelKind::LeNet, rng);
  const Shape in = models::zoo_input_shape();
  const InferPlan plan = plan_inference(net, in);
  std::vector<std::string> steps;
  for (const InferStep& st : plan.steps)
    steps.push_back(st.layer->name() + (st.fused.relu ? "+relu" : ""));
  EXPECT_EQ(steps, (std::vector<std::string>{"conv1+relu", "pool1",
                                             "conv2+relu", "pool2", "flatten",
                                             "fc1+relu", "head"}));
  const Tensor x = random_tensor(in, 9);
  std::vector<float> arena(static_cast<std::size_t>(plan.arena_floats));
  Tensor got(plan.output_shape);
  net.forward_into(plan, x, got, arena.data());
  EXPECT_EQ(float_bits(got.data()), float_bits(net.forward(x, false).data()));
}

}  // namespace
}  // namespace rrp::nn
