#include <gtest/gtest.h>

#include <filesystem>

#include "core/baselines.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::core {
namespace {

using rrp::testing::random_tensor;
using rrp::testing::tiny_conv_net;
using rrp::testing::tiny_input_shape;

const std::vector<double> kRatios{0.0, 0.3, 0.6};

prune::PruneLevelLibrary lib_for(nn::Network& net) {
  return prune::PruneLevelLibrary::build_structured(net, kRatios,
                                                    tiny_input_shape());
}

TEST(StaticProvider, IgnoresLevelRequests) {
  nn::Network net = tiny_conv_net(1);
  const auto lib = lib_for(net);
  StaticProvider sp(net, lib, 1);
  EXPECT_EQ(sp.current_level(), 1);
  const auto s = sp.set_level(0);
  EXPECT_EQ(sp.current_level(), 1);     // unchanged
  EXPECT_EQ(s.to_level, 1);
  EXPECT_EQ(s.elements_changed, 0);
}

TEST(StaticProvider, OutputsMatchMaskedNetworkAtFixedLevel) {
  nn::Network net = tiny_conv_net(2);
  const auto lib = lib_for(net);
  StaticProvider sp(net, lib, 2);
  nn::Network masked = net.clone();
  lib.mask(2).apply(masked);
  const nn::Tensor x = random_tensor({2, 1, 8, 8}, 3);
  EXPECT_TRUE(sp.infer(x).equals(masked.forward(x, false)));
}

TEST(StaticProvider, DoesNotTouchSourceNetwork) {
  nn::Network net = tiny_conv_net(4);
  std::vector<nn::Tensor> golden;
  for (auto& p : net.params()) golden.push_back(*p.value);
  const auto lib = lib_for(net);
  StaticProvider sp(net, lib, 2);
  auto after = net.params();
  for (std::size_t i = 0; i < after.size(); ++i)
    EXPECT_TRUE(after[i].value->equals(golden[i]));
}

TEST(StaticProvider, ValidatesFixedLevel) {
  nn::Network net = tiny_conv_net(5);
  const auto lib = lib_for(net);
  EXPECT_THROW(StaticProvider(net, lib, 3), PreconditionError);
  EXPECT_THROW(StaticProvider(net, lib, -1), PreconditionError);
}

TEST(ReloadProvider, MemorySwitchMatchesMaskedOutputs) {
  nn::Network net = tiny_conv_net(6);
  const auto lib = lib_for(net);
  ReloadProvider rp(net, lib, ReloadProvider::Source::Memory);
  const nn::Tensor x = random_tensor({2, 1, 8, 8}, 7);
  for (int k = 0; k < rp.level_count(); ++k) {
    rp.set_level(k);
    nn::Network masked = net.clone();
    lib.mask(k).apply(masked);
    EXPECT_TRUE(rp.infer(x).equals(masked.forward(x, false))) << k;
  }
}

TEST(ReloadProvider, SwitchCostScalesWithWholeModel) {
  nn::Network net = tiny_conv_net(8);
  const auto lib = lib_for(net);
  ReloadProvider rp(net, lib, ReloadProvider::Source::Memory);
  const auto s = rp.set_level(1);
  // A reload rewrites the whole parameter set, not the mask diff.
  EXPECT_EQ(s.elements_changed, net.param_count());
  EXPECT_GT(s.bytes_written, net.param_count() * 4);
  EXPECT_GT(s.wall_us, 0.0);
}

TEST(ReloadProvider, DiskModeRoundTrips) {
  nn::Network net = tiny_conv_net(9);
  const auto lib = lib_for(net);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_reload_test").string();
  ReloadProvider rp(net, lib, ReloadProvider::Source::Disk, dir);
  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 10);
  rp.set_level(2);
  nn::Network masked = net.clone();
  lib.mask(2).apply(masked);
  EXPECT_TRUE(rp.infer(x).equals(masked.forward(x, false)));
  EXPECT_TRUE(std::filesystem::exists(dir + "/level_2.rrpn"));
  std::filesystem::remove_all(dir);
}

TEST(ReloadProvider, MissingArtifactFailsWithDiagnosableError) {
  nn::Network net = tiny_conv_net(9);
  const auto lib = lib_for(net);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_reload_missing").string();
  ReloadProvider rp(net, lib, ReloadProvider::Source::Disk, dir);
  const std::string artifact = dir + "/level_1.rrpn";
  std::filesystem::remove(artifact);
  try {
    rp.set_level(1);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cannot open artifact"), std::string::npos) << what;
    EXPECT_NE(what.find(artifact), std::string::npos) << what;
  }
  EXPECT_EQ(rp.current_level(), 0);  // provider state is unchanged
  std::filesystem::remove_all(dir);
}

TEST(ReloadProvider, TruncatedArtifactFailsWithDiagnosableError) {
  nn::Network net = tiny_conv_net(9);
  const auto lib = lib_for(net);
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_reload_trunc").string();
  ReloadProvider rp(net, lib, ReloadProvider::Source::Disk, dir);
  // Truncate level 2's artifact to half its size: the size check must turn
  // what would be stream UB into a typed, named error.
  const std::string artifact = dir + "/level_2.rrpn";
  std::filesystem::resize_file(
      artifact,
      static_cast<std::uintmax_t>(rp.artifact_bytes(2) / 2));
  try {
    rp.set_level(2);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("truncated"), std::string::npos) << what;
    EXPECT_NE(what.find(artifact), std::string::npos) << what;
  }
  EXPECT_EQ(rp.current_level(), 0);
  // The provider keeps serving the level-0 network after the failure.
  const nn::Tensor x = random_tensor({1, 1, 8, 8}, 10);
  EXPECT_EQ(rp.infer(x).numel(), 3);
  std::filesystem::remove_all(dir);
}

TEST(ReloadProvider, DiskModeNeedsDirectory) {
  nn::Network net = tiny_conv_net(11);
  const auto lib = lib_for(net);
  EXPECT_THROW(ReloadProvider(net, lib, ReloadProvider::Source::Disk, ""),
               PreconditionError);
}

TEST(ReloadProvider, ArtifactBytesReported) {
  nn::Network net = tiny_conv_net(12);
  const auto lib = lib_for(net);
  ReloadProvider rp(net, lib, ReloadProvider::Source::Memory);
  for (int k = 0; k < rp.level_count(); ++k)
    EXPECT_GT(rp.artifact_bytes(k), net.param_count() * 4);
  EXPECT_THROW(rp.artifact_bytes(9), PreconditionError);
}

TEST(ReloadProvider, NoOpSwitchIsFree) {
  nn::Network net = tiny_conv_net(13);
  const auto lib = lib_for(net);
  ReloadProvider rp(net, lib, ReloadProvider::Source::Memory);
  rp.set_level(1);
  const auto s = rp.set_level(1);
  EXPECT_EQ(s.elements_changed, 0);
}

TEST(Providers, NamesAreDistinct) {
  nn::Network net = tiny_conv_net(14);
  const auto lib = lib_for(net);
  StaticProvider sp(net, lib, 1);
  ReloadProvider rm(net, lib, ReloadProvider::Source::Memory);
  ReversiblePruner rev(net, lib_for(net));
  EXPECT_NE(sp.name(), rm.name());
  EXPECT_NE(rm.name(), rev.name());
}

}  // namespace
}  // namespace rrp::core
