#include <gtest/gtest.h>

#include <filesystem>

#include "core/reversible_pruner.h"
#include "models/trained_cache.h"
#include "nn/serialize.h"
#include "test_support.h"
#include "util/checks.h"

namespace rrp::models {
namespace {

TEST(Zoo, AllModelsBuildAndProduceLogits) {
  Rng rng(1);
  for (ModelKind kind : all_model_kinds()) {
    nn::Network net = build_model(kind, rng);
    const nn::Shape in = zoo_input_shape();
    EXPECT_EQ(net.output_shape(in), (nn::Shape{1, zoo_num_classes()}))
        << model_kind_name(kind);
    nn::Tensor x(in);
    const nn::Tensor y = net.forward(x, false);
    EXPECT_EQ(y.numel(), zoo_num_classes());
  }
}

TEST(Zoo, HeadsArePinned) {
  Rng rng(2);
  for (ModelKind kind : all_model_kinds()) {
    nn::Network net = build_model(kind, rng);
    auto* head = dynamic_cast<nn::Linear*>(net.find("head"));
    ASSERT_NE(head, nullptr) << model_kind_name(kind);
    EXPECT_FALSE(head->out_prunable());
  }
}

TEST(Zoo, ResidualAdjacentConvsArePinned) {
  Rng rng(3);
  nn::Network net = build_model(ModelKind::ResNetLite, rng);
  auto* stem = dynamic_cast<nn::Conv2D*>(net.find("stem"));
  ASSERT_NE(stem, nullptr);
  EXPECT_FALSE(stem->out_prunable());
  auto* c2 = dynamic_cast<nn::Conv2D*>(net.find("block1.conv2"));
  ASSERT_NE(c2, nullptr);
  EXPECT_FALSE(c2->out_prunable());
  auto* c1 = dynamic_cast<nn::Conv2D*>(net.find("block1.conv1"));
  EXPECT_TRUE(c1->out_prunable());
}

TEST(Zoo, MacsOrdering) {
  Rng rng(4);
  const auto in = zoo_input_shape();
  nn::Network mlp = build_model(ModelKind::Mlp, rng);
  nn::Network lenet = build_model(ModelKind::LeNet, rng);
  nn::Network detnet = build_model(ModelKind::DetNet, rng);
  EXPECT_LT(mlp.macs(in), lenet.macs(in));
  EXPECT_LT(lenet.macs(in), detnet.macs(in));
}

TEST(Zoo, KindNamesRoundTrip) {
  EXPECT_STREQ(model_kind_name(ModelKind::Mlp), "mlp");
  EXPECT_STREQ(model_kind_name(ModelKind::DetNet), "detnet");
  EXPECT_EQ(all_model_kinds().size(), 5u);
}

TEST(TrainedCache, DatasetsAreDeterministic) {
  TrainRecipe recipe;
  recipe.train_samples = 40;
  recipe.eval_samples = 20;
  nn::Dataset t1, e1, t2, e2;
  make_datasets(recipe, t1, e1);
  make_datasets(recipe, t2, e2);
  ASSERT_EQ(t1.size(), 40u);
  ASSERT_EQ(e1.size(), 20u);
  EXPECT_TRUE(t1.inputs[7].equals(t2.inputs[7]));
  EXPECT_EQ(e1.labels, e2.labels);
}

TEST(TrainedCache, TrainsThenLoadsIdenticalWeights) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_cache_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TrainRecipe recipe;
  recipe.train_samples = 300;
  recipe.eval_samples = 100;
  recipe.epochs = 2;

  const TrainedModel first = get_trained(ModelKind::Mlp, recipe, dir);
  EXPECT_GT(first.eval_accuracy, 0.3);  // clearly better than 1/5 chance

  TrainedModel second = get_trained(ModelKind::Mlp, recipe, dir);
  auto pa = const_cast<TrainedModel&>(first).net.params();
  auto pb = second.net.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i].value->equals(*pb[i].value));
  std::filesystem::remove_all(dir);
}

TEST(TrainedCache, ProvisionedModelHasConsistentPieces) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_prov_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TrainRecipe train_recipe;
  train_recipe.train_samples = 300;
  train_recipe.eval_samples = 100;
  train_recipe.epochs = 2;
  LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5};
  level_recipe.co_train_epochs = 1;

  ProvisionedModel pm =
      get_provisioned(ModelKind::LeNet, train_recipe, level_recipe, dir);
  EXPECT_EQ(pm.levels.level_count(), 2);
  EXPECT_TRUE(pm.levels.verify_nested());
  EXPECT_EQ(level_accuracy(pm).size(), 2u);
  EXPECT_TRUE(pm.bn_states.empty());  // lenet has no BatchNorm

  // A second call must reuse both caches and yield identical weights + masks.
  ProvisionedModel again =
      get_provisioned(ModelKind::LeNet, train_recipe, level_recipe, dir);
  auto pa = pm.net.params();
  auto pb = again.net.params();
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_TRUE(pa[i].value->equals(*pb[i].value));
  EXPECT_EQ(pm.levels.mask(1).diff_count(again.levels.mask(1)), 0);
  std::filesystem::remove_all(dir);
}

TEST(TrainedCache, ProvisionedBnModelCarriesBnStates) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_prov_bn_test").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TrainRecipe train_recipe;
  train_recipe.train_samples = 300;
  train_recipe.eval_samples = 100;
  train_recipe.epochs = 1;
  LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5};
  level_recipe.co_train_epochs = 1;

  ProvisionedModel pm = get_provisioned(ModelKind::ResNetLite, train_recipe,
                                        level_recipe, dir);
  EXPECT_EQ(pm.bn_states.size(), 2u);
  auto pruner = pm.make_pruner();
  // Each level entered installs that level's BatchNorm statistics.
  auto expect_bn_of_level = [&](int level) {
    const core::BnState live = core::capture_bn_state(pruner.network());
    const core::BnState& want = pm.bn_states[static_cast<std::size_t>(level)];
    ASSERT_EQ(live.stats.size(), want.stats.size());
    ASSERT_FALSE(live.empty());
    for (const auto& [name, mean_var] : want.stats) {
      const auto it = live.stats.find(name);
      ASSERT_NE(it, live.stats.end()) << name;
      EXPECT_TRUE(it->second.first.equals(mean_var.first)) << name;
      EXPECT_TRUE(it->second.second.equals(mean_var.second)) << name;
    }
  };
  // Level 1 was calibrated on its own pruned network: its statistics
  // differ from level 0's, so the checks below tell the levels apart.
  bool levels_differ = false;
  for (const auto& [name, mean_var] : pm.bn_states[1].stats)
    levels_differ = levels_differ ||
                    !mean_var.first.equals(pm.bn_states[0].stats.at(name).first);
  EXPECT_TRUE(levels_differ);
  expect_bn_of_level(0);
  pruner.set_level(1);
  expect_bn_of_level(1);
  pruner.set_level(0);
  expect_bn_of_level(0);
  std::filesystem::remove_all(dir);
}

// The cache file in `dir` whose name does (co-trained) or does not (dense)
// carry "_co_".
std::string cache_file(const std::string& dir, bool co_trained) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if ((name.find("_co_") != std::string::npos) == co_trained)
      return entry.path().string();
  }
  return {};
}

// A warm get_provisioned evaluates nothing, yet yields exactly what the
// evaluating pipeline did: get_trained (load + dense eval), the ladder from
// the dense weights, the co-trained load, BN calibration through the
// training forward and the per-level probe, rebuilt here from public pieces.
TEST(TrainedCache, WarmProvisioningMatchesTheEvaluatingPipeline) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_prov_parity").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TrainRecipe train_recipe;
  train_recipe.train_samples = 128;
  train_recipe.eval_samples = 64;
  train_recipe.epochs = 1;
  LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5, 0.7};
  level_recipe.co_train_epochs = 1;

  (void)get_provisioned(ModelKind::DetNet, train_recipe, level_recipe, dir);
  ProvisionedModel warm =
      get_provisioned(ModelKind::DetNet, train_recipe, level_recipe, dir);

  TrainedModel dense = get_trained(ModelKind::DetNet, train_recipe, dir);
  const auto levels = prune::PruneLevelLibrary::build_structured(
      dense.net, level_recipe.ratios, zoo_input_shape(),
      prune::ImportanceMetric::L1, /*min_channels=*/2);
  nn::Network net = nn::load_network(cache_file(dir, /*co_trained=*/true));
  Rng calib_rng(train_recipe.data_seed + 7);
  const auto bn_states = rrp::testing::reference_calibrate_bn_per_level(
      net, levels, dense.train_data, core::BnCalibrationConfig{}, calib_rng);
  std::vector<double> accuracy;
  {
    core::ReversiblePruner probe(net, levels);
    probe.set_bn_states(bn_states);
    for (int k = 0; k < levels.level_count(); ++k) {
      probe.set_level(k);
      accuracy.push_back(nn::evaluate_accuracy(net, dense.eval_data));
    }
    probe.set_level(0);
  }

  using rrp::testing::float_bits;
  const auto warm_params = warm.net.params();
  const auto want_params = net.params();
  ASSERT_EQ(warm_params.size(), want_params.size());
  for (std::size_t i = 0; i < want_params.size(); ++i)
    EXPECT_EQ(float_bits(warm_params[i].value->data()),
              float_bits(want_params[i].value->data()))
        << want_params[i].name;
  ASSERT_EQ(warm.levels.level_count(), levels.level_count());
  for (int k = 0; k < levels.level_count(); ++k)
    EXPECT_EQ(warm.levels.mask(k).diff_count(levels.mask(k)), 0) << k;
  ASSERT_EQ(warm.bn_states.size(), bn_states.size());
  for (std::size_t k = 0; k < bn_states.size(); ++k)
    EXPECT_TRUE(rrp::testing::same_bn_state(warm.bn_states[k], bn_states[k]))
        << "level " << k;

  // On demand: exactly the inline values, and the net is left as found.
  EXPECT_EQ(level_accuracy(warm), accuracy);
  const auto after = warm.net.params();
  for (std::size_t i = 0; i < want_params.size(); ++i)
    EXPECT_EQ(float_bits(after[i].value->data()),
              float_bits(want_params[i].value->data()))
        << want_params[i].name;
  EXPECT_TRUE(rrp::testing::same_bn_state(core::capture_bn_state(warm.net),
                                          bn_states[0]));
  std::filesystem::remove_all(dir);
}

// LeNet with conv1 `width` channels wide (the zoo's is 8), same names.
nn::Network lenet_of_width(int width) {
  nn::Network net("lenet");
  net.emplace<nn::Conv2D>("conv1", 1, width, 3, 1, 1);
  net.emplace<nn::ReLU>("relu1");
  net.emplace<nn::MaxPool>("pool1", 2, 2);
  net.emplace<nn::Conv2D>("conv2", width, 16, 3, 1, 1);
  net.emplace<nn::ReLU>("relu2");
  net.emplace<nn::MaxPool>("pool2", 2, 2);
  net.emplace<nn::Flatten>("flatten");
  net.emplace<nn::Linear>("fc1", 16 * 4 * 4, 48);
  net.emplace<nn::ReLU>("relu3");
  net.emplace<nn::Linear>("head", 48, zoo_num_classes());
  return net;
}

// A cache file holding another architecture under the expected name (a
// zoo edit without a recipe bump) is refused on both loads, naming the
// file, instead of being served.
TEST(TrainedCache, StaleArchitectureCacheIsRefused) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "rrp_prov_stale").string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  TrainRecipe train_recipe;
  train_recipe.train_samples = 96;
  train_recipe.eval_samples = 32;
  train_recipe.epochs = 1;
  LevelRecipe level_recipe;
  level_recipe.ratios = {0.0, 0.5};
  level_recipe.co_train_epochs = 1;
  (void)get_provisioned(ModelKind::LeNet, train_recipe, level_recipe, dir);

  const auto expect_refused = [&](const std::string& path, auto&& load) {
    try {
      load();
      ADD_FAILURE() << "a stale " << path << " was loaded";
    } catch (const SerializationError& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << e.what();
    }
  };

  // The same-width stand-in loads: names, kinds and shapes all match.
  const std::string dense_path = cache_file(dir, /*co_trained=*/false);
  const std::string co_path = cache_file(dir, /*co_trained=*/true);
  const nn::Network dense = nn::load_network(dense_path);
  nn::save_network(lenet_of_width(8), dense_path);
  EXPECT_NO_THROW(get_trained(ModelKind::LeNet, train_recipe, dir));

  nn::save_network(lenet_of_width(6), dense_path);
  expect_refused(dense_path,
                 [&] { get_trained(ModelKind::LeNet, train_recipe, dir); });
  expect_refused(dense_path, [&] {
    get_provisioned(ModelKind::LeNet, train_recipe, level_recipe, dir);
  });

  nn::save_network(dense, dense_path);
  nn::save_network(lenet_of_width(10), co_path);
  expect_refused(co_path, [&] {
    get_provisioned(ModelKind::LeNet, train_recipe, level_recipe, dir);
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rrp::models
