#include "models/trained_cache.h"

#include <filesystem>
#include <sstream>

#include "core/level_train.h"
#include "core/reversible_pruner.h"
#include "nn/serialize.h"
#include "util/checks.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace rrp::models {

namespace {
std::string cache_path(ModelKind kind, const TrainRecipe& recipe,
                       const std::string& cache_dir) {
  return cache_dir + "/cache_" + model_kind_name(kind) + "_v" +
         std::to_string(recipe.version) + "_e" +
         std::to_string(recipe.epochs) + "_n" +
         std::to_string(recipe.train_samples) + ".rrpn";
}

std::string co_cache_path(ModelKind kind, const TrainRecipe& train_recipe,
                          const LevelRecipe& level_recipe,
                          const std::string& cache_dir) {
  std::ostringstream os;
  os << cache_dir << "/cache_" << model_kind_name(kind) << "_co_v"
     << level_recipe.version << "_e" << level_recipe.co_train_epochs << "_"
     << (level_recipe.structured ? "s" : "u");
  for (double r : level_recipe.ratios)
    os << "_" << static_cast<int>(r * 1000);
  os << "_base_v" << train_recipe.version << "_e" << train_recipe.epochs
     << ".rrpn";
  return os.str();
}

// A cache file carries its own architecture, but its name only keys the
// recipe: after an edit to the zoo with no recipe bump, the file would
// still load.  Loads therefore check layer names, kinds and parameter
// shapes against build_model(kind) and refuse a stale file.
nn::Network load_checked(ModelKind kind, const std::string& path) {
  nn::Network net = nn::load_network(path);
  Rng rng(0);
  nn::Network expected = build_model(kind, rng);
  const std::vector<nn::Layer*> got = net.all_layers();
  const std::vector<nn::Layer*> want = expected.all_layers();
  const auto stale = [&](const std::string& what) {
    throw SerializationError("stale model cache '" + path + "': " + what +
                             " differs from the " + model_kind_name(kind) +
                             " architecture; delete the file to retrain");
  };
  if (got.size() != want.size()) stale("layer count");
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i]->name() != want[i]->name() || got[i]->kind() != want[i]->kind())
      stale("layer " + std::to_string(i) + " ('" + got[i]->name() + "')");
  const std::vector<nn::ParamRef> got_p = net.params();
  const std::vector<nn::ParamRef> want_p = expected.params();
  if (got_p.size() != want_p.size()) stale("parameter count");
  for (std::size_t i = 0; i < got_p.size(); ++i)
    if (got_p[i].name != want_p[i].name ||
        got_p[i].value->shape() != want_p[i].value->shape())
      stale("parameter '" + got_p[i].name + "'");
  return net;
}

// The dense-phase network: loaded from its cache, or trained on `train`
// and cached.  Nothing is evaluated here.
nn::Network dense_network(ModelKind kind, const TrainRecipe& recipe,
                          const nn::Dataset& train,
                          const std::string& cache_dir) {
  const std::string path = cache_path(kind, recipe, cache_dir);
  if (std::filesystem::exists(path)) {
    RRP_LOG_INFO << "loading trained " << model_kind_name(kind) << " from "
                 << path;
    return load_checked(kind, path);
  }

  RRP_LOG_INFO << "training " << model_kind_name(kind) << " ("
               << recipe.epochs << " epochs, " << recipe.train_samples
               << " samples)";
  Rng init_rng(recipe.init_seed);
  nn::Network net = build_model(kind, init_rng);

  nn::SgdConfig sgd;
  sgd.epochs = recipe.epochs;
  sgd.lr = recipe.lr;
  sgd.batch_size = recipe.batch_size;
  Rng train_rng(recipe.data_seed + 1);
  nn::train_sgd(net, train, sgd, train_rng);

  std::filesystem::create_directories(cache_dir);
  nn::save_network(net, path);
  return net;
}
}  // namespace

void make_datasets(const TrainRecipe& recipe, nn::Dataset& train,
                   nn::Dataset& eval) {
  sim::VisionTaskConfig task;
  Rng train_rng(recipe.data_seed);
  Rng eval_rng(recipe.data_seed ^ 0x5EEDBEEFull);
  train = sim::make_dataset(recipe.train_samples, task, train_rng);
  eval = sim::make_dataset(recipe.eval_samples, task, eval_rng);
}

TrainedModel get_trained(ModelKind kind, const TrainRecipe& recipe,
                         const std::string& cache_dir) {
  TrainedModel out;
  make_datasets(recipe, out.train_data, out.eval_data);
  out.net = dense_network(kind, recipe, out.train_data, cache_dir);
  out.eval_accuracy = nn::evaluate_accuracy(out.net, out.eval_data);
  RRP_LOG_INFO << model_kind_name(kind) << " dense eval acc "
               << out.eval_accuracy;
  return out;
}

ProvisionedModel get_provisioned(ModelKind kind,
                                 const TrainRecipe& train_recipe,
                                 const LevelRecipe& level_recipe,
                                 const std::string& cache_dir) {
  ProvisionedModel out;
  make_datasets(train_recipe, out.train_data, out.eval_data);
  nn::Network dense =
      dense_network(kind, train_recipe, out.train_data, cache_dir);

  // The ladder is always derived from the dense-phase weights so that a
  // cache reload reproduces the exact same masks.
  const nn::Shape in_shape = zoo_input_shape();
  out.levels =
      level_recipe.structured
          ? prune::PruneLevelLibrary::build_structured(
                dense, level_recipe.ratios, in_shape,
                prune::ImportanceMetric::L1, /*min_channels=*/2)
          : prune::PruneLevelLibrary::build_unstructured(dense,
                                                         level_recipe.ratios);

  const std::string path =
      co_cache_path(kind, train_recipe, level_recipe, cache_dir);
  if (std::filesystem::exists(path)) {
    RRP_LOG_INFO << "loading co-trained " << model_kind_name(kind) << " from "
                 << path;
    out.net = load_checked(kind, path);
  } else {
    RRP_LOG_INFO << "co-training " << model_kind_name(kind) << " over "
                 << out.levels.level_count() << " levels ("
                 << level_recipe.co_train_epochs << " epochs)";
    out.net = std::move(dense);
    core::CoTrainConfig cfg;
    cfg.epochs = level_recipe.co_train_epochs;
    Rng rng(train_recipe.data_seed + 99);
    core::co_train_levels(out.net, out.levels, out.train_data, nn::Dataset{},
                          cfg, rng);
    std::filesystem::create_directories(cache_dir);
    nn::save_network(out.net, path);
  }

  // Switchable BN: calibrate per-level statistics.  It is deterministic,
  // so it is recomputed on every load rather than widening the cache
  // format: at eval cost it takes 0.31-0.41 s of a warm detnet load at
  // RRP_THREADS=1 on a 4-vCPU VM (DESIGN.md "Provisioning").
  const bool has_bn = !core::capture_bn_state(out.net).empty();
  if (has_bn) {
    Rng calib_rng(train_recipe.data_seed + 7);
    out.bn_states = core::calibrate_bn_per_level(
        out.net, out.levels, out.train_data, core::BnCalibrationConfig{},
        calib_rng);
  }
  return out;
}

std::vector<double> level_accuracy(ProvisionedModel& pm) {
  std::vector<double> acc;
  core::ReversiblePruner probe(pm.net, pm.levels);
  if (!pm.bn_states.empty()) probe.set_bn_states(pm.bn_states);
  for (int k = 0; k < pm.levels.level_count(); ++k) {
    probe.set_level(k);
    acc.push_back(nn::evaluate_accuracy(pm.net, pm.eval_data));
  }
  probe.set_level(0);
  return acc;
}

std::vector<ProvisionedModel> get_provisioned_all(
    const std::vector<ModelKind>& kinds, const TrainRecipe& train_recipe,
    const LevelRecipe& level_recipe, const std::string& cache_dir) {
  std::vector<ProvisionedModel> out(kinds.size());
  // Each model trains/loads into its own slot and its own cache files;
  // nested kernel parallelism inside a worker degrades gracefully to the
  // serial path via the pool's reentrancy guard.
  parallel_for(0, static_cast<std::int64_t>(kinds.size()), 1,
               [&](std::int64_t begin, std::int64_t end) {
                 for (std::int64_t i = begin; i < end; ++i)
                   out[static_cast<std::size_t>(i)] = get_provisioned(
                       kinds[static_cast<std::size_t>(i)], train_recipe,
                       level_recipe, cache_dir);
               });
  return out;
}

core::ReversiblePruner ProvisionedModel::make_pruner() {
  core::ReversiblePruner pruner(net, levels);
  if (!bn_states.empty()) pruner.set_bn_states(bn_states);
  return pruner;
}

core::CompactedLadderProvider ProvisionedModel::make_fast_provider(
    const nn::Shape& input_shape) {
  return core::CompactedLadderProvider(net, levels, input_shape, bn_states);
}

}  // namespace rrp::models
