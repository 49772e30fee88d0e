// trained_cache.h — train-once model provisioning for tests and benches.
//
// Every experiment binary needs *trained* weights; retraining in each
// process would dominate runtime, so trained networks are cached on disk
// (serialized via nn/serialize) keyed by model name + training recipe
// version.  Datasets are regenerated deterministically from fixed seeds —
// only weights need persistence.  Caches live under cache/ (gitignored,
// auto-created on first save); delete cache/*.rrpn to force retraining.
#pragma once

#include "core/reversible_pruner.h"
#include "models/zoo.h"
#include "prune/levels.h"

namespace rrp::models {

struct TrainRecipe {
  std::size_t train_samples = 4000;
  std::size_t eval_samples = 1000;
  int epochs = 10;
  float lr = 0.05f;
  int batch_size = 32;
  std::uint64_t data_seed = 20240325;   ///< DATE'24 ASD day one
  std::uint64_t init_seed = 77;
  /// Bump to invalidate existing caches when the recipe changes.
  int version = 4;
};

struct TrainedModel {
  nn::Network net;
  nn::Dataset train_data;
  nn::Dataset eval_data;
  double eval_accuracy = 0.0;
};

/// Deterministically regenerates the task datasets of the recipe.
void make_datasets(const TrainRecipe& recipe, nn::Dataset& train,
                   nn::Dataset& eval);

/// Returns a trained model, loading from `cache_dir` when possible and
/// training + caching otherwise, with its dense eval accuracy.  A cache
/// file whose architecture is not build_model(kind)'s throws
/// SerializationError.  Thread-compatible (not thread-safe).
TrainedModel get_trained(ModelKind kind, const TrainRecipe& recipe = {},
                         const std::string& cache_dir = "cache");

/// How the nested pruning-level ladder is built and co-trained.
struct LevelRecipe {
  std::vector<double> ratios = {0.0, 0.3, 0.5, 0.7, 0.85};
  bool structured = true;
  int co_train_epochs = 5;
  int version = 4;  ///< bump to invalidate co-trained caches
};

/// A deployment-ready model: co-trained shared weights plus the nested
/// level library (built from the dense-phase weights, so it is identical
/// on every load) and the per-level BN statistics.
struct ProvisionedModel {
  nn::Network net;                    ///< co-trained shared weights
  prune::PruneLevelLibrary levels;
  std::vector<core::BnState> bn_states;  ///< switchable BN (empty if no BN)
  nn::Dataset train_data;
  nn::Dataset eval_data;

  /// Builds a masked-mode provider with switchable BN installed.
  core::ReversiblePruner make_pruner();

  /// Builds the sparsity-realizing fast-path provider: the provisioned
  /// compacted ladder on the frame path plus the masked golden arm, with
  /// per-level BN statistics baked into each compacted clone.
  core::CompactedLadderProvider make_fast_provider(
      const nn::Shape& input_shape);
};

/// Dense-train (cached) → build nested levels → co-train (cached) →
/// calibrate per-level BN.  A warm call loads both networks and evaluates
/// nothing; level_accuracy() measures the ladder on demand.  Cache files
/// are checked against build_model(kind) as in get_trained.
ProvisionedModel get_provisioned(ModelKind kind,
                                 const TrainRecipe& train_recipe = {},
                                 const LevelRecipe& level_recipe = {},
                                 const std::string& cache_dir = "cache");

/// Eval accuracy of `pm` at each level (index == level), masked and with
/// its BN states installed.  Leaves pm.net bit-identical.
std::vector<double> level_accuracy(ProvisionedModel& pm);

/// Provisions several models concurrently on the process thread pool (one
/// model per pool task; each model's training pipeline is seeded
/// independently and touches only its own cache files).  Results are in
/// `kinds` order and identical to sequential get_provisioned calls for any
/// RRP_THREADS value.
std::vector<ProvisionedModel> get_provisioned_all(
    const std::vector<ModelKind>& kinds, const TrainRecipe& train_recipe = {},
    const LevelRecipe& level_recipe = {}, const std::string& cache_dir = "cache");

}  // namespace rrp::models
