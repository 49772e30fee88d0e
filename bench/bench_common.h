// bench_common.h — shared setup for the experiment-reproduction binaries.
//
// Every bench binary regenerates one reconstructed table/figure (see
// DESIGN.md §3 and EXPERIMENTS.md).  Models are provisioned through the
// disk cache (cache_*.rrpn in $RRP_CACHE_DIR, default "cache"), so the
// first ever run trains them (~4 min total) and every later run starts in
// milliseconds.
#pragma once

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "core/baselines.h"
#include "models/trained_cache.h"
#include "sim/runner.h"
#include "sim/scenario_gen.h"
#include "util/cli.h"
#include "util/csv.h"
#include "util/stats.h"
#include "util/timer.h"

namespace rrp::bench {

inline std::string cache_dir() {
  const char* dir = std::getenv("RRP_CACHE_DIR");
  return dir != nullptr && *dir != '\0' ? dir : "cache";
}

/// The standard experiment recipe (matches the shipped cache files).
inline models::TrainRecipe standard_train_recipe() {
  return models::TrainRecipe{};  // defaults: 10 epochs, 4k samples
}

inline models::LevelRecipe standard_level_recipe() {
  return models::LevelRecipe{};  // {0, .3, .5, .7, .85}, structured, co 5
}

inline models::ProvisionedModel provision(models::ModelKind kind) {
  return models::get_provisioned(kind, standard_train_recipe(),
                                 standard_level_recipe(), cache_dir());
}

/// The certified safety ladder used across experiments: Critical -> full
/// network, High -> <= level 1, Medium -> <= level 3, Low -> anything.
inline core::SafetyConfig standard_certified() {
  core::SafetyConfig c;
  c.max_level_for = {4, 3, 1, 0};
  return c;
}

/// Platform + loop configuration shared by closed-loop experiments.
/// The 12 ms deadline fits the largest model (detnet, ~10 ms at level 0)
/// so NoPrune remains a meaningful baseline.
inline sim::RunConfig standard_run_config() {
  sim::RunConfig cfg;
  cfg.deadline_ms = 12.0;
  cfg.noise_seed = 424242;
  return cfg;
}

/// The value of the 0|1 switch at argv[i] (`--gate 1`), stepping i past
/// it.  A missing value or anything but 0 or 1 ("10", "true") prints one
/// diagnostic and exits 2, before any model is provisioned.
inline bool switch_arg(int argc, char** argv, int& i) {
  const std::string flag = argv[i];
  if (i + 1 >= argc) {
    std::cerr << flag << " expects a value\n";
    std::exit(2);
  }
  const std::optional<bool> on = parse_switch(argv[++i]);
  if (!on) {
    std::cerr << flag << " expects 0 or 1, got '" << argv[i] << "'\n";
    std::exit(2);
  }
  return *on;
}

inline void print_banner(const std::string& experiment,
                         const std::string& description) {
  std::cout << "\n=== " << experiment << " — " << description << " ===\n";
}

}  // namespace rrp::bench
