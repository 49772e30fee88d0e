#include "core/baselines.h"

#include <cmath>
#include <filesystem>
#include <fstream>

#include "nn/serialize.h"
#include "util/checks.h"
#include "util/timer.h"

namespace rrp::core {
namespace {
// Artifact-read retry: 4 tries in all, retry k (0-based) after a MODELED
// backoff of 200 us * 2^k.  Modeled, not slept, so campaign results stay
// bit-reproducible.
constexpr int kReadAttempts = 4;
constexpr double kBackoffBaseUs = 200.0;
constexpr double kBackoffMult = 2.0;
}  // namespace

StaticProvider::StaticProvider(const nn::Network& net,
                               const prune::PruneLevelLibrary& levels,
                               int fixed_level,
                               const std::vector<BnState>& bn_states)
    : name_("static-L" + std::to_string(fixed_level)),
      net_(net.clone()),
      fixed_level_(fixed_level),
      level_count_(levels.level_count()) {
  RRP_CHECK(fixed_level >= 0 && fixed_level < levels.level_count());
  RRP_CHECK_MSG(bn_states.empty() ||
                    static_cast<int>(bn_states.size()) == levels.level_count(),
                "need exactly one BnState per level");
  levels.mask(fixed_level).apply(net_);
  if (!bn_states.empty())
    apply_bn_state(net_, bn_states[static_cast<std::size_t>(fixed_level)]);
}

nn::Tensor StaticProvider::infer(const nn::Tensor& x) {
  return net_.forward(x, false);
}

TransitionStats StaticProvider::set_level(int level) {
  // Design-time pruning cannot adapt: the request is recorded and ignored.
  TransitionStats stats;
  stats.from_level = fixed_level_;
  stats.to_level = fixed_level_;
  stats.is_restore = level < fixed_level_;
  return stats;
}

// rrp-frame-path-stop: the design-time baseline arm walks its network's
// shapes per call; it is a comparison arm, not a certified frame path.
std::int64_t StaticProvider::active_macs(const nn::Shape& input_shape) {
  return net_.effective_macs(input_shape);
}

std::int64_t StaticProvider::resident_weight_bytes() {
  return net_.param_count() * static_cast<std::int64_t>(sizeof(float));
}

ReloadProvider::ReloadProvider(const nn::Network& net,
                               const prune::PruneLevelLibrary& levels,
                               Source source, std::string artifact_dir,
                               const std::vector<BnState>& bn_states)
    : name_(source == Source::Memory ? "reload-memory" : "reload-disk"),
      source_(source),
      artifact_dir_(std::move(artifact_dir)) {
  RRP_CHECK(levels.level_count() >= 1);
  RRP_CHECK_MSG(bn_states.empty() ||
                    static_cast<int>(bn_states.size()) == levels.level_count(),
                "need exactly one BnState per level");
  if (source_ == Source::Disk) {
    RRP_CHECK_MSG(!artifact_dir_.empty(),
                  "disk reload baseline needs an artifact directory");
    std::filesystem::create_directories(artifact_dir_);
  }
  for (int k = 0; k < levels.level_count(); ++k) {
    nn::Network pruned = net.clone();
    levels.mask(k).apply(pruned);
    if (!bn_states.empty())
      apply_bn_state(pruned, bn_states[static_cast<std::size_t>(k)]);
    blobs_.push_back(nn::serialize_network(pruned));
    if (source_ == Source::Disk) {
      std::ofstream f(path_for(k), std::ios::binary | std::ios::trunc);
      RRP_CHECK_MSG(f.good(), "cannot write artifact " << path_for(k));
      f.write(blobs_.back().data(),
              static_cast<std::streamsize>(blobs_.back().size()));
    }
  }
  active_ = nn::deserialize_network(blobs_[0]);
}

std::string ReloadProvider::path_for(int level) const {
  return artifact_dir_ + "/level_" + std::to_string(level) + ".rrpn";
}

nn::Tensor ReloadProvider::infer(const nn::Tensor& x) {
  return active_.forward(x, false);
}

nn::Network ReloadProvider::load_with_retry(int level, TransitionStats& stats) {
  std::string last_error;
  for (int attempt = 0; attempt < kReadAttempts; ++attempt) {
    if (attempt > 0) {
      stats.backoff_us += kBackoffBaseUs * std::pow(kBackoffMult, attempt - 1);
      ++stats.read_retries;
    }
    try {
      if (injected_read_failures_ > 0) {
        --injected_read_failures_;
        throw SerializationError("injected transient artifact read failure");
      }
      std::string bytes;
      if (source_ == Source::Disk) {
        const std::string path = path_for(level);
        std::ifstream f(path, std::ios::binary);
        if (!f)
          throw SerializationError("cannot open artifact '" + path +
                                   "' for level " + std::to_string(level));
        bytes.assign(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
        if (static_cast<std::int64_t>(bytes.size()) != artifact_bytes(level))
          throw SerializationError(
              "artifact '" + path + "' is truncated: " +
              std::to_string(bytes.size()) + " of " +
              std::to_string(artifact_bytes(level)) + " bytes");
      } else {
        bytes = blobs_[static_cast<std::size_t>(level)];
      }
      nn::Network net = nn::deserialize_network(bytes);
      stats.bytes_written = static_cast<std::int64_t>(bytes.size());
      return net;
    } catch (const Error& e) {
      last_error = e.what();
    }
  }
  throw SerializationError(
      name_ + ": artifact for level " + std::to_string(level) +
      " unreadable after " + std::to_string(kReadAttempts) +
      " attempts — " + last_error);
}

// rrp-frame-path-stop: the reload baseline is the paper's measured
// comparison arm, not a certified frame path — load_with_retry does
// full-artifact IO, allocates a fresh network, and throws
// SerializationError when the store is corrupt by design.
TransitionStats ReloadProvider::set_level(int level) {
  RRP_CHECK_MSG(level >= 0 && level < level_count(),
                "level " << level << " outside [0, " << level_count() << ")");
  TransitionStats stats;
  stats.from_level = current_level_;
  stats.to_level = level;
  stats.is_restore = level < current_level_;
  if (level == current_level_) return stats;

  Timer timer;
  active_ = load_with_retry(level, stats);
  stats.elements_changed = active_.param_count();
  stats.wall_us = timer.elapsed_us();
  current_level_ = level;
  return stats;
}

// rrp-frame-path-stop: recovery-by-reload arm — same full-artifact
// IO/allocation/throw surface as ReloadProvider::set_level above.
TransitionStats ReloadProvider::reload_current() {
  TransitionStats stats;
  stats.from_level = current_level_;
  stats.to_level = current_level_;
  Timer timer;
  active_ = load_with_retry(current_level_, stats);
  stats.elements_changed = active_.param_count();
  stats.wall_us = timer.elapsed_us();
  return stats;
}

// rrp-frame-path-stop: the reload baseline arm, like set_level above.
std::int64_t ReloadProvider::active_macs(const nn::Shape& input_shape) {
  return active_.effective_macs(input_shape);
}

std::int64_t ReloadProvider::resident_weight_bytes() {
  // Only the active model is resident as weights; artifacts live on disk
  // (memory mode additionally keeps the blobs, counted here honestly).
  std::int64_t total =
      active_.param_count() * static_cast<std::int64_t>(sizeof(float));
  if (source_ == Source::Memory)
    for (const auto& b : blobs_) total += static_cast<std::int64_t>(b.size());
  return total;
}

std::int64_t ReloadProvider::artifact_bytes(int level) const {
  RRP_CHECK(level >= 0 && level < level_count());
  return static_cast<std::int64_t>(blobs_[static_cast<std::size_t>(level)].size());
}

}  // namespace rrp::core
