#include "core/policies.h"

#include <algorithm>
#include <limits>

#include "util/checks.h"

namespace rrp::core {

namespace {
int cap_for(const SafetyConfig& cfg, CriticalityClass c, int level_count) {
  const int cap =
      cfg.max_level_for[static_cast<std::size_t>(static_cast<int>(c))];
  return std::min(cap, level_count - 1);
}

/// Shared hysteresis step: relaxing (target < current) is immediate;
/// pruning harder (target > current) requires `k` consecutive frames
/// proposing the same-or-higher target.
int hysteresis_step(int target, int current, int k, int& frames_waiting,
                    int& pending_target) {
  if (target <= current) {
    frames_waiting = 0;
    pending_target = -1;
    return target;
  }
  if (pending_target == target) {
    ++frames_waiting;
  } else {
    pending_target = target;
    frames_waiting = 1;
  }
  if (frames_waiting >= k) {
    frames_waiting = 0;
    pending_target = -1;
    return target;
  }
  return current;
}
}  // namespace

CriticalityGreedyPolicy::CriticalityGreedyPolicy(SafetyConfig certified,
                                                 int hysteresis_frames,
                                                 int level_count)
    : certified_(certified),
      hysteresis_frames_(hysteresis_frames),
      level_count_(level_count) {
  RRP_CHECK(hysteresis_frames >= 1);
  RRP_CHECK(level_count >= 1);
}

int CriticalityGreedyPolicy::decide(const ControlInput& in,
                                    int current_level) {
  const int target = cap_for(certified_, in.criticality, level_count_);
  return hysteresis_step(target, current_level, hysteresis_frames_,
                         frames_waiting_, pending_target_);
}

void CriticalityGreedyPolicy::reset() {
  frames_waiting_ = 0;
  pending_target_ = -1;
}

DeadlinePolicy::DeadlinePolicy(LevelProfile profile, double margin)
    : profile_(std::move(profile)), margin_(margin) {
  RRP_CHECK(profile_.count() >= 1);
  RRP_CHECK(margin > 0.0 && margin <= 1.0);
}

int DeadlinePolicy::decide(const ControlInput& in, int current_level) {
  (void)current_level;
  const double budget = in.deadline_ms * margin_;
  for (int k = 0; k < profile_.count(); ++k)
    if (profile_.latency_ms[static_cast<std::size_t>(k)] <= budget) return k;
  return profile_.count() - 1;  // nothing fits; prune as hard as possible
}

HybridPolicy::HybridPolicy(SafetyConfig certified, LevelProfile profile,
                           int hysteresis_frames, double deadline_margin,
                           double energy_low_watermark)
    : certified_(certified),
      profile_(std::move(profile)),
      hysteresis_frames_(hysteresis_frames),
      deadline_margin_(deadline_margin),
      energy_low_watermark_(energy_low_watermark) {
  RRP_CHECK(profile_.count() >= 1);
  RRP_CHECK(hysteresis_frames >= 1);
  RRP_CHECK(deadline_margin > 0.0 && deadline_margin <= 1.0);
  RRP_CHECK(energy_low_watermark >= 0.0 && energy_low_watermark <= 1.0);
}

int HybridPolicy::decide(const ControlInput& in, int current_level) {
  const int count = profile_.count();
  // (a) criticality cap: the most accuracy the scene demands.
  const int crit_cap = cap_for(certified_, in.criticality, count);

  // (b) deadline: least-pruned feasible level.
  int deadline_floor = count - 1;
  const double budget = in.deadline_ms * deadline_margin_;
  for (int k = 0; k < count; ++k) {
    if (profile_.latency_ms[static_cast<std::size_t>(k)] <= budget) {
      deadline_floor = k;
      break;
    }
  }

  // (c) energy pressure: once the remaining budget dips under the
  // watermark, escalate toward the criticality cap proportionally.
  int target = std::min(crit_cap, std::max(deadline_floor, 0));
  if (in.energy_budget_frac < energy_low_watermark_) target = crit_cap;
  else if (deadline_floor < crit_cap) {
    // With deadline headroom, still use the energy-optimal (deepest
    // admissible) level when budget is below 2x watermark.
    if (in.energy_budget_frac < 2.0 * energy_low_watermark_)
      target = crit_cap;
    else
      target = std::max(deadline_floor, crit_cap > 0 ? crit_cap - 1 : 0);
  }
  target = std::min(target, crit_cap);

  return hysteresis_step(target, current_level, hysteresis_frames_,
                         frames_waiting_, pending_target_);
}

void HybridPolicy::reset() {
  frames_waiting_ = 0;
  pending_target_ = -1;
}

OraclePolicy::OraclePolicy(SafetyConfig certified,
                           std::vector<CriticalityClass> future_criticality,
                           int lookahead_frames)
    : certified_(certified),
      future_(std::move(future_criticality)),
      lookahead_(lookahead_frames) {
  RRP_CHECK(lookahead_frames >= 0);
}

int OraclePolicy::decide(const ControlInput& in, int current_level) {
  (void)current_level;
  // Worst criticality over [frame, frame + lookahead] dictates the level —
  // the oracle is already safe when the hazard arrives.
  CriticalityClass worst = in.criticality;
  const std::int64_t last = std::min(
      in.frame + lookahead_, static_cast<std::int64_t>(future_.size()) - 1);
  for (std::int64_t f = in.frame; f >= 0 && f <= last; ++f)
    worst = std::max(worst, future_[static_cast<std::size_t>(f)]);
  return cap_for(certified_, worst, 1 << 20);
}

FixedPolicy::FixedPolicy(int level)
    : name_("fixed-L" + std::to_string(level)), level_(level) {
  RRP_CHECK(level >= 0);
}

int FixedPolicy::decide(const ControlInput& in, int current_level) {
  (void)in;
  (void)current_level;
  return level_;
}

int parse_policy_name(const std::string& name) {
  if (name == "greedy") return -1;
  const auto bad = [&name]() {
    throw PreconditionError("unknown policy '" + name +
                            "' (expected greedy or fixed<K>, K a decimal "
                            "ladder level)");
  };
  if (name.rfind("fixed", 0) != 0 || name.size() == 5) bad();
  int level = 0;
  for (std::size_t i = 5; i < name.size(); ++i) {
    const int digit = name[i] - '0';
    // The bound keeps level * 10 + digit inside int.
    if (digit < 0 || digit > 9 ||
        level > (std::numeric_limits<int>::max() - digit) / 10)
      bad();
    level = level * 10 + digit;
  }
  return level;
}

std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const SafetyConfig& certified,
                                    int hysteresis, int level_count) {
  const int level = parse_policy_name(name);
  if (level < 0)
    return std::make_unique<CriticalityGreedyPolicy>(certified, hysteresis,
                                                     level_count);
  if (level >= level_count)
    throw PreconditionError("policy '" + name + "': level " +
                            std::to_string(level) + " outside a ladder of " +
                            std::to_string(level_count) + " levels");
  return std::make_unique<FixedPolicy>(level);
}

}  // namespace rrp::core
