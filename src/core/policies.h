// policies.h — level-selection policies (the "Plan" of the MAPE-K loop).
//
// A policy maps the monitored state (criticality, deadline, energy budget)
// to a desired pruning level; the SafetyMonitor then screens that desire
// against the certified ladder.  Policies are deliberately simple and
// inspectable — this is a safety-oriented runtime, not an RL agent.
#pragma once

#include <memory>
#include <string>

#include "core/safety_monitor.h"

namespace rrp::core {

/// Offline-profiled characteristics of each pruning level, given to
/// deadline/energy-aware policies (produced by profile_levels() in sim).
struct LevelProfile {
  std::vector<double> latency_ms;  ///< per level, batch-1 inference
  std::vector<double> energy_mj;   ///< per level, batch-1 inference
  std::vector<double> accuracy;    ///< per level, validation accuracy

  int count() const { return static_cast<int>(latency_ms.size()); }
};

/// Everything the controller monitors about one frame, before inference.
struct ControlInput {
  std::int64_t frame = 0;
  CriticalityClass criticality = CriticalityClass::Low;
  double deadline_ms = 10.0;         ///< per-frame latency budget
  double energy_budget_frac = 1.0;   ///< remaining fraction of energy budget
};

/// Base class for level-selection policies.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual const std::string& name() const = 0;
  /// Proposes a level for this frame (pre-safety-screening).
  virtual int decide(const ControlInput& in, int current_level) = 0;
  virtual void reset() {}
};

/// Criticality-greedy with hysteresis: always run at the maximum level the
/// criticality class admits (maximum savings), but require
/// `hysteresis_frames` consecutive frames of headroom before pruning
/// HARDER; relaxing (restoring accuracy) is immediate — that asymmetry is
/// the safety-critical direction.
class CriticalityGreedyPolicy : public Policy {
 public:
  CriticalityGreedyPolicy(SafetyConfig certified, int hysteresis_frames,
                          int level_count);

  const std::string& name() const override { return name_; }
  int decide(const ControlInput& in, int current_level) override;
  void reset() override;

 private:
  std::string name_ = "criticality-greedy";
  SafetyConfig certified_;
  int hysteresis_frames_;
  int level_count_;
  int frames_waiting_ = 0;
  int pending_target_ = -1;
};

/// Deadline-first: the least-pruned level whose profiled latency fits the
/// frame deadline (ignores criticality — used in the ablation).
class DeadlinePolicy : public Policy {
 public:
  DeadlinePolicy(LevelProfile profile, double margin = 0.9);

  const std::string& name() const override { return name_; }
  int decide(const ControlInput& in, int current_level) override;

 private:
  std::string name_ = "deadline";
  LevelProfile profile_;
  double margin_;
};

/// Hybrid: criticality cap + deadline feasibility + energy pressure.
/// Picks the least-pruned level that (a) respects the criticality cap is
/// NOT enforced here (the SafetyMonitor does that), (b) meets the frame
/// deadline, and (c) when the energy budget runs low, escalates pruning
/// proportionally.  Upward (more pruning) moves go through hysteresis.
class HybridPolicy : public Policy {
 public:
  HybridPolicy(SafetyConfig certified, LevelProfile profile,
               int hysteresis_frames, double deadline_margin = 0.9,
               double energy_low_watermark = 0.25);

  const std::string& name() const override { return name_; }
  int decide(const ControlInput& in, int current_level) override;
  void reset() override;

 private:
  std::string name_ = "hybrid";
  SafetyConfig certified_;
  LevelProfile profile_;
  int hysteresis_frames_;
  double deadline_margin_;
  double energy_low_watermark_;
  int frames_waiting_ = 0;
  int pending_target_ = -1;
};

/// Oracle: sees the future criticality trace and restores BEFORE hazards
/// materialize; upper-bounds what any causal policy can achieve.
class OraclePolicy : public Policy {
 public:
  OraclePolicy(SafetyConfig certified,
               std::vector<CriticalityClass> future_criticality,
               int lookahead_frames);

  const std::string& name() const override { return name_; }
  int decide(const ControlInput& in, int current_level) override;

 private:
  std::string name_ = "oracle";
  SafetyConfig certified_;
  std::vector<CriticalityClass> future_;
  int lookahead_;
};

/// No adaptation at all: always proposes `level` (NoPrune == level 0).
class FixedPolicy : public Policy {
 public:
  explicit FixedPolicy(int level);
  const std::string& name() const override { return name_; }
  int decide(const ControlInput& in, int current_level) override;

 private:
  std::string name_;
  int level_;
};

/// The closed-loop policy vocabulary every driver shares (serve streams,
/// the fault and Monte-Carlo campaigns, the black box and the CLI):
/// "greedy", or "fixed<K>" with K one or more decimal digits.  Returns K,
/// or -1 for "greedy".  Anything else throws rrp::PreconditionError with a
/// diagnostic that names the vocabulary.
int parse_policy_name(const std::string& name);

/// Builds the named policy: CriticalityGreedyPolicy(certified, hysteresis,
/// level_count) for "greedy", FixedPolicy(K) for "fixed<K>".  Throws as
/// parse_policy_name does, and when K >= level_count.
std::unique_ptr<Policy> make_policy(const std::string& name,
                                    const SafetyConfig& certified,
                                    int hysteresis, int level_count);

}  // namespace rrp::core
