// perception_criticality.h — criticality derived from the perception
// output itself.
//
// The TTC criticality in criticality.h models an INDEPENDENT ranging
// channel (radar-like).  A cheaper system might gate its own pruning from
// the camera classifier alone: any detected actor raises criticality,
// confident persistent detections raise it further.  That closes a
// feedback loop with a known hazard — a pruned network that MISSES the
// actor also fails to raise the criticality that would have restored it
// (self-triggering).  Experiment R-T5 quantifies the hazard and the
// conservative-floor mitigation.
//
// Without range information the estimator never reports Critical: that
// honesty is part of the argument for the independent channel.
#pragma once

#include <span>

#include "core/safety_monitor.h"

namespace rrp::sim {

class PerceptionCriticality {
 public:
  struct Config {
    /// Softmax confidence above which a detection counts as "confident".
    double high_confidence = 0.8;
    /// Confident consecutive detections needed before reporting High.
    int confirm_frames = 2;
    /// Frames a lost track keeps its last class before decaying.
    int hold_frames = 3;
  };

  PerceptionCriticality();  // default configuration
  explicit PerceptionCriticality(Config config);

  /// Feeds one frame's prediction (argmax label over kNumClasses, with the
  /// raw logits row for confidence, read in place) and returns the updated
  /// criticality.
  core::CriticalityClass update(int predicted_label,
                                std::span<const float> logits_row);

  core::CriticalityClass current() const { return current_; }
  void reset();

 private:
  Config config_;
  core::CriticalityClass current_ = core::CriticalityClass::Low;
  int confident_streak_ = 0;
  int hold_left_ = 0;
};

}  // namespace rrp::sim
