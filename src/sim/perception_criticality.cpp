#include "sim/perception_criticality.h"

#include <algorithm>
#include <cmath>

#include "sim/scenario.h"
#include "util/checks.h"

namespace rrp::sim {

using core::CriticalityClass;

PerceptionCriticality::PerceptionCriticality()
    : PerceptionCriticality(Config{}) {}

PerceptionCriticality::PerceptionCriticality(Config config)
    : config_(config) {
  RRP_CHECK(config_.high_confidence > 0.0 && config_.high_confidence <= 1.0);
  RRP_CHECK(config_.confirm_frames >= 1);
  RRP_CHECK(config_.hold_frames >= 0);
}

// rrp-frame-path: the perception-derived criticality of every frame.
CriticalityClass PerceptionCriticality::update(
    int predicted_label, std::span<const float> logits_row) {
  RRP_CHECK(predicted_label >= 0 && predicted_label < kNumClasses);
  RRP_CHECK_MSG(static_cast<std::size_t>(predicted_label) < logits_row.size(),
                "expected a logits row over the classes");

  // Softmax confidence of the predicted class.
  const std::span<const float> data = logits_row;
  float max_logit = data[0];
  for (float v : data) max_logit = std::max(max_logit, v);
  double z = 0.0;
  for (float v : data) z += std::exp(static_cast<double>(v) - max_logit);
  const double confidence =
      std::exp(static_cast<double>(
          data[static_cast<std::size_t>(predicted_label)]) -
               max_logit) /
      z;

  const bool detection = predicted_label != kClearLabel;
  if (detection) {
    hold_left_ = config_.hold_frames;
    if (confidence >= config_.high_confidence) ++confident_streak_;
    else confident_streak_ = 0;
    current_ = confident_streak_ >= config_.confirm_frames
                   ? CriticalityClass::High
                   : CriticalityClass::Medium;
  } else {
    confident_streak_ = 0;
    if (hold_left_ > 0) {
      --hold_left_;  // keep the previous assessment briefly (track hold)
    } else {
      current_ = CriticalityClass::Low;
    }
  }
  return current_;
}

void PerceptionCriticality::reset() {
  current_ = CriticalityClass::Low;
  confident_streak_ = 0;
  hold_left_ = 0;
}

}  // namespace rrp::sim
