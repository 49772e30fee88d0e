#include "core/safety_monitor.h"

#include "util/checks.h"

namespace rrp::core {

const char* criticality_name(CriticalityClass c) {
  switch (c) {
    case CriticalityClass::Low: return "Low";
    case CriticalityClass::Medium: return "Medium";
    case CriticalityClass::High: return "High";
    case CriticalityClass::Critical: return "Critical";
  }
  return "?";
}

const char* assurance_kind_name(AssuranceKind k) {
  switch (k) {
    case AssuranceKind::LevelVeto: return "level_veto";
    case AssuranceKind::LevelViolation: return "level_violation";
    case AssuranceKind::IntegrityDetect: return "integrity_detect";
    case AssuranceKind::IntegrityRepair: return "integrity_repair";
    case AssuranceKind::WatchdogDegrade: return "watchdog_degrade";
  }
  return "?";
}

SafetyMonitor::SafetyMonitor(SafetyConfig config) : config_(config) {
  // The certified ladder must be monotone: higher criticality never allows
  // MORE pruning than lower criticality.
  for (int c = 1; c < kCriticalityClasses; ++c)
    RRP_CHECK_MSG(
        config_.max_level_for[static_cast<std::size_t>(c)] <=
            config_.max_level_for[static_cast<std::size_t>(c - 1)],
        "certified max level must be non-increasing in criticality");
  for (int c = 0; c < kCriticalityClasses; ++c)
    RRP_CHECK(config_.max_level_for[static_cast<std::size_t>(c)] >= 0);
}

int SafetyMonitor::certified_max(CriticalityClass c) const {
  return config_.max_level_for[static_cast<std::size_t>(static_cast<int>(c))];
}

int SafetyMonitor::screen(std::int64_t frame, CriticalityClass c,
                          int requested_level) {
  const int cap = certified_max(c);
  const int enforced = requested_level > cap ? cap : requested_level;
  AssuranceRecord rec;
  rec.frame = frame;
  rec.criticality = c;
  rec.requested_level = requested_level;
  rec.enforced_level = enforced;
  rec.veto = enforced != requested_level;
  if (rec.veto) {
    ++veto_count_;
    // rrp-lint-allow(frame-path-alloc): intervention path only — a veto is already an off-nominal frame, and the assurance log is the certification evidence.
    log_.push_back(rec);  // only interventions are logged at screen time
  }
  return enforced;
}

bool SafetyMonitor::audit(std::int64_t frame, CriticalityClass c,
                          int executed_level) {
  ++audited_frames_;
  const int cap = certified_max(c);
  if (executed_level <= cap) return true;
  ++violation_count_;
  AssuranceRecord rec;
  rec.frame = frame;
  rec.criticality = c;
  rec.requested_level = executed_level;
  rec.enforced_level = executed_level;
  rec.kind = AssuranceKind::LevelViolation;
  rec.violation = true;
  // rrp-lint-allow(frame-path-alloc): violation path only — the audit failed, so the frame is already degrading and the record is the certification evidence.
  log_.push_back(rec);
  return false;
}

void SafetyMonitor::record_integrity_detect(std::int64_t frame,
                                            std::int64_t elements,
                                            const std::string& detail) {
  ++integrity_detects_;
  AssuranceRecord rec;
  rec.frame = frame;
  rec.kind = AssuranceKind::IntegrityDetect;
  rec.elements = elements;
  rec.detail = detail;
  // rrp-lint-allow(frame-path-alloc): detection path only — the scrub found corruption, so the frame is already off-nominal and the record is the certification evidence.
  log_.push_back(rec);
}

void SafetyMonitor::record_integrity_repair(std::int64_t frame,
                                            std::int64_t elements,
                                            const std::string& detail) {
  ++integrity_repairs_;
  AssuranceRecord rec;
  rec.frame = frame;
  rec.kind = AssuranceKind::IntegrityRepair;
  rec.elements = elements;
  rec.detail = detail;
  // rrp-lint-allow(frame-path-alloc): repair path only — a detection preceded it in this frame, and the record is the certification evidence.
  log_.push_back(rec);
}

void SafetyMonitor::record_watchdog_degrade(std::int64_t frame,
                                            CriticalityClass c, int from_level,
                                            int forced_level) {
  ++watchdog_degrades_;
  AssuranceRecord rec;
  rec.frame = frame;
  rec.kind = AssuranceKind::WatchdogDegrade;
  rec.criticality = c;
  rec.requested_level = from_level;
  rec.enforced_level = forced_level;
  rec.detail = "deadline watchdog forced certified level";
  // rrp-lint-allow(frame-path-alloc): degrade path only — the deadline watchdog fired, so the frame is already off-nominal and the record is the certification evidence.
  log_.push_back(rec);
}

void SafetyMonitor::clear() {
  log_.clear();
  veto_count_ = violation_count_ = audited_frames_ = 0;
  integrity_detects_ = integrity_repairs_ = watchdog_degrades_ = 0;
}

}  // namespace rrp::core
