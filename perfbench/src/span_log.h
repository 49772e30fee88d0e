// span_log.h — in-memory spans and the timing decorators of the traced run.
//
// A span is one timed call: name, start, end, parent span and the frame
// index it belongs to (the id shared by every span of one frame).  Spans
// are appended to a preallocated vector while the traced segment runs and
// written out as CSV only when the benchmark ends, so the traced run pays
// for two clock reads and one store per span — never for I/O.
//
// TimedProvider and TimedPolicy wrap the provider and policy that a
// core::RuntimeController drives, so every infer / set_level / decide call
// FrameEngine::step makes becomes a child span of that frame's "frame"
// span.  The decorators delegate everything else unchanged, so the run's
// telemetry is byte-identical with and without them.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/controller.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds between two steady-clock readings.
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int64_t frame = -1;
  std::int32_t parent = -1;  ///< index into SpanLog::spans(); -1: root
  Clock::time_point start;
  Clock::time_point end;

  double us() const { return us_between(start, end); }
};

/// Single-threaded span recorder with an explicit open-span stack.
class SpanLog {
 public:
  /// Reserves room for `capacity` spans; open() must not be called more
  /// often than that (it would allocate inside the traced frames).
  explicit SpanLog(std::size_t capacity) {
    spans_.reserve(capacity);
    open_.reserve(16);
  }

  void set_frame(std::int64_t frame) { frame_ = frame; }
  /// Opens a span as a child of the innermost open span.
  std::int32_t open(const char* name);
  void close(std::int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// id,parent,frame,name,start_us,end_us — times relative to the first span.
  void write_csv(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::int64_t frame_ = -1;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name) : log_(log), id_(log.open(name)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Times every infer / set_level call into `inner` as a span.
class TimedProvider : public rrp::core::InferenceProvider {
 public:
  TimedProvider(rrp::core::InferenceProvider& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  const std::string& name() const override { return inner_.name(); }
  rrp::nn::Tensor infer(const rrp::nn::Tensor& x) override;
  rrp::core::TransitionStats set_level(int level) override;
  int current_level() const override { return inner_.current_level(); }
  int level_count() const override { return inner_.level_count(); }
  std::int64_t active_macs(const rrp::nn::Shape& input_shape) override {
    return inner_.active_macs(input_shape);
  }
  std::int64_t resident_weight_bytes() override {
    return inner_.resident_weight_bytes();
  }

  /// Transitions that moved to a lower level, and the weight bytes they
  /// wrote (plain totals: the decorator itself never allocates).
  std::int64_t restore_count() const { return restore_count_; }
  std::int64_t restore_bytes() const { return restore_bytes_; }

 private:
  rrp::core::InferenceProvider& inner_;
  SpanLog& log_;
  std::int64_t restore_count_ = 0;
  std::int64_t restore_bytes_ = 0;
};

/// Times every decide call into `inner` as a span.
class TimedPolicy : public rrp::core::Policy {
 public:
  TimedPolicy(rrp::core::Policy& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  const std::string& name() const override { return inner_.name(); }
  int decide(const rrp::core::ControlInput& in, int current_level) override;
  void reset() override { inner_.reset(); }

 private:
  rrp::core::Policy& inner_;
  SpanLog& log_;
};

}  // namespace perfbench
