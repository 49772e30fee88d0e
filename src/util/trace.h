// trace.h — deterministic nested span tracing (DESIGN.md §8).
//
// `RRP_SPAN("name")` opens an RAII scope that records a span on the
// process-wide timeline.  The layer is built to serve as a *regression
// oracle*, so its default output is bit-reproducible:
//
//   * Timestamps are a monotonically increasing EVENT SEQUENCE COUNTER,
//     not wall-clock.  Every span begin/end consumes one tick, so the
//     timeline orders events without ever reading a clock.
//   * Modeled time (the platform-model microseconds the simulator charges
//     a frame) is attached to spans explicitly via `add_modeled_us`; it is
//     pure arithmetic and byte-exact across RRP_THREADS.
//   * Spans opened inside a ThreadPool parallel region (worker chunks AND
//     the inline chunks the caller runs itself) are suppressed, so the
//     recorded stream is identical for any thread count, including 1.
//   * Wall-clock capture is OFF by default.  `set_wall_clock(true)` adds a
//     wall_us column/arg for profiling; doing so forfeits byte-identity
//     and is never used by tests or golden traces.
//
// Recording is single-threaded by contract: spans are only recorded on
// the thread that drives the pool (suppression enforces this — any thread
// executing pool chunks is inside a parallel region).  Tracing is off by
// default; enable with `set_enabled(true)` or the RRP_TRACE=1 env var.
//
// Exporters: Chrome trace_event JSON (chrome://tracing / Perfetto) and a
// per-frame span CSV.  See core/metrics.h for the counterpart metrics
// registry snapshot.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace rrp::trace {

namespace detail {
extern std::atomic<bool> g_enabled;  // defined in trace.cpp
}

/// One closed span on the timeline.  `begin_seq`/`end_seq` are event
/// sequence ticks (deterministic); `modeled_us` is platform-model time
/// attributed by the instrumentation site; `items` is a site-defined
/// payload (FLOPs, elements, bytes...); `wall_us` is 0 unless wall-clock
/// capture was enabled.
struct SpanRecord {
  std::string name;
  std::int32_t depth = 0;    // nesting depth at open (0 = top level)
  std::int64_t frame = -1;   // simulator frame tag, -1 outside a frame
  std::int64_t begin_seq = 0;
  std::int64_t end_seq = 0;
  double modeled_us = 0.0;
  std::int64_t items = 0;
  double wall_us = 0.0;
};

/// Fast path: one relaxed atomic load when tracing is off.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

/// Wall-clock capture (adds wall_us; forfeits byte-identity). Off by
/// default and independent of `enabled()`.
void set_wall_clock(bool on);

/// Drops all records and restarts the sequence counter at 0.  Open Span
/// objects from before the reset become inert (their end is discarded).
void reset();

/// Tags subsequently opened spans with a simulator frame index (-1 =
/// untagged).  Prefer the ScopedFrame RAII helper.
void set_frame(std::int64_t frame);
std::int64_t current_frame();

/// Closed spans in completion order.  Invalidated by reset().
const std::vector<SpanRecord>& spans();

/// Spans discarded because the record cap was hit (bounded memory).
std::int64_t dropped_spans();

/// RAII span scope.  Construction/destruction cost when tracing is off or
/// inside a parallel region: one relaxed load (+ one branch).
class Span {
 public:
  explicit Span(const char* name) {
    if (enabled()) begin_(name);
  }
  ~Span() {
    if (slot_ >= 0) end_();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span is actually being recorded.
  bool active() const { return slot_ >= 0; }

  /// Attributes platform-model time / a payload count to this span.
  void add_modeled_us(double us);
  void add_items(std::int64_t n);

 private:
  void begin_(const char* name);
  void end_();

  std::int64_t slot_ = -1;        // index into the record vector, -1 = inert
  std::uint32_t generation_ = 0;  // guards against reset() mid-span
};

/// RAII frame tag: set_frame(frame) now, restore the previous tag on exit.
class ScopedFrame {
 public:
  explicit ScopedFrame(std::int64_t frame) : saved_(current_frame()) {
    set_frame(frame);
  }
  ~ScopedFrame() { set_frame(saved_); }
  ScopedFrame(const ScopedFrame&) = delete;
  ScopedFrame& operator=(const ScopedFrame&) = delete;

 private:
  std::int64_t saved_;
};

/// Chrome trace_event JSON ("X" complete events, ts/dur in sequence
/// ticks, modeled_us/items/frame in args).  Loads in about:tracing and
/// Perfetto.
void write_chrome_trace(std::ostream& out);

/// Per-frame span CSV: id,frame,depth,name,begin_seq,end_seq,modeled_us,
/// items (+wall_us when wall-clock capture is on).
void write_span_csv(std::ostream& out);

std::string chrome_trace_string();
std::string span_csv_string();

}  // namespace rrp::trace

#define RRP_TRACE_CAT2(a, b) a##b
#define RRP_TRACE_CAT(a, b) RRP_TRACE_CAT2(a, b)
/// Opens a span for the rest of the enclosing scope.
#define RRP_SPAN(name) \
  ::rrp::trace::Span RRP_TRACE_CAT(rrp_span_, __LINE__)(name)
/// Same, but names the Span object so the site can add payloads.
#define RRP_SPAN_VAR(var, name) ::rrp::trace::Span var(name)
