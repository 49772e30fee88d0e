#include "util/trace.h"

#include <cstdlib>
#include <optional>
#include <ostream>
#include <sstream>

#include "util/csv.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rrp::trace {

namespace detail {

namespace {
bool env_trace_on() {
  const char* env = std::getenv("RRP_TRACE");
  return env != nullptr && *env != '\0' && *env != '0';
}
}  // namespace

std::atomic<bool> g_enabled{env_trace_on()};

}  // namespace detail

namespace {

// Bounded so an accidentally always-on trace (e.g. RRP_TRACE=1 under a
// long benchmark) cannot grow without limit; overflow is counted, never
// silent.  The cap is count-based, hence deterministic.
constexpr std::size_t kMaxSpans = 1u << 20;

struct OpenSpan {
  std::int64_t slot = 0;
  std::optional<Timer> timer;  // started only when wall-clock capture is on
};

// All recording state lives here.  Single-threaded by contract: spans are
// suppressed inside pool parallel regions, so only the driving thread
// ever mutates it (see trace.h header comment).
struct TraceState {
  std::vector<SpanRecord> records;
  std::vector<OpenSpan> open;
  std::int64_t seq = 0;
  std::int64_t frame = -1;
  std::int64_t dropped = 0;
  std::uint32_t generation = 0;
  bool wall = false;
};

TraceState& state() {
  static TraceState s;
  return s;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

bool wall_clock_enabled() { return state().wall; }
void set_wall_clock(bool on) { state().wall = on; }

void reset() {
  TraceState& s = state();
  s.records.clear();
  s.open.clear();
  s.seq = 0;
  s.frame = -1;
  s.dropped = 0;
  ++s.generation;  // outstanding Span objects become inert
}

void set_frame(std::int64_t frame) {
  // Same suppression as spans: a run fanned out inside pool chunks must
  // not touch the (single-threaded) recorder state.
  if (ThreadPool::in_parallel_region()) return;
  state().frame = frame;
}
std::int64_t current_frame() { return state().frame; }

const std::vector<SpanRecord>& spans() { return state().records; }
std::int64_t dropped_spans() { return state().dropped; }

void Span::begin_(const char* name) {
  if (ThreadPool::in_parallel_region()) return;  // determinism: see trace.h
  TraceState& s = state();
  if (s.records.size() >= kMaxSpans) {
    ++s.dropped;
    return;
  }
  SpanRecord rec;
  rec.name = name;
  rec.depth = static_cast<std::int32_t>(s.open.size());
  rec.frame = s.frame;
  rec.begin_seq = s.seq++;
  slot_ = static_cast<std::int64_t>(s.records.size());
  generation_ = s.generation;
  s.records.push_back(std::move(rec));
  s.open.push_back(OpenSpan{slot_, std::nullopt});
  if (s.wall) s.open.back().timer.emplace();
}

void Span::end_() {
  TraceState& s = state();
  if (generation_ != s.generation) return;  // reset() happened mid-span
  SpanRecord& rec = s.records[static_cast<std::size_t>(slot_)];
  rec.end_seq = s.seq++;
  // RAII scopes close LIFO, so this span is the innermost open one.
  while (!s.open.empty()) {
    const OpenSpan top = s.open.back();
    s.open.pop_back();
    if (top.slot == slot_) {
      if (s.wall && top.timer) rec.wall_us = top.timer->elapsed_us();
      break;
    }
  }
  slot_ = -1;
}

void Span::add_modeled_us(double us) {
  if (slot_ < 0) return;
  TraceState& s = state();
  if (generation_ != s.generation) return;
  s.records[static_cast<std::size_t>(slot_)].modeled_us += us;
}

void Span::add_items(std::int64_t n) {
  if (slot_ < 0) return;
  TraceState& s = state();
  if (generation_ != s.generation) return;
  s.records[static_cast<std::size_t>(slot_)].items += n;
}

void write_chrome_trace(std::ostream& out) {
  const TraceState& s = state();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& r : s.records) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << json_escape(r.name)
        << "\",\"cat\":\"rrp\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << r.begin_seq
        << ",\"dur\":" << (r.end_seq - r.begin_seq) << ",\"args\":{"
        << "\"frame\":" << r.frame << ",\"depth\":" << r.depth
        << ",\"modeled_us\":" << CsvWriter::num(r.modeled_us, 9)
        << ",\"items\":" << r.items;
    if (s.wall) out << ",\"wall_us\":" << CsvWriter::num(r.wall_us, 3);
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{"
      << "\"clock\":\"event-sequence\",\"dropped_spans\":" << s.dropped
      << "}}\n";
}

void write_span_csv(std::ostream& out) {
  const TraceState& s = state();
  CsvWriter w(out);
  std::vector<std::string> header = {"id",        "frame",   "depth",
                                     "name",      "begin_seq", "end_seq",
                                     "modeled_us", "items"};
  if (s.wall) header.push_back("wall_us");
  w.header(header);
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const SpanRecord& r = s.records[i];
    std::vector<std::string> row = {
        std::to_string(i),           std::to_string(r.frame),
        std::to_string(r.depth),     r.name,
        std::to_string(r.begin_seq), std::to_string(r.end_seq),
        CsvWriter::num(r.modeled_us, 9), std::to_string(r.items)};
    if (s.wall) row.push_back(CsvWriter::num(r.wall_us, 3));
    w.row(row);
  }
}

std::string chrome_trace_string() {
  std::ostringstream os;
  write_chrome_trace(os);
  return os.str();
}

std::string span_csv_string() {
  std::ostringstream os;
  write_span_csv(os);
  return os.str();
}

}  // namespace rrp::trace
