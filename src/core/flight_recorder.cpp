#include "core/flight_recorder.h"

#include <bit>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/integrity.h"
#include "util/checks.h"
#include "util/csv.h"
#include "util/trace.h"

namespace rrp::core {
namespace {

// ---------------------------------------------------------------------------
// Binary encoding: explicit little-endian, appended to a std::string so the
// whole body can be FNV-1a-checksummed before it reaches the stream.
// ---------------------------------------------------------------------------

void put_u32(std::string& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_u64(std::string& b, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void put_i32(std::string& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}

void put_i64(std::string& b, std::int64_t v) {
  put_u64(b, static_cast<std::uint64_t>(v));
}

void put_f64(std::string& b, double v) {
  put_u64(b, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.append(s);
}

/// Bounds-checked read cursor over the deserialized body.
struct Cursor {
  const std::string& buf;
  std::size_t pos = 0;

  void need(std::size_t n) const {
    if (pos + n > buf.size())
      throw SerializationError("incident bundle truncated");
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[pos + i]))
           << (8 * i);
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }
};

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// FlightRecorder
// ---------------------------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t capacity) : capacity_(capacity) {
  RRP_CHECK_MSG(capacity_ > 0, "flight recorder needs capacity >= 1");
  ring_.reserve(capacity_);
}

// rrp-frame-path: the black-box append runs once per frame; it must
// never become the reason a deadline slips.
void FlightRecorder::record(const FlightRecord& r) {
  if (ring_.size() < capacity_) {
    // rrp-lint-allow(frame-path-alloc): push_back below the capacity reserved in the constructor never reallocates; once full, the ring branch below overwrites in place.
    ring_.push_back(r);
  } else {
    ring_[next_] = r;
    next_ = (next_ + 1) % capacity_;
  }
  ++total_;
}

std::vector<FlightRecord> FlightRecorder::window() const {
  std::vector<FlightRecord> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i)
    out.push_back(ring_[(next_ + i) % ring_.size()]);
  return out;
}

void FlightRecorder::clear() {
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

// ---------------------------------------------------------------------------
// Bundle serialization
// ---------------------------------------------------------------------------

void write_incident_bundle(const IncidentBundle& bundle, std::ostream& out) {
  std::string b;
  put_u32(b, kIncidentBundleMagic);
  put_u32(b, kIncidentBundleVersion);

  const IncidentContext& c = bundle.context;
  put_str(b, c.model);
  put_str(b, c.suite);
  put_str(b, c.policy);
  put_str(b, c.provider);
  put_i32(b, c.frames);
  put_u64(b, c.scenario_seed);
  put_u64(b, c.noise_seed);
  put_f64(b, c.deadline_ms);
  put_i32(b, c.hysteresis);
  put_i32(b, c.scrub_period_frames);
  put_i32(b, c.watchdog_overrun_frames);
  put_i32(b, c.sensing_delay_frames);
  put_u32(b, (c.self_heal ? 1u : 0u) | (c.trace_enabled ? 2u : 0u));
  for (std::int32_t lvl : c.certified) put_i32(b, lvl);
  put_u32(b, c.recorder_capacity);
  put_u64(b, c.telemetry_digest);

  put_u32(b, static_cast<std::uint32_t>(bundle.faults.size()));
  for (const RecordedFault& f : bundle.faults) {
    put_i32(b, f.kind);
    put_i64(b, f.frame);
    put_i32(b, f.duration_frames);
    put_f64(b, f.magnitude);
    put_u64(b, f.target);
    put_i32(b, f.bit);
    put_i32(b, f.stuck);
    put_i32(b, f.count);
  }

  put_u32(b, static_cast<std::uint32_t>(bundle.slos.size()));
  for (const SloSpec& s : bundle.slos) {
    put_str(b, s.id);
    put_i32(b, static_cast<std::int32_t>(s.kind));
    put_str(b, s.numerator);
    put_str(b, s.denominator);
    put_str(b, s.histogram);
    put_f64(b, s.quantile);
    put_f64(b, s.threshold);
    put_i64(b, s.min_samples);
  }

  put_u32(b, static_cast<std::uint32_t>(bundle.incidents.size()));
  for (const Incident& inc : bundle.incidents) {
    put_i64(b, inc.frame);
    put_str(b, inc.slo_id);
    put_f64(b, inc.observed);
    put_f64(b, inc.threshold);
    put_str(b, inc.detail);
  }
  put_i64(b, bundle.dropped_incidents);

  put_u32(b, static_cast<std::uint32_t>(bundle.records.size()));
  for (const FlightRecord& r : bundle.records) {
    put_i64(b, r.frame);
    put_i32(b, r.criticality);
    put_i32(b, r.true_criticality);
    put_i32(b, r.requested_level);
    put_i32(b, r.executed_level);
    put_f64(b, r.latency_ms);
    put_f64(b, r.switch_us);
    put_f64(b, r.deadline_ms);
    put_f64(b, r.energy_mj);
    put_u32(b, r.flags);
    put_i32(b, r.integrity_detects);
    put_i32(b, r.integrity_repairs);
    put_i32(b, r.watchdog_degrades);
    put_u64(b, r.span_digest);
  }

  put_u64(b, fnv1a64(b.data(), b.size()));  // trailing checksum
  out.write(b.data(), static_cast<std::streamsize>(b.size()));
}

IncidentBundle read_incident_bundle(std::istream& in) {
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string buf = raw.str();
  if (buf.size() < 16) throw SerializationError("incident bundle truncated");

  // Verify the trailing checksum over everything before it first: a single
  // flipped byte anywhere fails fast with an unambiguous message.
  const std::string body = buf.substr(0, buf.size() - 8);
  Cursor tail{buf, buf.size() - 8};
  const std::uint64_t want = tail.u64();
  const std::uint64_t got = fnv1a64(body.data(), body.size());
  if (want != got)
    throw SerializationError("incident bundle checksum mismatch (expected " +
                             hex64(want) + ", computed " + hex64(got) + ")");

  Cursor c{body, 0};
  if (c.u32() != kIncidentBundleMagic)
    throw SerializationError("not an incident bundle (bad magic)");
  const std::uint32_t version = c.u32();
  if (version != kIncidentBundleVersion)
    throw SerializationError("unsupported incident bundle version " +
                             std::to_string(version));

  IncidentBundle bundle;
  IncidentContext& ctx = bundle.context;
  ctx.model = c.str();
  ctx.suite = c.str();
  ctx.policy = c.str();
  ctx.provider = c.str();
  ctx.frames = c.i32();
  ctx.scenario_seed = c.u64();
  ctx.noise_seed = c.u64();
  ctx.deadline_ms = c.f64();
  ctx.hysteresis = c.i32();
  ctx.scrub_period_frames = c.i32();
  ctx.watchdog_overrun_frames = c.i32();
  ctx.sensing_delay_frames = c.i32();
  const std::uint32_t bits = c.u32();
  ctx.self_heal = (bits & 1u) != 0;
  ctx.trace_enabled = (bits & 2u) != 0;
  for (std::int32_t& lvl : ctx.certified) lvl = c.i32();
  ctx.recorder_capacity = c.u32();
  ctx.telemetry_digest = c.u64();

  const std::uint32_t n_faults = c.u32();
  bundle.faults.resize(n_faults);
  for (RecordedFault& f : bundle.faults) {
    f.kind = c.i32();
    f.frame = c.i64();
    f.duration_frames = c.i32();
    f.magnitude = c.f64();
    f.target = c.u64();
    f.bit = c.i32();
    f.stuck = c.i32();
    f.count = c.i32();
  }

  const std::uint32_t n_slos = c.u32();
  bundle.slos.resize(n_slos);
  for (SloSpec& s : bundle.slos) {
    s.id = c.str();
    s.kind = static_cast<SloKind>(c.i32());
    s.numerator = c.str();
    s.denominator = c.str();
    s.histogram = c.str();
    s.quantile = c.f64();
    s.threshold = c.f64();
    s.min_samples = c.i64();
  }

  const std::uint32_t n_inc = c.u32();
  bundle.incidents.resize(n_inc);
  for (Incident& inc : bundle.incidents) {
    inc.frame = c.i64();
    inc.slo_id = c.str();
    inc.observed = c.f64();
    inc.threshold = c.f64();
    inc.detail = c.str();
  }
  bundle.dropped_incidents = c.i64();

  const std::uint32_t n_rec = c.u32();
  bundle.records.resize(n_rec);
  for (FlightRecord& r : bundle.records) {
    r.frame = c.i64();
    r.criticality = c.i32();
    r.true_criticality = c.i32();
    r.requested_level = c.i32();
    r.executed_level = c.i32();
    r.latency_ms = c.f64();
    r.switch_us = c.f64();
    r.deadline_ms = c.f64();
    r.energy_mj = c.f64();
    r.flags = c.u32();
    r.integrity_detects = c.i32();
    r.integrity_repairs = c.i32();
    r.watchdog_degrades = c.i32();
    r.span_digest = c.u64();
  }
  if (c.pos != body.size())
    throw SerializationError("incident bundle has trailing bytes");
  return bundle;
}

// ---------------------------------------------------------------------------
// CSV + summary rendering
// ---------------------------------------------------------------------------

void write_incident_csv(const IncidentBundle& bundle, std::ostream& out) {
  CsvWriter w(out);
  w.header({"frame", "criticality", "true_criticality", "requested_level",
            "executed_level", "latency_ms", "switch_us", "deadline_ms",
            "slack_ms", "energy_mj", "correct", "veto", "violation",
            "true_violation", "integrity_detects", "integrity_repairs",
            "watchdog_degrades", "span_digest"});
  for (const FlightRecord& r : bundle.records) {
    w.row({std::to_string(r.frame), std::to_string(r.criticality),
           std::to_string(r.true_criticality),
           std::to_string(r.requested_level),
           std::to_string(r.executed_level), CsvWriter::num(r.latency_ms, 4),
           CsvWriter::num(r.switch_us, 2), CsvWriter::num(r.deadline_ms, 2),
           CsvWriter::num(r.slack_ms(), 4), CsvWriter::num(r.energy_mj, 4),
           std::to_string(r.correct() ? 1 : 0),
           std::to_string(r.veto() ? 1 : 0),
           std::to_string(r.violation() ? 1 : 0),
           std::to_string(r.true_violation() ? 1 : 0),
           std::to_string(r.integrity_detects),
           std::to_string(r.integrity_repairs),
           std::to_string(r.watchdog_degrades), hex64(r.span_digest)});
  }
}

std::string incident_csv_string(const IncidentBundle& bundle) {
  std::ostringstream os;
  write_incident_csv(bundle, os);
  return os.str();
}

std::string incident_summary_string(const IncidentBundle& bundle) {
  const IncidentContext& c = bundle.context;
  std::ostringstream os;
  os << "incident bundle v" << kIncidentBundleVersion << "\n"
     << "  model=" << c.model << " suite=" << c.suite << " policy=" << c.policy
     << " provider=" << c.provider << "\n"
     << "  frames=" << c.frames << " scenario_seed=" << c.scenario_seed
     << " noise_seed=" << c.noise_seed << "\n"
     << "  deadline_ms=" << CsvWriter::num(c.deadline_ms, 2)
     << " hysteresis=" << c.hysteresis << " scrub=" << c.scrub_period_frames
     << " watchdog=" << c.watchdog_overrun_frames
     << " sensing_delay=" << c.sensing_delay_frames
     << " self_heal=" << (c.self_heal ? 1 : 0)
     << " trace=" << (c.trace_enabled ? 1 : 0) << "\n"
     << "  certified=[";
  for (std::size_t i = 0; i < c.certified.size(); ++i)
    os << (i ? "," : "") << c.certified[i];
  os << "] recorder_capacity=" << c.recorder_capacity
     << " telemetry_digest=0x" << hex64(c.telemetry_digest) << "\n"
     << "  faults=" << bundle.faults.size() << " slos=" << bundle.slos.size()
     << " incidents=" << bundle.incidents.size();
  if (bundle.dropped_incidents > 0)
    os << " (+" << bundle.dropped_incidents << " dropped)";
  os << " window=" << bundle.records.size() << " records\n";
  for (const Incident& inc : bundle.incidents)
    os << "  incident frame=" << inc.frame << " id=" << inc.slo_id
       << " observed=" << CsvWriter::num(inc.observed, 6)
       << " threshold=" << CsvWriter::num(inc.threshold, 6)
       << (inc.detail.empty() ? "" : " (" + inc.detail + ")") << "\n";
  if (!bundle.records.empty()) {
    const FlightRecord* worst = &bundle.records.front();
    for (const FlightRecord& r : bundle.records)
      if (r.slack_ms() < worst->slack_ms()) worst = &r;
    os << "  window frames [" << bundle.records.front().frame << ", "
       << bundle.records.back().frame << "], worst slack "
       << CsvWriter::num(worst->slack_ms(), 4) << " ms at frame "
       << worst->frame << "\n";
  }
  return os.str();
}

// rrp-frame-path-stop: runs only while tracing is enabled, where span
// recording already grows the heap every frame; an untraced frame skips
// it (FrameEngine::step).
std::uint64_t span_window_digest(std::size_t from_index) {
  const std::vector<trace::SpanRecord>& all = trace::spans();
  if (from_index >= all.size()) return 0;
  std::string b;
  for (std::size_t i = from_index; i < all.size(); ++i) {
    const trace::SpanRecord& s = all[i];
    put_str(b, s.name);
    put_i32(b, s.depth);
    put_i64(b, s.frame);
    put_i64(b, s.begin_seq);
    put_i64(b, s.end_seq);
    put_f64(b, s.modeled_us);
    put_i64(b, s.items);
  }
  return fnv1a64(b.data(), b.size());
}

}  // namespace rrp::core
