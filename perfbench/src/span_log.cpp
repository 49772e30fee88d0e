#include "span_log.h"

#include <ostream>

namespace perfbench {

std::int32_t SpanLog::open(const char* name) {
  Span s;
  s.name = name;
  s.frame = frame_;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start = Clock::now();
  return id;
}

void SpanLog::close(std::int32_t id) {
  spans_[static_cast<std::size_t>(id)].end = Clock::now();
  open_.pop_back();
}

void SpanLog::write_csv(std::ostream& out) const {
  out << "id,parent,frame,name,start_us,end_us\n";
  if (spans_.empty()) return;
  const Clock::time_point t0 = spans_.front().start;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ',' << s.parent << ',' << s.frame << ',' << s.name << ','
        << us_between(t0, s.start) << ',' << us_between(t0, s.end) << '\n';
  }
}

rrp::nn::Tensor TimedProvider::infer(const rrp::nn::Tensor& x) {
  ScopedSpan span(log_, "core.infer");
  return inner_.infer(x);
}

rrp::core::TransitionStats TimedProvider::set_level(int level) {
  rrp::core::TransitionStats t;
  {
    ScopedSpan span(log_, "core.set_level");
    t = inner_.set_level(level);
  }
  if (t.is_restore) {
    ++restore_count_;
    restore_bytes_ += t.bytes_written;
  }
  return t;
}

int TimedPolicy::decide(const rrp::core::ControlInput& in, int current_level) {
  ScopedSpan span(log_, "core.decide");
  return inner_.decide(in, current_level);
}

}  // namespace perfbench
