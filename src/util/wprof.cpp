#include "util/wprof.h"

#include <atomic>
#include <map>
#include <mutex>
#include <sstream>

#include "util/csv.h"

namespace rrp::wprof {

namespace {

struct Agg {
  std::int64_t count = 0;
  double total_us = 0.0;
  double max_us = 0.0;
};

struct State {
  std::mutex mu;
  std::map<std::string, Agg> aggs;
};

State& state() {
  static State s;
  return s;
}

std::atomic<bool> g_enabled{false};

}  // namespace

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void add_sample(const std::string& key, double us) {
  if (!enabled()) return;
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  Agg& a = s.aggs[key];
  ++a.count;
  a.total_us += us;
  if (us > a.max_us) a.max_us = us;
}

std::vector<Stat> stats() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<Stat> out;
  out.reserve(s.aggs.size());
  for (const auto& [key, a] : s.aggs)
    out.push_back({key, a.count, a.total_us, a.max_us});
  return out;
}

std::string csv_string() {
  std::ostringstream os;
  os << "key,count,total_us,mean_us,max_us\n";
  for (const Stat& st : stats())
    os << csv_escape(st.key) << ',' << st.count << ','
       << CsvWriter::num(st.total_us, 3) << ','
       << CsvWriter::num(st.mean_us(), 3) << ','
       << CsvWriter::num(st.max_us, 3) << '\n';
  return os.str();
}

void reset() {
  State& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.aggs.clear();
}

ScopedTimer::ScopedTimer(std::string key) : key_(std::move(key)) {
  if (enabled()) {
    armed_ = true;
    timer_.reset();
  }
}

ScopedTimer::~ScopedTimer() {
  if (armed_ && enabled()) add_sample(key_, timer_.elapsed_us());
}

}  // namespace rrp::wprof
