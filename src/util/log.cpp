#include "util/log.h"

#include <iostream>
#include <mutex>

namespace rrp {

namespace {
std::atomic<LogLevel> g_level{LogLevel::Warn};

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::Debug: return "DEBUG";
    case LogLevel::Info: return "INFO ";
    case LogLevel::Warn: return "WARN ";
    case LogLevel::Error: return "ERROR";
    case LogLevel::Off: return "OFF  ";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

void log_line(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) < static_cast<int>(g_level.load())) return;
  // One locked write per line so lines from pool workers never interleave.
  static std::mutex io_mutex;
  std::lock_guard<std::mutex> lock(io_mutex);
  std::cerr << "[rrp " << level_name(level) << "] " << message << '\n';
}

}  // namespace rrp
