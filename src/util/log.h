// log.h — minimal leveled logger.
//
// The library itself logs sparingly (controller decisions, safety vetoes);
// examples raise the level to Info for narrative output. No global mutable
// state beyond the level, which is an atomic.
#pragma once

#include <atomic>
#include <sstream>
#include <string>

namespace rrp {

enum class LogLevel { Debug = 0, Info = 1, Warn = 2, Error = 3, Off = 4 };

/// Sets the global minimum level that will be emitted.
void set_log_level(LogLevel level);

/// Emits a single log line to stderr if `level` passes the filter.
void log_line(LogLevel level, const std::string& message);

namespace detail {
class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log_line(level_, os_.str()); }
  template <typename T>
  LogStream& operator<<(const T& v) {
    os_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace rrp

#define RRP_LOG_DEBUG ::rrp::detail::LogStream(::rrp::LogLevel::Debug)
#define RRP_LOG_INFO ::rrp::detail::LogStream(::rrp::LogLevel::Info)
#define RRP_LOG_WARN ::rrp::detail::LogStream(::rrp::LogLevel::Warn)
#define RRP_LOG_ERROR ::rrp::detail::LogStream(::rrp::LogLevel::Error)
