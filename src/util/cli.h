// cli.h — tiny shared helpers for command-line front ends.
//
// Lives in src/util (not tools/) so the parsing contract is unit-testable
// from the main test binary: tools link it, tests pin it.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>

namespace rrp {

/// Strict full-string parse of a number: the whole of `text` must be one
/// std::from_chars value of T — no whitespace, no leading '+', no
/// trailing garbage ("20x", which std::stoi would read as 20), no
/// overflow.  nullopt means "invalid": the caller prints one diagnostic
/// and exits non-zero.
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// A decimal int ("-3" included).
inline std::optional<int> parse_int(const std::string& text) {
  return parse_number<int>(text);
}

/// A boolean switch: exactly "0" or "1".  "false", "true", "01" and ""
/// are invalid, so `--wall false` is a diagnostic, not a switch turned on.
inline std::optional<bool> parse_switch(const std::string& text) {
  if (text == "0") return false;
  if (text == "1") return true;
  return std::nullopt;
}

/// A decimal unsigned 64-bit integer (a seed); no sign.
inline std::optional<std::uint64_t> parse_u64(const std::string& text) {
  return parse_number<std::uint64_t>(text);
}

/// A finite decimal or scientific double ("2", "-0.5", "1e-3"); "inf" and
/// "nan" are refused.
inline std::optional<double> parse_double(const std::string& text) {
  const std::optional<double> value = parse_number<double>(text);
  if (!value || !std::isfinite(*value)) return std::nullopt;
  return value;
}

/// Strict parse of a thread-count argument: a plain positive decimal
/// integer ("4"), nothing else.  Also rejects zero and negatives.
inline std::optional<int> parse_thread_count(const std::string& text) {
  const std::optional<int> value = parse_int(text);
  if (!value || *value < 1) return std::nullopt;
  return value;
}

}  // namespace rrp
