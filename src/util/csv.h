// csv.h — tiny CSV / table emitter used by benches and telemetry export.
//
// Two front-ends over the same row model:
//   * CsvWriter      — RFC-4180-ish CSV to any std::ostream (or file).
//   * TableFormatter — aligned, human-readable console tables, so each
//                      bench binary can print paper-style rows directly.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace rrp {

/// Escapes a single CSV field (quotes when it contains , " or newline).
std::string csv_escape(const std::string& field);

/// Reads one RFC-4180 record from `in` into `fields`: quoted fields may
/// contain commas, doubled quotes ("" -> "), and embedded newlines (the
/// record then spans physical lines).  Accepts LF and CRLF terminators.
/// Returns false (fields empty) at end of input; throws SerializationError
/// on an unterminated quoted field.
bool read_csv_record(std::istream& in, std::vector<std::string>& fields);

/// Parses a single line as one RFC-4180 record.  Throws SerializationError
/// if the line is malformed (unterminated quote, or trailing content after
/// a record terminator — i.e. more than one record on the line).
std::vector<std::string> parse_csv_line(const std::string& line);

/// Streams rows of string fields as CSV. The header is optional but, once
/// written, every row must have the same arity (checked).
class CsvWriter {
 public:
  explicit CsvWriter(std::ostream& out) : out_(&out) {}

  void header(const std::vector<std::string>& names);
  void row(const std::vector<std::string>& fields);

  /// Convenience: formats doubles with fixed precision.
  static std::string num(double v, int precision = 6);

 private:
  std::ostream* out_;
  std::size_t arity_ = 0;  // 0 until the first header/row fixes it
};

/// Collects rows then prints an aligned ASCII table.
class TableFormatter {
 public:
  explicit TableFormatter(std::vector<std::string> header);

  void row(std::vector<std::string> fields);
  void print(std::ostream& out) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double like "12.3", trimming trailing zeros sensibly.
std::string fmt(double v, int precision = 3);

}  // namespace rrp
