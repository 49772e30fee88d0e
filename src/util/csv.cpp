#include "util/csv.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/checks.h"

namespace rrp {

std::string csv_escape(const std::string& field) {
  const bool needs_quotes =
      field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

bool read_csv_record(std::istream& in, std::vector<std::string>& fields) {
  fields.clear();
  int c = in.get();
  if (c == std::char_traits<char>::eof()) return false;

  std::string field;
  bool in_quotes = false;
  for (;; c = in.get()) {
    if (c == std::char_traits<char>::eof()) {
      if (in_quotes)
        throw SerializationError("unterminated quoted CSV field");
      fields.push_back(std::move(field));
      return true;
    }
    const char ch = static_cast<char>(c);
    if (in_quotes) {
      if (ch == '"') {
        if (in.peek() == '"') {
          in.get();
          field += '"';  // escaped quote
        } else {
          in_quotes = false;
        }
      } else {
        field += ch;  // commas and newlines are literal inside quotes
      }
    } else if (ch == '"') {
      in_quotes = true;
    } else if (ch == ',') {
      fields.push_back(std::move(field));
      field.clear();
    } else if (ch == '\n' || ch == '\r') {
      if (ch == '\r' && in.peek() == '\n') in.get();  // CRLF
      fields.push_back(std::move(field));
      return true;
    } else {
      field += ch;
    }
  }
}

std::vector<std::string> parse_csv_line(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> fields;
  if (!read_csv_record(is, fields)) return fields;  // empty input: no fields
  if (is.peek() != std::char_traits<char>::eof())
    throw SerializationError("CSV line holds more than one record: " + line);
  return fields;
}

void CsvWriter::header(const std::vector<std::string>& names) {
  RRP_CHECK_MSG(arity_ == 0, "CSV header must be written first");
  arity_ = names.size();
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << csv_escape(names[i]);
  }
  *out_ << '\n';
}

void CsvWriter::row(const std::vector<std::string>& fields) {
  if (arity_ == 0) arity_ = fields.size();
  RRP_CHECK_MSG(fields.size() == arity_,
                "CSV row arity " << fields.size() << " != " << arity_);
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) *out_ << ',';
    *out_ << csv_escape(fields[i]);
  }
  *out_ << '\n';
}

std::string CsvWriter::num(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << std::fixed << v;
  return os.str();
}

TableFormatter::TableFormatter(std::vector<std::string> header)
    : header_(std::move(header)) {
  RRP_CHECK(!header_.empty());
}

void TableFormatter::row(std::vector<std::string> fields) {
  RRP_CHECK_MSG(fields.size() == header_.size(),
                "table row arity " << fields.size()
                                   << " != " << header_.size());
  rows_.push_back(std::move(fields));
}

void TableFormatter::print(std::ostream& out) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& r : rows_)
    for (std::size_t c = 0; c < r.size(); ++c)
      widths[c] = std::max(widths[c], r[c].size());

  auto print_row = [&](const std::vector<std::string>& r) {
    out << "| ";
    for (std::size_t c = 0; c < r.size(); ++c) {
      out << std::left << std::setw(static_cast<int>(widths[c])) << r[c];
      out << (c + 1 == r.size() ? " |" : " | ");
    }
    out << '\n';
  };
  auto print_rule = [&] {
    out << '+';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      for (std::size_t i = 0; i < widths[c] + 2; ++i) out << '-';
      out << '+';
    }
    out << '\n';
  };

  print_rule();
  print_row(header_);
  print_rule();
  for (const auto& r : rows_) print_row(r);
  print_rule();
}

std::string fmt(double v, int precision) {
  std::ostringstream os;
  os << std::setprecision(precision) << std::fixed << v;
  std::string s = os.str();
  // Trim trailing zeros but keep at least one decimal digit.
  if (s.find('.') != std::string::npos) {
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (s.back() == '.') s += '0';
  }
  return s;
}

}  // namespace rrp
