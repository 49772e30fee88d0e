#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "util/checks.h"
#include "util/csv.h"

namespace rrp {
namespace {

TEST(Csv, EscapePlainFieldUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(Csv, EscapeCommaQuoteNewline) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriterEmitsHeaderAndRows) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  w.row({"1", "2"});
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Csv, WriterEnforcesArity) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"a", "b"});
  EXPECT_THROW(w.row({"only-one"}), PreconditionError);
}

TEST(Csv, HeaderMustComeFirst) {
  std::ostringstream os;
  CsvWriter w(os);
  w.row({"x"});
  EXPECT_THROW(w.header({"a"}), PreconditionError);
}

TEST(Csv, NumFormatsFixedPrecision) {
  EXPECT_EQ(CsvWriter::num(1.23456, 2), "1.23");
}

TEST(CsvParse, PlainFields) {
  EXPECT_EQ(parse_csv_line("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvParse, EmptyFieldsPreserved) {
  EXPECT_EQ(parse_csv_line("a,,"), (std::vector<std::string>{"a", "", ""}));
  EXPECT_EQ(parse_csv_line(","), (std::vector<std::string>{"", ""}));
}

TEST(CsvParse, QuotedCommaAndQuote) {
  EXPECT_EQ(parse_csv_line("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(parse_csv_line("\"say \"\"hi\"\"\",x"),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvParse, RoundTripsEscapedFields) {
  const std::vector<std::string> fields = {"plain", "with,comma",
                                           "with \"quotes\"", ""};
  std::string line;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += csv_escape(fields[i]);
  }
  EXPECT_EQ(parse_csv_line(line), fields);
}

TEST(CsvParse, UnterminatedQuoteThrows) {
  EXPECT_THROW(parse_csv_line("\"open,never,closed"), SerializationError);
}

TEST(CsvParse, TrailingContentAfterRecordThrows) {
  EXPECT_THROW(parse_csv_line("a,b\nc,d"), SerializationError);
}

TEST(CsvParse, RecordStreamHandlesEmbeddedNewlineAndCrlf) {
  std::istringstream is("\"line\nbreak\",x\r\nsecond,row\n");
  std::vector<std::string> fields;
  ASSERT_TRUE(read_csv_record(is, fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"line\nbreak", "x"}));
  ASSERT_TRUE(read_csv_record(is, fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"second", "row"}));
  EXPECT_FALSE(read_csv_record(is, fields));
}

TEST(CsvParse, WriterOutputParsesBackExactly) {
  std::ostringstream os;
  CsvWriter w(os);
  w.header({"name", "note"});
  w.row({"a,b", "line\nbreak \"q\""});
  std::istringstream is(os.str());
  std::vector<std::string> fields;
  ASSERT_TRUE(read_csv_record(is, fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"name", "note"}));
  ASSERT_TRUE(read_csv_record(is, fields));
  EXPECT_EQ(fields, (std::vector<std::string>{"a,b", "line\nbreak \"q\""}));
  EXPECT_FALSE(read_csv_record(is, fields));
}

TEST(Table, PrintsAlignedTable) {
  TableFormatter t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| x "), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  // Three rules, the header and both rows: one line each.
  EXPECT_EQ(std::count(s.begin(), s.end(), '\n'), 6);
}

TEST(Table, RejectsWrongArity) {
  TableFormatter t({"h1", "h2"});
  EXPECT_THROW(t.row({"a"}), PreconditionError);
}

TEST(Table, RejectsEmptyHeader) {
  EXPECT_THROW(TableFormatter({}), PreconditionError);
}

TEST(Fmt, TrimsTrailingZeros) {
  EXPECT_EQ(fmt(1.5, 3), "1.5");
  EXPECT_EQ(fmt(2.0, 3), "2.0");
  EXPECT_EQ(fmt(0.125, 3), "0.125");
}

}  // namespace
}  // namespace rrp
