#include "common/csv.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ld {
namespace {

TEST(CsvWriter, PlainRow) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(CsvWriter, QuotesWhenNeeded) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.WriteRow({"a,b", "say \"hi\"", "plain"});
  EXPECT_EQ(out.str(), "\"a,b\",\"say \"\"hi\"\"\",plain\n");
}

TEST(CsvReader, ParsesQuotedFields) {
  auto fields = CsvReader::ParseLine("\"a,b\",\"say \"\"hi\"\"\",plain");
  ASSERT_TRUE(fields.ok());
  ASSERT_EQ(fields->size(), 3u);
  EXPECT_EQ((*fields)[0], "a,b");
  EXPECT_EQ((*fields)[1], "say \"hi\"");
  EXPECT_EQ((*fields)[2], "plain");
}

TEST(CsvReader, EmptyFields) {
  auto fields = CsvReader::ParseLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields->size(), 3u);
}

TEST(CsvReader, RejectsMalformed) {
  EXPECT_FALSE(CsvReader::ParseLine("\"unterminated").ok());
  EXPECT_FALSE(CsvReader::ParseLine("ab\"cd").ok());
}

TEST(CsvRoundTrip, WriterOutputParses) {
  std::ostringstream out;
  CsvWriter writer(out);
  const std::vector<std::string> row = {"x,y", "", "q\"uote", "123"};
  writer.WriteRow(row);
  std::string line = out.str();
  line.pop_back();  // trailing newline
  auto parsed = CsvReader::ParseLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, row);
}

TEST(CsvReader, ReadFileWithHeader) {
  const std::string path = ::testing::TempDir() + "/csv_test_file.csv";
  {
    std::ofstream f(path);
    f << "id,name\n1,alpha\n2,beta\n\n";
  }
  auto table = CsvReader::ReadFile(path, /*has_header=*/true);
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->header.size(), 2u);
  EXPECT_EQ(table->header[1], "name");
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][1], "beta");
  std::remove(path.c_str());
}

TEST(CsvReader, ForEachRowVisitsEveryRowInOrder) {
  const std::string path = ::testing::TempDir() + "/csv_each_row.csv";
  {
    std::ofstream f(path, std::ios::binary);
    f << "id,name\r\n1,alpha\r\n\r\n2,\"be,ta\"\n3,";
  }
  std::vector<std::string> seen;
  const Status status = CsvReader::ForEachRow(
      path, /*has_header=*/true,
      [&](bool header, const std::vector<std::string_view>& fields) {
        std::string row = header ? "H:" : "R:";
        for (const auto f : fields) row += std::string(f) + "|";
        seen.push_back(row);
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(seen, (std::vector<std::string>{"H:id|name|", "R:1|alpha|",
                                            "R:2|be,ta|", "R:3||"}));
  std::remove(path.c_str());
}

TEST(CsvReader, ForEachRowStopsAtVisitorErrorButQuoteErrorsWin) {
  const std::string path = ::testing::TempDir() + "/csv_each_row_err.csv";
  const auto first_error = [&](const std::string& text) {
    {
      std::ofstream f(path);
      f << text;
    }
    int visited = 0;
    const Status status = CsvReader::ForEachRow(
        path, /*has_header=*/false,
        [&](bool, const std::vector<std::string_view>& fields) {
          ++visited;
          return fields.size() == 2 ? Status::Ok() : ParseError("short row");
        });
    return status.ToString() + " after " + std::to_string(visited);
  };
  EXPECT_EQ(first_error("a,b\nc\nd,e\n"), "PARSE_ERROR: short row after 2");
  EXPECT_EQ(first_error("a,b\nc\n\"d,e\n"),
            "PARSE_ERROR: unterminated quoted field after 0");
  std::remove(path.c_str());
}

TEST(CsvReader, MissingFile) {
  EXPECT_FALSE(CsvReader::ReadFile("/nonexistent/file.csv", true).ok());
}

}  // namespace
}  // namespace ld
