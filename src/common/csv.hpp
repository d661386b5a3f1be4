// Minimal CSV/TSV reading and writing.
//
// Used for LogDiver report output (tables consumed by plotting scripts)
// and for the ground-truth sidecar files the simulator writes.  Handles
// RFC-4180-style quoting on read and write; no embedded-newline support
// (log-derived tables never need it).
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"

namespace ld {

class CsvWriter {
 public:
  /// Writes to the given stream; the stream must outlive the writer.
  explicit CsvWriter(std::ostream& out, char sep = ',');

  void WriteRow(const std::vector<std::string>& fields);

 private:
  std::string EscapeField(const std::string& field) const;

  std::ostream& out_;
  char sep_;
};

class CsvReader {
 public:
  /// Parses one CSV line into fields (handles quotes and doubled quotes).
  static Result<std::vector<std::string>> ParseLine(const std::string& line,
                                                    char sep = ',');

  /// Calls `visit` for each non-blank line of a file, in order, with
  /// its fields as views; `header` is true for the first row when
  /// `has_header`.  A trailing '\r' is dropped.  A line with a quote
  /// goes through ParseLine, and a malformed one anywhere in the file
  /// fails before any row is visited.  The first visitor error stops the
  /// walk and is returned.  Views are valid only during the call.
  using RowVisitor = std::function<Status(
      bool header, const std::vector<std::string_view>& fields)>;
  static Status ForEachRow(const std::string& path, bool has_header,
                           const RowVisitor& visit, char sep = ',');

  /// Reads an entire file; first row optionally treated as header.
  struct Table {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
  };
  static Result<Table> ReadFile(const std::string& path, bool has_header,
                                char sep = ',');
};

}  // namespace ld
