#include "common/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

namespace ld {

CsvWriter::CsvWriter(std::ostream& out, char sep) : out_(out), sep_(sep) {}

std::string CsvWriter::EscapeField(const std::string& field) const {
  const bool needs_quote = field.find(sep_) != std::string::npos ||
                           field.find('"') != std::string::npos ||
                           field.find('\n') != std::string::npos;
  if (!needs_quote) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i) out_ << sep_;
    out_ << EscapeField(fields[i]);
  }
  out_ << '\n';
}

Result<std::vector<std::string>> CsvReader::ParseLine(const std::string& line,
                                                      char sep) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return ParseError("quote in unquoted field at column " +
                          std::to_string(i));
      }
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (in_quotes) return ParseError("unterminated quoted field");
  fields.push_back(std::move(cur));
  return fields;
}

Status CsvReader::ForEachRow(const std::string& path, bool has_header,
                             const RowVisitor& visit, char sep) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return NotFoundError("cannot open '" + path + "'");
  std::ostringstream bytes;
  bytes << in.rdbuf();
  const std::string text = std::move(bytes).str();

  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) lines.push_back(line);
  }
  // Quoted lines are parsed up front, in file order, so a quoting error
  // wins over anything the visitor would reject.
  std::vector<std::vector<std::string>> quoted;
  for (const std::string_view line : lines) {
    if (line.find('"') == std::string_view::npos) continue;
    LD_ASSIGN_OR_RETURN(auto fields, ParseLine(std::string(line), sep));
    quoted.push_back(std::move(fields));
  }

  std::vector<std::string_view> row;
  std::size_t next_quoted = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    row.clear();
    if (line.find('"') != std::string_view::npos) {
      const auto& fields = quoted[next_quoted++];
      row.assign(fields.begin(), fields.end());
    } else {
      for (std::size_t field = 0;;) {
        const std::size_t end = line.find(sep, field);
        if (end == std::string_view::npos) {
          row.push_back(line.substr(field));
          break;
        }
        row.push_back(line.substr(field, end - field));
        field = end + 1;
      }
    }
    LD_TRY(visit(has_header && i == 0, row));
  }
  return Status::Ok();
}

Result<CsvReader::Table> CsvReader::ReadFile(const std::string& path,
                                             bool has_header, char sep) {
  Table table;
  LD_TRY(ForEachRow(
      path, has_header,
      [&](bool header, const std::vector<std::string_view>& fields) {
        std::vector<std::string> row(fields.begin(), fields.end());
        if (header) {
          table.header = std::move(row);
        } else {
          table.rows.push_back(std::move(row));
        }
        return Status::Ok();
      },
      sep));
  return table;
}

}  // namespace ld
