#include "logdiver/hwerr_parser.hpp"

#include "common/strings.hpp"
#include "logdiver/ordered_parse.hpp"

namespace ld {
HwerrParser::Parsed HwerrParser::Parse(std::string_view line) {
  // Four separators bound the five fields in use; the scan stops there
  // instead of materializing a vector of every '|' piece.
  std::string_view fields[4];
  std::size_t pos = 0;
  for (std::string_view& field : fields) {
    const std::size_t sep = line.find('|', pos);
    if (sep == std::string_view::npos) {
      return ParseError("hwerr: expected 5 '|' fields");
    }
    field = line.substr(pos, sep - pos);
    pos = sep + 1;
  }
  LD_ASSIGN_OR_RETURN(const auto epoch, ParseInt(fields[0]));
  auto category = ParseErrorCategory(fields[1]);
  if (!category.ok()) {
    // Categories from newer firmware we don't know: skipped, not malformed.
    return std::optional<ErrorRecord>{};
  }
  LD_ASSIGN_OR_RETURN(const auto severity, ParseSeverity(fields[3]));

  ErrorRecord rec;
  rec.time = TimePoint(epoch);
  rec.category = *category;
  rec.severity = severity;
  rec.source = LogSource::kHwerr;
  rec.scope = *category == ErrorCategory::kBladeFault ? LocScope::kBlade
                                                      : LocScope::kNode;
  // Blade faults are recorded against a node on the blade; normalize the
  // location to the blade prefix before interning.
  if (rec.scope == LocScope::kBlade) {
    if (auto cname = ParseCname(std::string(fields[2])); cname.ok()) {
      rec.location = Intern(cname->BladePrefix());
    } else {
      rec.location = Intern(fields[2]);
    }
  } else {
    rec.location = Intern(fields[2]);
  }
  return std::optional<ErrorRecord>{rec};
}

std::vector<ErrorRecord> HwerrParser::ParseLines(
    std::span<const std::string_view> lines, QuarantineSink* sink,
    ThreadPool* pool) {
  std::vector<ErrorRecord> out;
  ParseInOrder(*this, LogSource::kHwerr, lines, sink, pool, out);
  return out;
}

}  // namespace ld
