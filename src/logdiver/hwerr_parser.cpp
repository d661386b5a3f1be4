#include "logdiver/hwerr_parser.hpp"

#include "common/strings.hpp"
#include "logdiver/quarantine.hpp"

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

HwerrParser::Parsed HwerrParser::ParseLine(std::string_view line) {
  Parsed rec = Parse(line);
  stats_.Count(rec);
  return rec;
}

HwerrParser::Chunk HwerrParser::ParseChunk(
    std::span<const std::string_view> lines, std::uint64_t first_line_no,
    const QuarantineConfig* capture) {
  return ParseChunkWith<ErrorRecord>(
      lines, first_line_no, capture, LogSource::kHwerr,
      [](std::string_view line) { return Parse(line); });
}

std::vector<ErrorRecord> HwerrParser::ReduceChunks(std::vector<Chunk>&& chunks,
                                                   QuarantineSink* sink) {
  return ReduceParsedChunks(std::move(chunks), &stats_, sink);
}

std::vector<ErrorRecord> HwerrParser::ParseLines(
    std::span<const std::string_view> lines, QuarantineSink* sink,
    ThreadPool* pool, std::size_t chunk_lines) {
  auto chunks = MapLineChunks(
      lines, chunk_lines, pool,
      sink != nullptr ? &sink->config() : nullptr,
      [](std::span<const std::string_view> slice, std::uint64_t first,
         const QuarantineConfig* capture) {
        return ParseChunk(slice, first, capture);
      });
  return ReduceChunks(std::move(chunks), sink);
}

std::vector<ErrorRecord> HwerrParser::ParseLines(
    const std::vector<std::string>& lines, QuarantineSink* sink) {
  const std::vector<std::string_view> views = LineViews(lines);
  return ParseLines(std::span<const std::string_view>(views), sink);
}

}  // namespace ld
