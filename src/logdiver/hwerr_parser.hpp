// Parser for structured hardware-error logs.
//
// Record grammar: `epoch|category|cname|severity|detail`, one per line.
// This source overlaps with syslog for hardware categories — the
// coalescing stage is responsible for collapsing the duplicates.
//
// The per-line parse is pure, so batch parsing is chunk-parallel (see
// chunked_parse.hpp): chunks parse on any thread, the ordered reduction
// makes the output bit-identical to a sequential pass.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/chunked_parse.hpp"
#include "logdiver/records.hpp"

namespace ld {

class HwerrParser {
 public:
  using Chunk = ParsedChunk<ErrorRecord>;

  /// One line's parse outcome: a record, nullopt for a recognized but
  /// skipped line, or an error for a malformed one.
  using Parsed = Result<std::optional<ErrorRecord>>;

  /// The pure per-line parse: touches no state, safe on any thread.
  static Parsed Parse(std::string_view line);

  /// Parse(line), counted into this parser's stats.
  Parsed ParseLine(std::string_view line);

  /// Parses a slice of lines into a private chunk; safe to call from any
  /// thread.  `first_line_no` is the 1-based global number of lines[0].
  static Chunk ParseChunk(std::span<const std::string_view> lines,
                          std::uint64_t first_line_no,
                          const QuarantineConfig* capture);

  /// Folds chunks — in order — into this parser's stats and `sink`.
  std::vector<ErrorRecord> ReduceChunks(std::vector<Chunk>&& chunks,
                                        QuarantineSink* sink = nullptr);

  /// Parses many lines, chunked across `pool` (inline when null).
  /// Rejected lines are captured in `sink` when one is provided.
  std::vector<ErrorRecord> ParseLines(
      std::span<const std::string_view> lines, QuarantineSink* sink = nullptr,
      ThreadPool* pool = nullptr,
      std::size_t chunk_lines = kDefaultParseChunkLines);

  /// Legacy overload for owning line vectors; single-threaded.
  std::vector<ErrorRecord> ParseLines(const std::vector<std::string>& lines,
                                      QuarantineSink* sink = nullptr);

  const ParseStats& stats() const { return stats_; }

 private:
  ParseStats stats_;
};

}  // namespace ld
