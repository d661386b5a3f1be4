// Parser for Torque/Moab accounting logs.
//
// Record grammar (one per line):
//   MM/DD/YYYY HH:MM:SS;TYPE;JOBID;key=value key=value ...
// TYPE "S" = job start, "E" = job end; other record types (Q, D, A)
// are recognized and skipped.  Only the fields the analysis reads are
// kept (jobname= is not).  Epoch-seconds fields (ctime/start/end)
// are authoritative for times; the leading wall-clock stamp is only the
// flush time.
//
// The per-line parse is a pure function of the line, so batch parsing is
// chunk-parallel: ParseChunk runs on any thread over a slice of lines,
// ReduceChunks stitches the results back in original order — bit-identical
// to a sequential pass at any thread count.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/chunked_parse.hpp"
#include "logdiver/records.hpp"

namespace ld {

class TorqueParser {
 public:
  using Chunk = ParsedChunk<TorqueRecord>;

  /// One line's parse outcome: a record, nullopt for a recognized but
  /// skipped line, or an error for a malformed one.
  using Parsed = Result<std::optional<TorqueRecord>>;

  /// The pure per-line parse: touches no state, safe on any thread.
  static Parsed Parse(std::string_view line);

  /// Parse(line), counted into this parser's stats.
  Parsed ParseLine(std::string_view line);

  /// Parses a slice of lines into a private chunk; safe to call from any
  /// thread (touches no parser state).  `first_line_no` is the 1-based
  /// global number of lines[0]; `capture` null disables quarantine.
  static Chunk ParseChunk(std::span<const std::string_view> lines,
                          std::uint64_t first_line_no,
                          const QuarantineConfig* capture);

  /// Folds chunks — in order — into this parser's stats and `sink`.
  std::vector<TorqueRecord> ReduceChunks(std::vector<Chunk>&& chunks,
                                         QuarantineSink* sink = nullptr);

  /// Parses many lines, chunked across `pool` (inline when null).
  /// Rejected lines are captured in `sink` (with reasons) when provided.
  std::vector<TorqueRecord> ParseLines(
      std::span<const std::string_view> lines, QuarantineSink* sink = nullptr,
      ThreadPool* pool = nullptr,
      std::size_t chunk_lines = kDefaultParseChunkLines);

  /// Legacy overload for owning line vectors; single-threaded.
  std::vector<TorqueRecord> ParseLines(const std::vector<std::string>& lines,
                                       QuarantineSink* sink = nullptr);

  const ParseStats& stats() const { return stats_; }

 private:
  ParseStats stats_;
};

}  // namespace ld
