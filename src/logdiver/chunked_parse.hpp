// Shared plumbing for chunk-parallel ParseLines.
//
// A source's lines are cut into consecutive chunks; each chunk parses —
// on any thread — into a private (records, ParseStats, quarantine sink)
// triple with no shared mutable state, and an ordered reduction stitches
// the triples back in original chunk order.  Because the per-line parse
// of the stateless parsers (Torque/ALPS/hwerr) is a pure function of the
// line, the reduced output is bit-identical to a sequential pass at any
// thread count or chunk size.  SyslogParser carries cross-line state and
// implements its own chunk type on top of the same pattern (see
// syslog_parser.hpp).
#pragma once

#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/records.hpp"

namespace ld {

/// One chunk's private parse output.
template <typename Record>
struct ParsedChunk {
  std::vector<Record> records;
  ParseStats stats;
  QuarantineSink sink;
};

/// Parses one chunk with a stateless per-line function returning
/// Result<std::optional<Record>>.  `first_line_no` is the 1-based global
/// line number of lines[0]; `capture` null skips quarantine capture
/// entirely (callers without a sink pay nothing).
template <typename Record, typename PerLine>
ParsedChunk<Record> ParseChunkWith(std::span<const std::string_view> lines,
                                   std::uint64_t first_line_no,
                                   const QuarantineConfig* capture,
                                   LogSource source, PerLine&& per_line) {
  ParsedChunk<Record> chunk;
  if (capture != nullptr) chunk.sink = QuarantineSink(*capture);
  chunk.records.reserve(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    auto rec = per_line(line);
    chunk.stats.Count(rec);
    if (!rec.ok()) {
      if (capture != nullptr) {
        chunk.sink.Add(source, first_line_no + i, line, rec.status());
      }
      continue;
    }
    if (rec->has_value()) chunk.records.push_back(std::move(**rec));
  }
  return chunk;
}

/// Ordered reduction: concatenates records chunk by chunk, folds the
/// counters into `stats`, and merges the chunk-local quarantine sinks
/// (in order) into `sink` when one is provided.
template <typename Record>
std::vector<Record> ReduceParsedChunks(std::vector<ParsedChunk<Record>>&& chunks,
                                       ParseStats* stats,
                                       QuarantineSink* sink) {
  std::size_t total = 0;
  for (const auto& chunk : chunks) total += chunk.records.size();
  std::vector<Record> out;
  out.reserve(total);
  for (auto& chunk : chunks) {
    out.insert(out.end(), std::make_move_iterator(chunk.records.begin()),
               std::make_move_iterator(chunk.records.end()));
    stats->MergeFrom(chunk.stats);
    if (sink != nullptr) sink->MergeFrom(std::move(chunk.sink));
  }
  return out;
}

/// Cuts `lines` into ranges of `chunk_lines` and runs `chunk_fn(span,
/// first_line_no, capture)` over them on the pool, returning the chunk
/// results in original order.  `chunk_fn` must be pure.
template <typename ChunkFn>
auto MapLineChunks(std::span<const std::string_view> lines,
                   std::size_t chunk_lines, ThreadPool* pool,
                   const QuarantineConfig* capture, ChunkFn&& chunk_fn)
    -> std::vector<decltype(chunk_fn(lines, std::uint64_t{1}, capture))> {
  const std::vector<IndexRange> ranges = ChunkRanges(lines.size(), chunk_lines);
  return ParallelMap(pool, ranges.size(), [&](std::size_t i) {
    return chunk_fn(lines.subspan(ranges[i].begin, ranges[i].size()),
                    static_cast<std::uint64_t>(ranges[i].begin) + 1, capture);
  });
}

/// Builds a string_view per line of an owning vector (the compatibility
/// shim under the legacy vector<string> ParseLines overloads).
inline std::vector<std::string_view> LineViews(
    const std::vector<std::string>& lines) {
  std::vector<std::string_view> views;
  views.reserve(lines.size());
  for (const std::string& line : lines) views.emplace_back(line);
  return views;
}

}  // namespace ld
