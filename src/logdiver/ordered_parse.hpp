// The one batch parse loop, behind every parser's ParseLines and
// LogDiver::ParseLogs.  It is the streaming replay's split: the pure
// per-line Parse runs ahead on a pool (OrderedAhead), and one thread
// takes the parses in line order through the parser's Apply, where all
// cross-line state lives (the syslog year rollover and incident
// pairing; for the other sources Apply only counts).  Records, stats and
// quarantine entries are therefore bit-identical at any thread count
// (see DESIGN.md "Parallel ingestion").
#pragma once

#include <cstddef>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/records.hpp"

namespace ld {

/// Parses `lines` from `source` with Parser::Parse, ahead on `pool`
/// (pool size + 1 blocks deep, since one source is parsed at a time),
/// and applies each parse through `parser` in line order.  Records
/// append to `out`, reserved from the line count; a malformed line goes
/// to `sink`, when given, under its 1-based line number.
template <typename Parser, typename Record>
void ParseInOrder(Parser& parser, LogSource source,
                  std::span<const std::string_view> lines,
                  QuarantineSink* sink, ThreadPool* pool,
                  std::vector<Record>& out) {
  const std::size_t depth =
      pool == nullptr ? 1 : static_cast<std::size_t>(pool->size()) + 1;
  OrderedAhead ahead(pool, depth, 0, lines.size(), [lines](std::size_t i) {
    return Parser::Parse(lines[i]);
  });
  out.reserve(out.size() + lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    auto rec = parser.Apply(ahead.Take(i));
    if (!rec.ok()) {
      if (sink != nullptr) sink->Add(source, i + 1, lines[i], rec.status());
    } else if (rec->has_value()) {
      out.push_back(std::move(**rec));
    }
  }
}

}  // namespace ld
