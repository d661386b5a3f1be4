// Parser for structured hardware-error logs.
//
// Record grammar: `epoch|category|cname|severity|detail`, one per line.
// This source overlaps with syslog for hardware categories — the
// coalescing stage is responsible for collapsing the duplicates.
//
// The per-line parse is pure, so it runs on any thread; Apply, which
// only counts, takes the parses in line order (ordered_parse.hpp), so
// the output is bit-identical to a sequential pass.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/records.hpp"

namespace ld {

class HwerrParser {
 public:
  /// One line's parse outcome: a record, nullopt for a recognized but
  /// skipped line, or an error for a malformed one.
  using Parsed = Result<std::optional<ErrorRecord>>;

  /// The pure per-line parse: touches no state, safe on any thread.
  static Parsed Parse(std::string_view line);

  /// Takes one line's Parse, in stream order: counts it into this
  /// parser's stats.
  Parsed Apply(Parsed&& parsed) {
    stats_.Count(parsed);
    return std::move(parsed);
  }

  /// Apply(Parse(line)).
  Parsed ParseLine(std::string_view line) { return Apply(Parse(line)); }

  /// Parses many lines ahead on `pool` (inline when null) and applies
  /// them in order (ordered_parse.hpp).  Rejected lines are captured in
  /// `sink` (with reasons) when provided.
  std::vector<ErrorRecord> ParseLines(std::span<const std::string_view> lines,
                                      QuarantineSink* sink = nullptr,
                                      ThreadPool* pool = nullptr);

  const ParseStats& stats() const { return stats_; }

 private:
  ParseStats stats_;
};

}  // namespace ld
