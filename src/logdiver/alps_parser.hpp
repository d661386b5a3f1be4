// Parser for ALPS (Application Level Placement Scheduler) logs.
//
// Three record kinds:
//   <iso-ts> apsched[pid]: placeApp apid=A jobid=J user=U cmd=C nodect=N nids=R
// Only the fields the analysis reads are kept (placeApp's cmd= is not).
//   <iso-ts> apsys[pid]:   apid=A exited, status=S signal=G
//   <iso-ts> apsys[pid]:   apid=A killed, reason=node_failure nid=N
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

class AlpsParser {
 public:
  /// One line's parse outcome: a record, nullopt for a recognized but
  /// skipped line, or an error for a malformed one.
  using Parsed = Result<std::optional<AlpsRecord>>;

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
  std::vector<AlpsRecord> ParseLines(std::span<const std::string_view> lines,
                                     QuarantineSink* sink = nullptr,
                                     ThreadPool* pool = nullptr);

  const ParseStats& stats() const { return stats_; }

 private:
  ParseStats stats_;
};

}  // namespace ld
