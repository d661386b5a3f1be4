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
// The per-line parse is a pure function of the line, so it runs on any
// thread; Apply, which only counts, takes the parses in line order
// (ordered_parse.hpp) — bit-identical to a sequential pass at any thread
// count.
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

class TorqueParser {
 public:
  /// One line's parse outcome: a record, nullopt for a recognized but
  /// skipped line, or an error for a malformed one.
  using Parsed = Result<std::optional<TorqueRecord>>;

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
  std::vector<TorqueRecord> ParseLines(std::span<const std::string_view> lines,
                                       QuarantineSink* sink = nullptr,
                                       ThreadPool* pool = nullptr);

  const ParseStats& stats() const { return stats_; }

 private:
  ParseStats stats_;
};

}  // namespace ld
