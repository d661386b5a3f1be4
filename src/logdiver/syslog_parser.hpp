// Parser for RFC3164-style syslog RAS streams.
//
// Two field-study realities are handled here:
//  1. Classic syslog timestamps carry no year ("Apr  1 02:10:02").  The
//     parser reconstructs the year from a configured campaign start year
//     and month-rollover detection (timestamps are monotone per stream;
//     when the month moves backwards across a December/January boundary
//     the year is advanced).
//  2. Lustre incidents are reported as an error line when the service
//     degrades and a recovery line when it returns.  The parser holds
//     the incident open until its recovery line arrives and then emits
//     one system-scope record carrying the outage window; overlapping
//     reports fold into the held incident.
//
// Both are cross-line state, so the parse is split in two: Parse (any
// thread) reads one line into a value, and Apply (owning thread, lines
// in order) takes it through the year rollover and the incident
// pairing.  Every driver — ParseLines, LogDiver::ParseLogs, the
// streaming replay — runs that same split, so ParseLine line by line
// plus FinishOpenIncident() emits exactly the records ParseLines does,
// at any thread count (see DESIGN.md "Parallel ingestion").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/records.hpp"

namespace ld {

class SyslogParser {
 public:
  /// `base_year` is the calendar year of the first line in the stream.
  explicit SyslogParser(int base_year);

  /// A syslog stamp's fields ("Apr  1 02:10:02"), range-checked: a day
  /// in 1-31 and a clock up to 23:59:60 (a leap second).
  struct Stamp {
    int month = 0, day = 0, hour = 0, minute = 0, second = 0;
  };

  /// One record parsed before its absolute year is known (Apply dates
  /// it).
  struct PreRecord {
    ErrorRecord rec;  // time unset; recovered unset (see is_recovery)
    Stamp stamp;
    bool is_recovery = false;  // Lustre recovery line (closes an incident)
  };

  /// One line's pure parse.  `claim` is the stamp read from the line's
  /// first 15 bytes (none when the line is shorter or that prefix does
  /// not parse): the line's merge time (ClaimedTracker).  `pre` is the
  /// line's parse and `month_seen` its month, set as soon as the month
  /// token validates, even on a line that fails later: the year
  /// rollover advances on exactly those lines.  Holds no string and no
  /// error status when the line parses.
  struct Parsed {
    std::optional<Stamp> claim;
    int month_seen = 0;
    Result<std::optional<PreRecord>> pre;
  };

  /// Parses one line; safe to call from any thread (touches no parser
  /// state).
  static Parsed Parse(std::string_view line);

  /// Takes one line's Parse, in stream order: counts it, advances the
  /// year rollover and dates the record.  A Lustre error line opens a
  /// held incident and returns nullopt, as do further reports of the
  /// same outage (they fold into it); the recovery line returns the
  /// held incident with `recovered` set.  Every other record returns at
  /// once.
  Result<std::optional<ErrorRecord>> Apply(Parsed&& parsed);

  /// Apply(Parse(line)).
  Result<std::optional<ErrorRecord>> ParseLine(std::string_view line) {
    return Apply(Parse(line));
  }

  /// End of stream: closes a still-held incident with the default window
  /// (its recovery line never arrived) and returns it; nullopt when no
  /// incident is held.
  std::optional<ErrorRecord> FinishOpenIncident();

  /// Start of the held incident, if any: runs that die during it cannot
  /// be classified before it closes.
  std::optional<TimePoint> held_incident_start() const {
    if (!held_incident_.has_value()) return std::nullopt;
    return held_incident_->time;
  }

  /// Parses a whole stream ahead on `pool` (inline when null), applies
  /// it in order (ordered_parse.hpp) and returns the completed records,
  /// including paired system incidents; an incident still open at the
  /// end is closed with the default window (FinishOpenIncident).
  /// Rejected lines are captured in `sink` when provided.
  std::vector<ErrorRecord> ParseLines(std::span<const std::string_view> lines,
                                      QuarantineSink* sink = nullptr,
                                      ThreadPool* pool = nullptr);

  const ParseStats& stats() const { return stats_; }

  /// Checkpoint-restore hooks: beyond the counters, the parser carries
  /// the year-rollover reconstruction state (current year + last month
  /// seen) and the held incident, which must survive a restore or
  /// timestamps after a December boundary would land in the wrong year
  /// and an outage spanning the cut would lose its start.
  struct StreamState {
    ParseStats stats;
    int current_year = 0;
    int last_month = 0;
    std::optional<ErrorRecord> held_incident;
  };
  StreamState stream_state() const {
    return {stats_, current_year_, last_month_, held_incident_};
  }
  void RestoreStreamState(const StreamState& state) {
    stats_ = state.stats;
    current_year_ = state.current_year;
    last_month_ = state.last_month;
    held_incident_ = state.held_incident;
  }

  /// Parses "Apr  1 02:10:02" within `year` — or, given `previous`, the
  /// stream's last resolved time, in the year the stream has reached: the
  /// month step from `previous` advances or steps back a year by the
  /// parser's own rollover rule.  Dates a line without running the
  /// parser.
  static Result<TimePoint> ParseSyslogTime(std::string_view text, int year,
                                           TimePoint previous = TimePoint());

  /// `stamp`'s time by ParseSyslogTime's year rule: within `year`, or,
  /// given `previous`, in the year the stream has reached.
  static TimePoint StampTime(const Stamp& stamp, int year,
                             TimePoint previous = TimePoint());

 private:
  ParseStats stats_;
  int current_year_;
  int last_month_ = 0;
  /// The open system incident, awaiting its recovery line.
  std::optional<ErrorRecord> held_incident_;
};

}  // namespace ld
