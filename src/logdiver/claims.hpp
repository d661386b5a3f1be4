// Claimed times: the one rule that merges a bundle's four sources into
// one stream, used by the replay loop (resume.hpp) and the service's
// apply path (service/tenant.hpp).  Both claim a line from the one parse
// the analyzer then takes (StreamingAnalyzer::Add).
//
// A line's claimed time is the last parseable timestamp of its source,
// carried over lines that do not parse (a real shipper cannot drop what
// it cannot read).  For Torque, ALPS and hwerr a record's time becomes
// the carry, a skipped or malformed line keeps it.  A syslog stamp takes
// its year from the carried claim by the parser's own rollover rule
// (SyslogParser::ParseSyslogTime), so a campaign crossing New Year
// keeps its order with the carry as the only state.
#pragma once

#include <string_view>
#include <variant>

#include "common/time.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/records.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {

/// One line, parsed once and claimed.  A syslog line carries no parse
/// (monostate): its claim reads only the stamp, and the stateful syslog
/// parser reads the line when the analyzer takes it.
struct ClaimedLine {
  std::string_view line;
  TimePoint claimed;
  std::variant<std::monostate, TorqueParser::Parsed, AlpsParser::Parsed,
               HwerrParser::Parsed>
      parsed;
};

class ClaimedTracker {
 public:
  explicit ClaimedTracker(int syslog_base_year)
      : syslog_base_year_(syslog_base_year) {}

  /// Parses `line` once (a syslog line: only its stamp), advances the
  /// source's carry, and returns the claim together with the parse.
  ClaimedLine ParseAndClaim(LogSource source, std::string_view line);

  /// The four carries in LogSource order (tenant snapshot payload).
  void Snapshot(SnapshotWriter& w) const {
    for (const TimePoint carry : carry_) w.Time(carry);
  }
  void Restore(SnapshotReader& r) {
    for (TimePoint& carry : carry_) carry = r.Time();
  }

 private:
  int syslog_base_year_;
  /// The epoch means "no claim yet".
  TimePoint carry_[kNumLogSources] = {};
};

}  // namespace ld
