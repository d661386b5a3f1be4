// Claimed times: the one rule that merges a bundle's four sources into
// one stream, used by the replay loop (resume.hpp) and the service's
// accept path (service/tenant.hpp).
//
// A line's claimed time is the last parseable timestamp of its source,
// carried over lines that do not parse (a real shipper cannot drop what
// it cannot read).  For Torque, ALPS and hwerr the claim derives from
// the line's parse outcome, so a caller that parses the line anyway
// (the replay loop) claims from that one parse.  A syslog stamp takes
// its year from the carried claim by the parser's own rollover rule
// (SyslogParser::ParseSyslogTime), so a campaign crossing New Year
// keeps its order with the carry as the only state.
#pragma once

#include <string_view>

#include "common/time.hpp"
#include "logdiver/records.hpp"

namespace ld {

class ClaimedTracker {
 public:
  explicit ClaimedTracker(int syslog_base_year)
      : syslog_base_year_(syslog_base_year) {}

  /// Claimed time for `line`, updating the per-source carry: Torque,
  /// ALPS and hwerr lines are parsed and claimed from the outcome,
  /// syslog lines read only their stamp.
  TimePoint Claim(LogSource source, std::string_view line);

  /// Claimed time of a Torque, ALPS or hwerr line from its parse
  /// outcome: a record's time becomes the carry, a skipped or malformed
  /// line keeps it.
  template <typename Record>
  TimePoint Claim(LogSource source,
                  const Result<std::optional<Record>>& parsed) {
    TimePoint& carry = carry_[static_cast<std::size_t>(source)];
    if (parsed.ok() && parsed->has_value()) carry = (*parsed)->time;
    return carry;
  }

  /// Re-seeds one source's carry (service recovery: the snapshot and the
  /// replayed journal records carry the claims, so the parsers never
  /// re-run over history).
  void SetCarry(LogSource source, TimePoint claimed) {
    carry_[static_cast<std::size_t>(source)] = claimed;
  }

 private:
  int syslog_base_year_;
  /// The epoch means "no claim yet".
  TimePoint carry_[kNumLogSources] = {};
};

}  // namespace ld
