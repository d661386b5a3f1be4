// Claimed times: the one rule that merges a bundle's four sources into
// one stream, used by the replay loop (resume.hpp) and the service's
// apply path (service/tenant.hpp).  Both claim a line from the one parse
// the analyzer then takes (StreamingAnalyzer::Add).  The parse is pure
// and the claim is the only stateful step, so the two are separate:
// the replay loop parses lines of all four sources ahead on a thread
// pool and claims them in merge order on its own thread.
//
// A line's claimed time is the last parseable timestamp of its source,
// carried over lines that do not parse (a real shipper cannot drop what
// it cannot read).  For Torque, ALPS and hwerr a record's time becomes
// the carry, a skipped or malformed line keeps it.  A syslog line claims
// the stamp in its first 15 bytes, which its parse reads; the stamp
// takes its year from the carried claim by the parser's own rollover
// rule (SyslogParser::StampTime), so a campaign crossing New Year keeps
// its order with the carry as the only state.  A syslog line shorter
// than 15 bytes, or whose prefix holds no stamp, keeps the carry.
#pragma once

#include <string_view>
#include <variant>

#include "common/time.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/records.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {

/// One line's pure parse, by source; monostate is an empty slot, the
/// parse of no line.
using LineParse =
    std::variant<std::monostate, TorqueParser::Parsed, AlpsParser::Parsed,
                 SyslogParser::Parsed, HwerrParser::Parsed>;

/// One line, parsed once and claimed.
struct ClaimedLine {
  std::string_view line;
  TimePoint claimed;
  LineParse parsed;
};

class ClaimedTracker {
 public:
  explicit ClaimedTracker(int syslog_base_year)
      : syslog_base_year_(syslog_base_year) {}

  /// The pure per-line parse: depends on nothing but the line, so it is
  /// safe on any thread.
  static LineParse Parse(LogSource source, std::string_view line);

  /// Advances the source's carry from `parsed`, the line's Parse, and
  /// returns the claim together with the parse.
  ClaimedLine Claim(LogSource source, std::string_view line,
                    LineParse&& parsed);

  /// Claim(Parse(..)): the one parse-claim step of the service's apply
  /// path.
  ClaimedLine ParseAndClaim(LogSource source, std::string_view line) {
    return Claim(source, line, Parse(source, line));
  }

  /// Sets `source`'s carry to `other`'s.  The replay loop claims each
  /// source's next line ahead of consuming it, so it keeps the carries
  /// of its consumed lines in a second tracker.
  void TakeCarry(LogSource source, const ClaimedTracker& other) {
    const auto s = static_cast<std::size_t>(source);
    carry_[s] = other.carry_[s];
  }

  /// The codec (snapshot.hpp) of the four carries, in LogSource order:
  /// the resume and tenant snapshot payloads store them.
  template <class Io>
  void Fields(Io& io) {
    io(carry_);
  }

 private:
  int syslog_base_year_;
  /// The epoch means "no claim yet".
  TimePoint carry_[kNumLogSources] = {};
};

}  // namespace ld
