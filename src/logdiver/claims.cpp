#include "logdiver/claims.hpp"

#include "logdiver/alps_parser.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {

TimePoint ClaimedTracker::Claim(LogSource source, std::string_view line) {
  switch (source) {
    case LogSource::kTorque: return Claim(source, TorqueParser::Parse(line));
    case LogSource::kAlps: return Claim(source, AlpsParser::Parse(line));
    case LogSource::kHwerr: return Claim(source, HwerrParser::Parse(line));
    case LogSource::kSyslog: break;
  }
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  if (line.size() >= 15) {
    auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15),
                                           syslog_base_year_, carry);
    if (t.ok()) carry = *t;
  }
  return carry;
}

}  // namespace ld
