#include "logdiver/claims.hpp"

#include "logdiver/syslog_parser.hpp"

namespace ld {

TimePoint ClaimedTracker::Claim(LogSource source, std::string_view line) {
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  switch (source) {
    case LogSource::kTorque: {
      auto rec = torque_.ParseLine(line);
      if (rec.ok() && rec->has_value()) carry = (*rec)->time;
      break;
    }
    case LogSource::kAlps: {
      auto rec = alps_.ParseLine(line);
      if (rec.ok() && rec->has_value()) carry = (*rec)->time;
      break;
    }
    case LogSource::kSyslog: {
      if (line.size() >= 15) {
        auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15),
                                               syslog_base_year_, carry);
        if (t.ok()) carry = *t;
      }
      break;
    }
    case LogSource::kHwerr: {
      auto rec = hwerr_.ParseLine(line);
      if (rec.ok() && rec->has_value()) carry = (*rec)->time;
      break;
    }
  }
  return carry;
}

}  // namespace ld
