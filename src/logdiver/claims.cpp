#include "logdiver/claims.hpp"

#include "logdiver/syslog_parser.hpp"

namespace ld {

ClaimedLine ClaimedTracker::ParseAndClaim(LogSource source,
                                          std::string_view line) {
  ClaimedLine out;
  out.line = line;
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  const auto claim = [&carry](const auto& parsed) {
    if (parsed.ok() && parsed->has_value()) carry = (*parsed)->time;
  };
  switch (source) {
    case LogSource::kTorque:
      claim(
          out.parsed.emplace<TorqueParser::Parsed>(TorqueParser::Parse(line)));
      break;
    case LogSource::kAlps:
      claim(out.parsed.emplace<AlpsParser::Parsed>(AlpsParser::Parse(line)));
      break;
    case LogSource::kHwerr:
      claim(out.parsed.emplace<HwerrParser::Parsed>(HwerrParser::Parse(line)));
      break;
    case LogSource::kSyslog:
      if (line.size() >= 15) {
        auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15),
                                               syslog_base_year_, carry);
        if (t.ok()) carry = *t;
      }
      break;
  }
  out.claimed = carry;
  return out;
}

}  // namespace ld
