#include "logdiver/claims.hpp"

#include <optional>
#include <type_traits>

#include "logdiver/syslog_parser.hpp"

namespace ld {
namespace {

/// The time a Torque/ALPS/hwerr parse claims: its record's time; none
/// for a skipped or malformed line (or a syslog line's empty parse).
std::optional<TimePoint> RecordTime(const LineParse& parsed) {
  return std::visit(
      [](const auto& p) -> std::optional<TimePoint> {
        if constexpr (std::is_same_v<std::decay_t<decltype(p)>,
                                     std::monostate>) {
          return std::nullopt;
        } else {
          if (p.ok() && p->has_value()) return (*p)->time;
          return std::nullopt;
        }
      },
      parsed);
}

}  // namespace

LineParse ClaimedTracker::Parse(LogSource source, std::string_view line) {
  switch (source) {
    case LogSource::kTorque: return TorqueParser::Parse(line);
    case LogSource::kAlps: return AlpsParser::Parse(line);
    case LogSource::kHwerr: return HwerrParser::Parse(line);
    case LogSource::kSyslog: break;
  }
  return std::monostate();
}

ClaimedLine ClaimedTracker::Claim(LogSource source, std::string_view line,
                                  LineParse&& parsed) {
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  if (source == LogSource::kSyslog) {
    if (line.size() >= 15) {
      auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15),
                                             syslog_base_year_, carry);
      if (t.ok()) carry = *t;
    }
  } else if (const auto time = RecordTime(parsed)) {
    carry = *time;
  }
  return ClaimedLine{line, carry, std::move(parsed)};
}

}  // namespace ld
