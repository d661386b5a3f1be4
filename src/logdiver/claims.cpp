#include "logdiver/claims.hpp"

#include <optional>
#include <type_traits>

namespace ld {
namespace {

/// The time `parsed` claims when its source's carry is `carry`: a
/// Torque/ALPS/hwerr record's time, or a syslog stamp dated from the
/// carry's year; none for a line with neither.
std::optional<TimePoint> ClaimTime(const LineParse& parsed, TimePoint carry,
                                   int syslog_base_year) {
  return std::visit(
      [&](const auto& p) -> std::optional<TimePoint> {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, std::monostate>) {
          return std::nullopt;
        } else if constexpr (std::is_same_v<P, SyslogParser::Parsed>) {
          if (!p.claim) return std::nullopt;
          return SyslogParser::StampTime(*p.claim, syslog_base_year, carry);
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
    case LogSource::kSyslog: return SyslogParser::Parse(line);
    case LogSource::kHwerr: return HwerrParser::Parse(line);
  }
  return std::monostate();
}

ClaimedLine ClaimedTracker::Claim(LogSource source, std::string_view line,
                                  LineParse&& parsed) {
  TimePoint& carry = carry_[static_cast<std::size_t>(source)];
  if (const auto time = ClaimTime(parsed, carry, syslog_base_year_)) {
    carry = *time;
  }
  return ClaimedLine{line, carry, std::move(parsed)};
}

}  // namespace ld
