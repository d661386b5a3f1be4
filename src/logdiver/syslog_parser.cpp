#include "logdiver/syslog_parser.hpp"

#include <array>
#include <cctype>
#include <utility>

#include "common/strings.hpp"
#include "logdiver/ordered_parse.hpp"

namespace ld {
namespace {

constexpr std::array<const char*, 12> kMonths = {"Jan", "Feb", "Mar", "Apr",
                                                 "May", "Jun", "Jul", "Aug",
                                                 "Sep", "Oct", "Nov", "Dec"};

int MonthFromAbbrev(std::string_view m) {
  for (std::size_t i = 0; i < kMonths.size(); ++i) {
    if (m == kMonths[i]) return static_cast<int>(i) + 1;
  }
  return 0;
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// True when the 8 bytes at `p` spell a clock "HH:MM:SS": digits at
/// offsets {0,1,3,4,6,7} and ':' at {2,5}.  Range checks are the
/// caller's job.
bool IsClockHHMMSS(const char* p) {
  return IsDigit(p[0]) && IsDigit(p[1]) && p[2] == ':' && IsDigit(p[3]) &&
         IsDigit(p[4]) && p[5] == ':' && IsDigit(p[6]) && IsDigit(p[7]);
}

/// Strict "HH:MM:SS" (any digit widths, nothing trailing).  Replaces the
/// old sscanf call: no format-string machinery, no allocation, and no
/// accidental acceptance of signs or trailing garbage.
bool ParseClock(std::string_view text, int& h, int& m, int& s) {
  // Fast path: the fixed-width "HH:MM:SS" every real syslog line uses.
  if (text.size() == 8 && IsClockHHMMSS(text.data())) {
    h = (text[0] - '0') * 10 + (text[1] - '0');
    m = (text[3] - '0') * 10 + (text[4] - '0');
    s = (text[6] - '0') * 10 + (text[7] - '0');
    return true;
  }
  const auto eat = [&text](int& out) {
    std::size_t used = 0;
    long v = 0;
    while (used < text.size() && text[used] >= '0' && text[used] <= '9') {
      v = v * 10 + (text[used] - '0');
      if (v > 1000000) return false;
      ++used;
    }
    if (used == 0) return false;
    out = static_cast<int>(v);
    text.remove_prefix(used);
    return true;
  };
  const auto colon = [&text] {
    if (text.empty() || text.front() != ':') return false;
    text.remove_prefix(1);
    return true;
  };
  return eat(h) && colon() && eat(m) && colon() && eat(s) && text.empty();
}

using Stamp = SyslogParser::Stamp;

/// The one stamp grammar, behind both the line parse and ParseSyslogTime:
/// a month abbreviation, a day in 1-31 and a clock up to 23:59:60 (a leap
/// second).  `*month_seen` is set as soon as the month validates.
Result<Stamp> ParseStamp(std::string_view month, std::string_view day,
                         std::string_view clock, int* month_seen) {
  Stamp stamp;
  stamp.month = MonthFromAbbrev(month);
  if (stamp.month == 0) return ParseError("syslog: bad month");
  *month_seen = stamp.month;
  LD_ASSIGN_OR_RETURN(const std::int64_t d, ParseInt(day));
  if (d < 1 || d > 31) return ParseError("syslog: day out of range");
  stamp.day = static_cast<int>(d);
  if (!ParseClock(clock, stamp.hour, stamp.minute, stamp.second) ||
      stamp.hour > 23 || stamp.minute > 59 || stamp.second > 60) {
    return ParseError("syslog: bad clock field");
  }
  return stamp;
}

/// Reads the whitespace-separated tokens at the front of `text` into
/// `fields`, in place, from `*pos` on; `*pos` ends just past the last
/// one.  False when `text` holds fewer tokens than `fields`.
bool ReadTokens(std::string_view text, std::span<std::string_view> fields,
                std::size_t* pos) {
  for (std::string_view& field : fields) {
    *pos = SkipWhitespace(text, *pos);
    if (*pos == text.size()) return false;
    const std::size_t end = FindWhitespace(text, *pos);
    field = text.substr(*pos, end - *pos);
    *pos = end;
  }
  return true;
}

/// A stamp's text ("Apr  1 02:10:02", the day may be space-padded): its
/// first three tokens through the stamp grammar; anything after them is
/// ignored.
Result<Stamp> ParseStampText(std::string_view text) {
  std::string_view fields[3];
  std::size_t pos = 0;
  if (!ReadTokens(text, fields, &pos)) {
    return ParseError("syslog: bad timestamp");
  }
  int month_seen = 0;
  return ParseStamp(fields[0], fields[1], fields[2], &month_seen);
}

/// The bytes a claim reads its stamp from.
constexpr std::size_t kClaimStampBytes = 15;

TimePoint StampTimeIn(const Stamp& stamp, int year) {
  return TimePoint::FromCalendar(year, stamp.month, stamp.day, stamp.hour,
                                 stamp.minute, stamp.second);
}

/// Extracts the cname following a marker word, e.g. "node c1-0c2s3n2".
std::string CnameAfter(std::string_view text, std::string_view marker) {
  const std::size_t pos = text.find(marker);
  if (pos == std::string_view::npos) return "";
  std::string_view rest = text.substr(pos + marker.size());
  rest = Trim(rest);
  const std::size_t end = FindWhitespace(rest, 0);
  return std::string(rest.substr(0, end));
}

/// "c3-4c1s2g0l33" -> gemini name "c3-4c1s2g0" (strips the lane suffix).
std::string StripLaneSuffix(std::string cname) {
  const std::size_t l = cname.rfind('l');
  const std::size_t g = cname.rfind('g');
  if (l != std::string::npos && g != std::string::npos && l > g) {
    cname.erase(l);
  }
  return cname;
}

/// Default window applied to an incident whose recovery line is missing
/// (stream truncated); matches the study's conservative handling.
constexpr std::int64_t kDefaultOpenIncidentSeconds = 1800;

/// The December-rollover test shared by Apply and StampTime (the claims'
/// and ParseSyslogTime's year rule).
bool RolloverBetween(int last_month, int month) {
  return last_month != 0 && month < last_month && last_month - month > 6;
}

/// A backward month jump (Jan -> Dec) right after a rollover is a node
/// with a lagging clock still stamping the old year, not time travel:
/// render the line one year back and do NOT advance the carried month,
/// otherwise the next in-year line would re-trigger RolloverBetween and
/// double-advance the year.  Mutually exclusive with RolloverBetween
/// (one needs month < last, the other month > last).
bool BackwardJump(int last_month, int month) {
  return last_month != 0 && month > last_month && month - last_month > 6;
}

/// The year-independent part of the per-line parse: everything except
/// resolving the absolute year.  Pure — safe on any thread.
///
/// `month_seen` is set to the line's month as soon as the month token
/// validates, even when the line later fails (bad day/clock, smw event
/// without a component name) or is skipped: Apply advances the year
/// rollover on exactly those lines.
Result<std::optional<SyslogParser::PreRecord>> ParsePreImpl(
    std::string_view line, int* month_seen) {
  // Timestamp = first 3 whitespace-separated tokens; then hostname; then
  // the message.  Only those four tokens are ever indexed, so the line
  // is NOT fully tokenized (the message would dominate the split);
  // "at least five fields" is checked by probing for one more
  // non-whitespace byte.
  std::string_view fields[4];
  std::size_t pos = 0;
  if (!ReadTokens(line, fields, &pos) ||
      SkipWhitespace(line, pos) == line.size()) {
    return ParseError("syslog: too few fields");
  }
  SyslogParser::PreRecord pre;
  LD_ASSIGN_OR_RETURN(pre.stamp,
                      ParseStamp(fields[0], fields[1], fields[2], month_seen));

  // The single-space-joined stamp the old code built spanned exactly
  // this many bytes; the hostname search must start from the same offset
  // to locate the same occurrence.
  const std::size_t stamp_len =
      fields[0].size() + fields[1].size() + fields[2].size() + 2;
  const std::string_view host = fields[3];
  const std::size_t host_pos = line.find(host, stamp_len);
  const std::string_view message = Trim(line.substr(host_pos + host.size()));

  ErrorRecord& rec = pre.rec;
  rec.source = LogSource::kSyslog;

  // --- Lustre (system scope) ---
  if (host == "sonexion" || StartsWith(message, "LustreError") ||
      Contains(message, "Lustre:")) {
    rec.category = ErrorCategory::kLustre;
    rec.scope = LocScope::kSystem;
    if (Contains(message, "recovered")) {
      // Recovery line: closes the held incident in Apply.
      rec.severity = Severity::kCorrected;
      pre.is_recovery = true;
      return std::optional<SyslogParser::PreRecord>{std::move(pre)};
    }
    rec.severity = Severity::kFatal;
    return std::optional<SyslogParser::PreRecord>{std::move(pre)};
  }

  // --- SMW-reported events (hostname is the SMW, location in message) ---
  if (host == "smw") {
    if (Contains(message, "heartbeat fault")) {
      rec.category = ErrorCategory::kNodeHeartbeat;
      rec.severity = Severity::kFatal;
      rec.scope = LocScope::kNode;
      rec.location = Intern(CnameAfter(message, "node "));
    } else if (Contains(message, "voltage fault")) {
      rec.category = ErrorCategory::kBladeFault;
      rec.severity = Severity::kFatal;
      rec.scope = LocScope::kBlade;
      rec.location = Intern(CnameAfter(message, "blade "));
    } else if (Contains(message, "Gemini LCB")) {
      rec.category = ErrorCategory::kGeminiLink;
      rec.scope = LocScope::kGemini;
      rec.location = Intern(StripLaneSuffix(CnameAfter(message, "Gemini LCB ")));
      rec.severity = Contains(message, "failover unsuccessful")
                         ? Severity::kFatal
                         : Severity::kDegraded;
    } else if (Contains(message, "lane degrade")) {
      rec.category = ErrorCategory::kGeminiLink;
      rec.scope = LocScope::kGemini;
      rec.location =
          Intern(StripLaneSuffix(CnameAfter(message, "lane degrade on ")));
      rec.severity = Severity::kCorrected;
    } else {
      return std::optional<SyslogParser::PreRecord>{};
    }
    if (rec.location.empty()) {
      return ParseError("syslog: smw event without component name");
    }
    return std::optional<SyslogParser::PreRecord>{std::move(pre)};
  }

  // --- node-local kernel messages: hostname is the cname ---
  rec.location = Intern(host);
  rec.scope = LocScope::kNode;
  if (Contains(message, "Machine check")) {
    rec.category = ErrorCategory::kMachineCheck;
    rec.severity = Contains(message, "corrected") ? Severity::kCorrected
                                                  : Severity::kFatal;
  } else if (Contains(message, "uncorrectable memory error") ||
             Contains(message, "EDAC")) {
    rec.category = ErrorCategory::kMemoryUE;
    rec.severity = Severity::kFatal;
  } else if (Contains(message, "Double Bit ECC")) {
    rec.category = ErrorCategory::kGpuDbe;
    rec.severity = Severity::kFatal;
  } else if (Contains(message, "NVRM: Xid")) {
    rec.category = ErrorCategory::kGpuXid;
    rec.severity = Contains(message, "page retirement") ? Severity::kCorrected
                                                        : Severity::kFatal;
  } else if (Contains(message, "Kernel panic")) {
    rec.category = ErrorCategory::kKernelSoftware;
    rec.severity = Severity::kFatal;
  } else {
    return std::optional<SyslogParser::PreRecord>{};
  }
  return std::optional<SyslogParser::PreRecord>{std::move(pre)};
}

}  // namespace

SyslogParser::SyslogParser(int base_year) : current_year_(base_year) {}

Result<TimePoint> SyslogParser::ParseSyslogTime(std::string_view text,
                                                int year, TimePoint previous) {
  LD_ASSIGN_OR_RETURN(const Stamp stamp, ParseStampText(text));
  return StampTime(stamp, year, previous);
}

TimePoint SyslogParser::StampTime(const Stamp& stamp, int year,
                                  TimePoint previous) {
  if (previous != TimePoint()) {
    // The previous time carries its own year, so a stale-clock line
    // resolved a year back needs no extra state: the next in-year line
    // rolls forward from it again.
    const CalendarTime prev = ToCalendar(previous);
    year = prev.year;
    if (RolloverBetween(prev.month, stamp.month)) ++year;
    if (BackwardJump(prev.month, stamp.month)) --year;
  }
  return StampTimeIn(stamp, year);
}

SyslogParser::Parsed SyslogParser::Parse(std::string_view line) {
  std::optional<Stamp> claim;
  if (line.size() >= kClaimStampBytes) {
    auto stamp = ParseStampText(line.substr(0, kClaimStampBytes));
    if (stamp.ok()) claim = *stamp;
  }
  int month_seen = 0;
  auto pre = ParsePreImpl(line, &month_seen);
  return Parsed{claim, month_seen, std::move(pre)};
}

Result<std::optional<ErrorRecord>> SyslogParser::Apply(Parsed&& parsed) {
  auto& pre = parsed.pre;
  const int month_seen = parsed.month_seen;
  stats_.Count(pre);
  // Year-rollover reconstruction advances on every line whose month
  // token validated — including lines that fail later.
  int render_year = current_year_;
  if (month_seen != 0) {
    if (RolloverBetween(last_month_, month_seen)) ++current_year_;
    if (BackwardJump(last_month_, month_seen)) {
      render_year = current_year_ - 1;  // stale clock; carry state as-is
    } else {
      render_year = current_year_;
      last_month_ = month_seen;
    }
  }
  if (!pre.ok()) return pre.status();
  if (!pre->has_value()) return std::optional<ErrorRecord>{};
  PreRecord& item = **pre;
  ErrorRecord rec = std::move(item.rec);
  rec.time = StampTimeIn(item.stamp, render_year);
  if (rec.scope != LocScope::kSystem) {
    return std::optional<ErrorRecord>{std::move(rec)};
  }
  if (item.is_recovery) {
    // Recovery lines never become records themselves: they close the
    // held incident (a stray one closes nothing).
    if (!held_incident_.has_value()) return std::optional<ErrorRecord>{};
    held_incident_->recovered = rec.time;
    return std::exchange(held_incident_, std::nullopt);
  }
  // The first report opens the incident; overlapping ones fold into it.
  if (!held_incident_.has_value()) held_incident_ = std::move(rec);
  return std::optional<ErrorRecord>{};
}

std::optional<ErrorRecord> SyslogParser::FinishOpenIncident() {
  if (!held_incident_.has_value()) return std::nullopt;
  held_incident_->recovered =
      held_incident_->time + Duration(kDefaultOpenIncidentSeconds);
  return std::exchange(held_incident_, std::nullopt);
}

std::vector<ErrorRecord> SyslogParser::ParseLines(
    std::span<const std::string_view> lines, QuarantineSink* sink,
    ThreadPool* pool) {
  std::vector<ErrorRecord> out;
  ParseInOrder(*this, LogSource::kSyslog, lines, sink, pool, out);
  if (auto rec = FinishOpenIncident()) out.push_back(std::move(*rec));
  return out;
}

}  // namespace ld
