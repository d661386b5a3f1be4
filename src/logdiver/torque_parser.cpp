#include "logdiver/torque_parser.hpp"

#include "common/strings.hpp"
#include "logdiver/ordered_parse.hpp"

namespace ld {
namespace {

Result<Duration> ParseWalltime(std::string_view text) {
  const auto parts = Split(text, ':');
  if (parts.size() != 3) {
    return ParseError("bad walltime: '" + std::string(text) + "'");
  }
  LD_ASSIGN_OR_RETURN(const auto h, ParseInt(parts[0]));
  LD_ASSIGN_OR_RETURN(const auto m, ParseInt(parts[1]));
  LD_ASSIGN_OR_RETURN(const auto s, ParseInt(parts[2]));
  return Duration(h * 3600 + m * 60 + s);
}

std::optional<TimePoint> EpochField(const KeyValueView& kv,
                                    std::string_view key) {
  const auto raw = kv.Get(key);
  if (!raw.has_value()) return std::nullopt;
  const auto v = ParseInt(*raw);
  if (!v.ok()) return std::nullopt;
  return TimePoint(*v);
}

}  // namespace

TorqueParser::Parsed TorqueParser::Parse(std::string_view line) {
  // "stamp;TYPE;jobid;payload" — only the three leading separators are
  // located; the payload (which may itself contain ';') is the raw tail,
  // so the line is never fully split.
  const std::size_t sep1 = line.find(';');
  const std::size_t sep2 =
      sep1 == std::string_view::npos ? sep1 : line.find(';', sep1 + 1);
  if (sep2 == std::string_view::npos) {
    return ParseError("torque: too few ';' fields");
  }
  const std::string_view type = line.substr(sep1 + 1, sep2 - sep1 - 1);
  if (type != "S" && type != "E") {
    return std::optional<TorqueRecord>{};
  }
  const std::size_t sep3 = line.find(';', sep2 + 1);
  // Jobid "123.bw" -> 123.
  const std::string_view jobid_text =
      sep3 == std::string_view::npos
          ? line.substr(sep2 + 1)
          : line.substr(sep2 + 1, sep3 - sep2 - 1);
  const std::size_t dot = jobid_text.find('.');
  LD_ASSIGN_OR_RETURN(const auto jobid,
                      ParseUint(dot == std::string_view::npos
                                    ? jobid_text
                                    : jobid_text.substr(0, dot)));

  std::string_view payload;
  if (sep3 != std::string_view::npos) {
    payload = line.substr(sep3 + 1);
  }

  TorqueRecord rec;
  rec.jobid = jobid;
  rec.kind = type == "S" ? TorqueRecord::Kind::kStart : TorqueRecord::Kind::kEnd;

  // One tokenization pass; every field lookup below scans the
  // small entry table instead of re-walking the payload.
  const KeyValueView kv(payload);

  if (auto v = kv.Get("user")) rec.user = Intern(*v);
  if (auto v = kv.Get("queue")) rec.queue = Intern(*v);

  const auto submit = EpochField(kv, "ctime");
  const auto start = EpochField(kv, "start");
  if (!submit.has_value() || !start.has_value()) {
    return ParseError("torque: missing ctime/start epoch fields");
  }
  rec.submit = *submit;
  rec.start = *start;
  rec.time = rec.start;

  if (auto v = kv.Get("Resource_List.nodect")) {
    if (auto n = ParseUint(*v); n.ok()) {
      rec.nodect = static_cast<std::uint32_t>(*n);
    }
  }
  if (auto v = kv.Get("Resource_List.walltime")) {
    if (auto d = ParseWalltime(*v); d.ok()) rec.walltime_limit = *d;
  }

  if (rec.kind == TorqueRecord::Kind::kEnd) {
    const auto end = EpochField(kv, "end");
    if (!end.has_value()) {
      return ParseError("torque: E record missing end epoch");
    }
    rec.end = *end;
    rec.time = rec.end;
    if (auto v = kv.Get("Exit_status")) {
      if (auto code = ParseInt(*v); code.ok()) {
        rec.exit_status = static_cast<int>(*code);
      }
    }
    if (auto v = kv.Get("resources_used.walltime")) {
      if (auto d = ParseWalltime(*v); d.ok()) rec.walltime_used = *d;
    }
  }

  return std::optional<TorqueRecord>{std::move(rec)};
}

std::vector<TorqueRecord> TorqueParser::ParseLines(
    std::span<const std::string_view> lines, QuarantineSink* sink,
    ThreadPool* pool) {
  std::vector<TorqueRecord> out;
  ParseInOrder(*this, LogSource::kTorque, lines, sink, pool, out);
  return out;
}

}  // namespace ld
