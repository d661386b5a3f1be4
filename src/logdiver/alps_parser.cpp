#include "logdiver/alps_parser.hpp"

#include "common/strings.hpp"
#include "logdiver/ordered_parse.hpp"

namespace ld {
AlpsParser::Parsed AlpsParser::Parse(std::string_view line) {
  // "YYYY-MM-DDTHH:MM:SS daemon[pid]: payload"
  if (line.size() < 21) {
    return ParseError("alps: line too short");
  }
  LD_ASSIGN_OR_RETURN(const auto when, TimePoint::FromIso(line.substr(0, 19)));
  const std::string_view rest = line.substr(20);
  const std::size_t colon = rest.find(": ");
  if (colon == std::string_view::npos) {
    return ParseError("alps: missing daemon separator");
  }
  const std::string_view daemon = rest.substr(0, colon);
  const std::string_view payload = rest.substr(colon + 2);

  AlpsRecord rec;
  rec.time = when;

  if (StartsWith(daemon, "apsched") && StartsWith(payload, "placeApp")) {
    rec.kind = AlpsRecord::Kind::kPlace;
    // One tokenization pass over the payload; the bare "placeApp"
    // token has no '=' and is skipped by the tokenizer.
    const KeyValueView kv(payload);
    const auto apid = kv.Get("apid");
    const auto jobid = kv.Get("jobid");
    const auto nids = kv.Get("nids");
    if (!apid.has_value() || !jobid.has_value() || !nids.has_value()) {
      return ParseError("alps: placeApp missing apid/jobid/nids");
    }
    auto apid_v = ParseUint(*apid);
    auto jobid_v = ParseUint(*jobid);
    if (!apid_v.ok() || !jobid_v.ok()) {
      return ParseError("alps: bad apid/jobid");
    }
    rec.apid = *apid_v;
    rec.jobid = *jobid_v;
    if (auto v = kv.Get("user")) rec.user = Intern(*v);
    if (auto v = kv.Get("nodect")) {
      if (auto n = ParseUint(*v); n.ok()) {
        rec.nodect = static_cast<std::uint32_t>(*n);
      }
    }
    LD_ASSIGN_OR_RETURN(rec.nids, ParseNidRanges(*nids, rec.nodect));
    return std::optional<AlpsRecord>{std::move(rec)};
  }

  if (StartsWith(daemon, "apsys")) {
    const KeyValueView kv(payload);
    const auto apid = kv.Get("apid");
    if (!apid.has_value()) {
      return NotFoundError("key 'apid' not present");
    }
    LD_ASSIGN_OR_RETURN(const auto apid_v, ParseUint(*apid));
    rec.apid = apid_v;
    if (Contains(payload, "exited")) {
      rec.kind = AlpsRecord::Kind::kExit;
      if (auto v = kv.Get("status")) {
        if (auto n = ParseInt(*v); n.ok()) rec.exit_code = static_cast<int>(*n);
      }
      if (auto v = kv.Get("signal")) {
        if (auto n = ParseInt(*v); n.ok()) {
          rec.exit_signal = static_cast<int>(*n);
        }
      }
      return std::optional<AlpsRecord>{std::move(rec)};
    }
    if (Contains(payload, "killed")) {
      rec.kind = AlpsRecord::Kind::kKill;
      rec.node_failure = kv.Get("reason") == "node_failure";
      if (auto v = kv.Get("nid")) {
        if (auto n = ParseUint(*v); n.ok()) {
          rec.failed_nid = static_cast<NodeIndex>(*n);
        }
      }
      return std::optional<AlpsRecord>{std::move(rec)};
    }
  }

  return std::optional<AlpsRecord>{};
}

std::vector<AlpsRecord> AlpsParser::ParseLines(
    std::span<const std::string_view> lines, QuarantineSink* sink,
    ThreadPool* pool) {
  std::vector<AlpsRecord> out;
  ParseInOrder(*this, LogSource::kAlps, lines, sink, pool, out);
  return out;
}

}  // namespace ld
