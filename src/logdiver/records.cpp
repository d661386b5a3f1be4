#include "logdiver/records.hpp"

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/strings.hpp"

namespace ld {

const char* LogSourceName(LogSource s) {
  switch (s) {
    case LogSource::kTorque: return "torque";
    case LogSource::kAlps: return "alps";
    case LogSource::kSyslog: return "syslog";
    case LogSource::kHwerr: return "hwerr";
  }
  return "invalid";
}

namespace {

/// Widest single range, hi - lo, a nid list may name.
constexpr std::uint64_t kMaxNidRangeSpan = std::uint64_t{1} << 20;

/// Consumes the decimal digits at `p` into `value`.  False when there
/// are none or they overflow 64 bits: exactly the digit runs
/// std::from_chars (ParseUint) refuses.
bool ScanDigits(const char*& p, const char* end, std::uint64_t& value) {
  const char* const first = p;
  std::uint64_t v = 0;
  for (; p != end; ++p) {
    const unsigned digit = static_cast<unsigned char>(*p) - unsigned{'0'};
    if (digit > 9) break;
    if (v > (UINT64_MAX - digit) / 10) return false;
    v = v * 10 + digit;
  }
  value = v;
  return p != first;
}

/// Why a comma piece is rejected, worded as a per-piece ParseUint walk
/// words it: quarantine entries record these strings as the reason.
Status NidPieceError(std::string_view piece) {
  const std::size_t dash = piece.find('-');
  if (dash == std::string_view::npos) return ParseUint(piece).status();
  if (auto lo = ParseUint(piece.substr(0, dash)); !lo.ok()) return lo.status();
  if (auto hi = ParseUint(piece.substr(dash + 1)); !hi.ok()) return hi.status();
  return ParseError("bad nid range: '" + std::string(piece) + "'");
}

}  // namespace

Result<std::vector<NodeIndex>> ParseNidRanges(std::string_view text,
                                              std::uint64_t expected_nodes) {
  if (Trim(text).empty()) return ParseError("empty nid list");
  // Every placeApp record funnels through here: one walk validates each
  // comma piece and appends its nids, with no per-piece Result.  Past
  // the cap the walk stops appending but still validates, so a list
  // that is malformed anyway keeps its syntax reason.
  std::vector<NodeIndex> out;
  out.reserve(std::min(expected_nodes, kMaxNidListNodes));
  std::uint64_t total = 0;
  const char* p = text.data();
  const char* const end = p + text.size();
  while (true) {
    const char* const piece = p;
    std::uint64_t lo = 0;
    bool ok = ScanDigits(p, end, lo);
    std::uint64_t hi = lo;
    if (ok && p != end && *p == '-') {
      ++p;
      ok = ScanDigits(p, end, hi) && hi >= lo && hi - lo <= kMaxNidRangeSpan;
    }
    if (!ok || (p != end && *p != ',')) {
      const char* const comma = std::find(p, end, ',');
      return NidPieceError(std::string_view(piece, comma - piece));
    }
    const std::uint64_t count = hi - lo + 1;
    total += count;
    if (total <= kMaxNidListNodes) {
      for (std::uint64_t i = 0; i < count; ++i) {
        out.push_back(static_cast<NodeIndex>(lo + i));
      }
    }
    if (p == end) break;
    ++p;  // the ','
  }
  if (total > kMaxNidListNodes) {
    return ParseError("nid list expands to more than " +
                      std::to_string(kMaxNidListNodes) + " nodes");
  }
  // A nodect that disagrees with the list leaves slack; records are
  // held for the whole pass, so they keep an exact allocation.
  if (out.capacity() != out.size()) out.shrink_to_fit();
  return out;
}

}  // namespace ld
