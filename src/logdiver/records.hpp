// Parsed-record model: the normalized output of the four log parsers.
//
// Parsers never throw on malformed input: every line either yields a
// record, is recognized-but-irrelevant (skipped), or is counted as
// malformed.  Multi-gigabyte production logs always contain garbage.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/intern.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "faults/taxonomy.hpp"
#include "topology/machine.hpp"
#include "workload/types.hpp"

namespace ld {

/// Where a parsed error event sits spatially.  Unlike the injector's
/// Scope, parsed locations include Gemini routers (netwatch reports
/// them) — the correlator resolves routers to their attached nodes.
enum class LocScope : std::uint8_t { kNode, kBlade, kGemini, kSystem };

/// Which log file a record came from.
enum class LogSource : std::uint8_t { kTorque, kAlps, kSyslog, kHwerr };

/// Number of LogSource enumerators.  Per-source arrays must be sized
/// with this so adding a fifth source cannot silently under-index.
inline constexpr std::size_t kNumLogSources = 4;

const char* LogSourceName(LogSource s);

/// A Torque accounting record ("S" or "E").  Only the fields the
/// analysis reads are kept.  The repeated identity fields (user, queue)
/// are interned Symbols: a production log repeats a few hundred
/// distinct values across millions of records, so per-record
/// std::strings were pure allocation churn.
struct TorqueRecord {
  enum class Kind : std::uint8_t { kStart, kEnd };
  Kind kind = Kind::kStart;
  TimePoint time;
  JobId jobid = 0;
  Symbol user;
  Symbol queue;
  TimePoint submit;
  TimePoint start;
  TimePoint end;                  // E records only
  int exit_status = 0;            // E records only
  std::uint32_t nodect = 0;
  Duration walltime_limit{0};
  Duration walltime_used{0};      // E records only
};

/// An ALPS record: placement, exit, or kill.  Only the fields the
/// analysis reads are kept, ordered by alignment so the record packs
/// into 72 bytes; the batch path holds one per ALPS line.
struct AlpsRecord {
  enum class Kind : std::uint8_t { kPlace, kExit, kKill };
  TimePoint time;
  ApId apid = 0;
  // kPlace:
  JobId jobid = 0;
  std::vector<NodeIndex> nids;
  Symbol user;
  std::uint32_t nodect = 0;
  // kExit:
  int exit_code = 0;
  int exit_signal = 0;
  // kKill:
  NodeIndex failed_nid = kInvalidNode;
  bool node_failure = false;  // reason=node_failure
  Kind kind = Kind::kPlace;
};

/// A normalized error event from syslog or hwerr.  The four one-byte
/// enums sit together so the record packs into 32 bytes; the batch
/// path holds one per error line from parse through coalesce.
struct ErrorRecord {
  TimePoint time;
  ErrorCategory category = ErrorCategory::kUnknown;
  Severity severity = Severity::kCorrected;
  LocScope scope = LocScope::kNode;
  LogSource source = LogSource::kSyslog;
  /// Node-level cname ("c1-2c0s3n1"), blade prefix ("c1-2c0s3"), or
  /// gemini name ("c1-2c0s3g0"); empty for system scope.  Interned: the
  /// same few thousand component names recur across the whole log.
  Symbol location;
  /// For system-scope incidents: the service-restored time if the parser
  /// paired a recovery line (nullopt while the incident is open).
  std::optional<TimePoint> recovered;
};
static_assert(sizeof(ErrorRecord) <= 32, "ErrorRecord grew past 32 bytes");

/// Per-parser counters, reported so silent data loss is impossible.
struct ParseStats {
  std::uint64_t lines = 0;
  std::uint64_t records = 0;
  std::uint64_t skipped = 0;    // recognized but irrelevant
  std::uint64_t malformed = 0;  // unparseable

  /// Counts one line by its parse outcome: an error is malformed, an
  /// empty optional skipped, a value a record.  The one counting rule
  /// behind every parser's Apply and the streaming analyzer.
  template <typename Record>
  void Count(const Result<std::optional<Record>>& outcome) {
    ++lines;
    if (!outcome.ok()) {
      ++malformed;
    } else if (outcome->has_value()) {
      ++records;
    } else {
      ++skipped;
    }
  }
};

/// Most nodes one nid list may expand to.  A list past it is rejected
/// as malformed, so a few hundred bytes of repeated ranges cannot
/// expand to gigabytes.
inline constexpr std::uint64_t kMaxNidListNodes = std::uint64_t{1} << 20;

/// Parses ALPS nid range syntax: "3-5,9" -> {3,4,5,9}, in one walk.
/// `expected_nodes` (the record's nodect, untrusted) sizes the output's
/// first reservation, never past kMaxNidListNodes.
Result<std::vector<NodeIndex>> ParseNidRanges(std::string_view text,
                                              std::uint64_t expected_nodes = 0);

}  // namespace ld
