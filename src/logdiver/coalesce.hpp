// Event filtering and coalescing ("tupling").
//
// Raw RAS streams are bursty: one physical fault produces repeated
// reports (kernel retry loops) and duplicate records across sources
// (syslog + hwerrlog).  Following the LogDiver preprocessing design, we
// collapse events with the same (category, location) whose inter-arrival
// gap is below a tupling window into a single tuple carrying the count,
// the time span, the maximum severity, and the contributing sources.
// Locations are resolved to machine node sets here so the correlator
// can do purely positional matching.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/interval.hpp"
#include "common/time.hpp"
#include "logdiver/records.hpp"
#include "topology/machine.hpp"

namespace ld {

class SnapshotWriter;
class SnapshotReader;

struct ErrorTuple {
  std::uint64_t id = 0;
  ErrorCategory category = ErrorCategory::kUnknown;
  Severity severity = Severity::kCorrected;  // max over members
  LocScope scope = LocScope::kNode;
  Symbol location;                 // canonical component name; empty = system
  std::vector<NodeIndex> nodes;    // resolved affected nodes (empty = all)
  TimePoint first;                 // earliest member event
  TimePoint last;                  // latest member event
  std::optional<TimePoint> recovered;  // end of system incident window
  std::uint32_t count = 0;         // member events collapsed
  bool from_syslog = false;
  bool from_hwerr = false;

  /// The window during which the fault could have killed something:
  /// [first, recovered] for incidents, [first, last] otherwise.
  Interval ImpactWindow() const;
};

struct CoalesceConfig {
  /// Events of the same (category, location) closer than this merge.
  Duration tupling_window = Duration::Seconds(60);
};

struct CoalesceStats {
  std::uint64_t input_events = 0;
  std::uint64_t tuples = 0;
  std::uint64_t unresolved_locations = 0;  // cname not on this machine
};

/// Incremental coalescer: feed records in roughly chronological order,
/// flush tuples whose window has provably closed.  This is the streaming
/// analyzer's building block; retained state is one open tuple per
/// actively-erroring (category, location).
class StreamingCoalescer {
 public:
  StreamingCoalescer(const Machine& machine, CoalesceConfig config);

  /// Adds one record.  Records within the tupling window of their
  /// tuple's span merge even if slightly out of order.
  void Add(const ErrorRecord& record);

  /// Closes and returns tuples that can no longer grow: those with
  /// last-event + window < watermark.  System incidents arrive already
  /// closed (the syslog parser pairs them), so they follow the same
  /// rule.  Output is sorted by first-event time.
  std::vector<ErrorTuple> Flush(TimePoint watermark);

  /// Closes and returns every tuple, sorted by first-event time.
  std::vector<ErrorTuple> FlushAll();

  std::size_t open_tuples() const { return open_.size(); }
  const CoalesceStats& stats() const { return stats_; }

  /// Snapshot serialization hooks: open/displaced tuples, the id
  /// counter and the stats round-trip (machine + config stay
  /// construction-time).
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  const Machine& machine_;
  CoalesceConfig config_;
  CoalesceStats stats_;
  std::uint64_t next_id_ = 1;
  /// Open tuples keyed by (category << 32) | location-symbol id.  An
  /// unordered map because this is the per-record hot lookup; snapshot
  /// serialization sorts by (category, location string) so the written
  /// bytes stay deterministic (symbol ids are not — see intern.hpp).
  std::unordered_map<std::uint64_t, ErrorTuple> open_;
  /// Tuples displaced by a new burst on the same key; handed out on the
  /// next Flush.
  std::vector<ErrorTuple> closed_;
  /// Memoized (scope, location-symbol) -> affected node set.  Every new
  /// tuple resolves its location, but the vocabulary is a few thousand
  /// recurring component names — caching turns the repeated cname map
  /// lookups (string building included) into one small-vector copy.
  struct ResolvedNodes {
    bool ok = false;
    std::vector<NodeIndex> nodes;
  };
  std::unordered_map<std::uint64_t, ResolvedNodes> resolve_cache_;
};

/// Coalesces parsed error records into tuples.  Input order is free; the
/// output is sorted by first-event time.  Records feed the coalescer in
/// (time, input index) order, so equal timestamps are deterministic and
/// the text-parse and bundle-cache paths assign identical tuple ids.
/// Takes the records by value: a caller done with them moves them in and
/// they are freed on return.
std::vector<ErrorTuple> CoalesceEvents(const Machine& machine,
                                       std::vector<ErrorRecord> records,
                                       const CoalesceConfig& config,
                                       CoalesceStats* stats = nullptr);

}  // namespace ld
