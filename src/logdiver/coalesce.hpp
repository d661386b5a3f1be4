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

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/interval.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "logdiver/records.hpp"
#include "topology/machine.hpp"

namespace ld {

/// A tuple's resolved nodes, held inline: a location names at most one
/// blade (4 nodes), so a Gemini resolves to 2, a node to 1 and a
/// system-wide incident to none.  Keeps ErrorTuple trivially copyable.
class NodeSet {
 public:
  static constexpr std::size_t kCapacity = 4;
  using iterator = NodeIndex*;
  using const_iterator = const NodeIndex*;

  NodeSet() = default;
  NodeSet(std::initializer_list<NodeIndex> nodes) {
    for (const NodeIndex n : nodes) push_back(n);
  }

  const NodeIndex* begin() const { return nodes_; }
  const NodeIndex* end() const { return nodes_ + size_; }
  NodeIndex* begin() { return nodes_; }
  NodeIndex* end() { return nodes_ + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void push_back(NodeIndex n) {
    LD_CHECK(size_ < kCapacity, "NodeSet holds at most 4 nodes");
    nodes_[size_++] = n;
  }
  /// New entries are zero.
  void resize(std::size_t n) {
    LD_CHECK(n <= kCapacity, "NodeSet holds at most 4 nodes");
    for (std::size_t i = size_; i < n; ++i) nodes_[i] = 0;
    size_ = static_cast<std::uint8_t>(n);
  }
  void clear() { size_ = 0; }

  friend bool operator==(const NodeSet& a, const NodeSet& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  NodeIndex nodes_[kCapacity] = {};
  std::uint8_t size_ = 0;
};

struct ErrorTuple {
  std::uint64_t id = 0;
  ErrorCategory category = ErrorCategory::kUnknown;
  Severity severity = Severity::kCorrected;  // max over members
  LocScope scope = LocScope::kNode;
  Symbol location;                 // canonical component name; empty = system
  NodeSet nodes;                   // resolved affected nodes (empty = all)
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

// Tuples are created, flushed and cached by the hundred thousand: a
// plain 80-byte value moves with memcpy and never touches the heap.
static_assert(std::is_trivially_copyable_v<ErrorTuple>);
static_assert(sizeof(ErrorTuple) <= 80);

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

  /// The checkpoint codec (snapshot.hpp): open/displaced tuples, the
  /// id counter and the stats round-trip (machine + config stay
  /// construction-time).
  template <class Io>
  void Fields(Io& io);

 private:
  /// 64-bit key -> 32-bit value map: open addressing, linear probing,
  /// backward-shift deletion (an erased key leaves no tombstone behind),
  /// load factor at most 0.75.  Keys are (enum << 32) | symbol id, so
  /// the all-ones key never occurs and marks an empty slot.  Iteration
  /// order is never observed: nothing written depends on slot order.
  class KeyTable {
   public:
    KeyTable();
    /// The value stored under `key`, or nullptr.
    const std::uint32_t* Find(std::uint64_t key) const;
    std::uint32_t* Find(std::uint64_t key) {
      return const_cast<std::uint32_t*>(std::as_const(*this).Find(key));
    }
    /// Inserts (key, value) unless `key` is present; returns the value
    /// slot and whether it was inserted.  Invalidates earlier pointers.
    std::pair<std::uint32_t*, bool> Insert(std::uint64_t key,
                                           std::uint32_t value);
    /// Removes `key` if present.  Invalidates earlier pointers.
    void Erase(std::uint64_t key);
    void Clear();
    std::size_t size() const { return size_; }

   private:
    struct Slot {
      std::uint64_t key;
      std::uint32_t value;
    };
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
    std::size_t Home(std::uint64_t key) const;
    std::size_t Probe(std::uint64_t key) const;
    void Grow();

    std::vector<Slot> slots_;
    std::size_t mask_ = 0;
    int shift_ = 64;
    std::size_t size_ = 0;
  };

  /// The node set of (scope, location), or nullptr when the location is
  /// not on this machine.  Memoized: component names recur across the
  /// whole log, so the cname lookups (and their string building) run
  /// once per distinct name.
  const NodeSet* Resolve(LocScope scope, Symbol location);

  static constexpr std::uint32_t kUnresolved = 0xffffffffu;

  const Machine& machine_;
  CoalesceConfig config_;
  CoalesceStats stats_;
  std::uint64_t next_id_ = 1;
  /// Every open tuple plus those displaced since the last Flush, in
  /// creation (= id) order.  A displaced tuple stays where it is; only
  /// the key table stops pointing at it.
  std::vector<ErrorTuple> tuples_;
  /// (category << 32) | location-symbol id -> index in tuples_ of the
  /// key's open tuple.  Symbol ids are process-local and
  /// nondeterministic, which is fine: the key never leaves the process
  /// (snapshots write the location string).
  KeyTable open_;
  /// (scope << 32) | location-symbol id -> index in resolved_, or
  /// kUnresolved.
  KeyTable resolve_index_;
  std::vector<NodeSet> resolved_;
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
