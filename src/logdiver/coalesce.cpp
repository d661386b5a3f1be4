#include "logdiver/coalesce.hpp"

#include <algorithm>

#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// Resolves a tuple's location string to the affected node set.
/// Returns false when the component is unknown on this machine.
bool ResolveNodes(const Machine& machine, LocScope scope,
                  std::string_view location, NodeSet& out) {
  out.clear();  // empty = machine-wide
  switch (scope) {
    case LocScope::kSystem:
      return true;
    case LocScope::kNode: {
      auto idx = machine.FindByCname(location);
      if (!idx.ok()) return false;
      out.push_back(*idx);
      return true;
    }
    case LocScope::kBlade: {
      // Location is a blade prefix "cX-YcCsS"; all 4 node slots.
      auto first = machine.FindBlade(location);
      if (!first.ok()) return false;
      for (NodeIndex nd = 0; nd < 4; ++nd) out.push_back(*first + nd);
      return true;
    }
    case LocScope::kGemini: {
      // Location "cX-YcCsSg{P}": router P serves nodes 2P and 2P+1.
      const std::size_t g = location.rfind('g');
      if (g == std::string_view::npos || g + 1 >= location.size()) return false;
      const int pair = location[g + 1] - '0';
      if (pair < 0 || pair > 1) return false;
      auto first = machine.FindBlade(location.substr(0, g));
      if (!first.ok()) return false;
      const auto node0 = *first + static_cast<NodeIndex>(pair) * 2;
      out.push_back(node0);
      out.push_back(node0 + 1);
      return true;
    }
  }
  return false;
}

/// A (category or scope, location) identity packed into 64 bits.  The
/// enum sits in bits 32..39, so the key is never all ones.
template <typename Enum>
std::uint64_t PackKey(Enum e, Symbol location) {
  return (static_cast<std::uint64_t>(static_cast<std::uint8_t>(e)) << 32) |
         location.id();
}

std::uint64_t OpenKey(const ErrorTuple& tuple) {
  return PackKey(tuple.category, tuple.location);
}

/// Sorts by (first, id).  Batch feeds records in time order, so its
/// tuples are created in this order already and the check is the
/// whole cost.
void SortByFirst(std::vector<ErrorTuple>& tuples) {
  const auto by_first = [](const ErrorTuple& a, const ErrorTuple& b) {
    if (a.first != b.first) return a.first < b.first;
    return a.id < b.id;
  };
  if (!std::is_sorted(tuples.begin(), tuples.end(), by_first)) {
    std::sort(tuples.begin(), tuples.end(), by_first);
  }
}

}  // namespace

Interval ErrorTuple::ImpactWindow() const {
  const TimePoint end = recovered.has_value() ? *recovered : last;
  return Interval{first, std::max(end, first) + Duration(1)};
}

// --- KeyTable --------------------------------------------------------

StreamingCoalescer::KeyTable::KeyTable() {
  // 256 slots: a few hundred open keys is a bad day for streaming, so
  // the per-record path rarely grows the table mid-stream.
  slots_.assign(256, Slot{kEmpty, 0});
  mask_ = slots_.size() - 1;
  shift_ = 64 - 8;
}

std::size_t StreamingCoalescer::KeyTable::Home(std::uint64_t key) const {
  // Fibonacci hashing: the multiply spreads the symbol id (low bits)
  // and the enum (bits 32..39) over the top bits the shift keeps.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
}

std::size_t StreamingCoalescer::KeyTable::Probe(std::uint64_t key) const {
  std::size_t i = Home(key);
  while (slots_[i].key != key && slots_[i].key != kEmpty) i = (i + 1) & mask_;
  return i;
}

const std::uint32_t* StreamingCoalescer::KeyTable::Find(
    std::uint64_t key) const {
  const Slot& slot = slots_[Probe(key)];
  return slot.key == key ? &slot.value : nullptr;
}

std::pair<std::uint32_t*, bool> StreamingCoalescer::KeyTable::Insert(
    std::uint64_t key, std::uint32_t value) {
  std::size_t i = Probe(key);
  if (slots_[i].key == key) return {&slots_[i].value, false};
  if ((size_ + 1) * 4 > slots_.size() * 3) {
    Grow();
    i = Probe(key);
  }
  slots_[i] = Slot{key, value};
  ++size_;
  return {&slots_[i].value, true};
}

void StreamingCoalescer::KeyTable::Erase(std::uint64_t key) {
  std::size_t hole = Probe(key);
  if (slots_[hole].key != key) return;
  // Backward shift: pull each later entry of the probe run into the hole
  // unless that would move it before its home slot.
  for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty;
       j = (j + 1) & mask_) {
    const std::size_t home = Home(slots_[j].key);
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole].key = kEmpty;
  --size_;
}

void StreamingCoalescer::KeyTable::Clear() {
  for (Slot& slot : slots_) slot.key = kEmpty;
  size_ = 0;
}

void StreamingCoalescer::KeyTable::Grow() {
  std::vector<Slot> old(slots_.size() * 2, Slot{kEmpty, 0});
  old.swap(slots_);
  mask_ = slots_.size() - 1;
  --shift_;
  for (const Slot& slot : old) {
    if (slot.key != kEmpty) slots_[Probe(slot.key)] = slot;
  }
}

// --- StreamingCoalescer ----------------------------------------------

StreamingCoalescer::StreamingCoalescer(const Machine& machine,
                                       CoalesceConfig config)
    : machine_(machine), config_(config) {}

const NodeSet* StreamingCoalescer::Resolve(LocScope scope, Symbol location) {
  auto [index, fresh] =
      resolve_index_.Insert(PackKey(scope, location), kUnresolved);
  if (fresh) {
    NodeSet nodes;
    if (ResolveNodes(machine_, scope, location.view(), nodes)) {
      *index = static_cast<std::uint32_t>(resolved_.size());
      resolved_.push_back(nodes);
    }
  }
  return *index == kUnresolved ? nullptr : &resolved_[*index];
}

void StreamingCoalescer::Add(const ErrorRecord& record) {
  ++stats_.input_events;
  const std::uint64_t key = PackKey(record.category, record.location);
  std::uint32_t* open = open_.Find(key);
  if (open != nullptr) {
    ErrorTuple& tuple = tuples_[*open];
    if (record.time >= tuple.first - config_.tupling_window &&
        record.time <= tuple.last + config_.tupling_window) {
      tuple.first = std::min(tuple.first, record.time);
      tuple.last = std::max(tuple.last, record.time);
      tuple.severity = std::max(tuple.severity, record.severity);
      tuple.count += 1;
      tuple.from_syslog |= record.source == LogSource::kSyslog;
      tuple.from_hwerr |= record.source == LogSource::kHwerr;
      if (record.recovered.has_value()) {
        tuple.recovered = tuple.recovered.has_value()
                              ? std::max(*tuple.recovered, *record.recovered)
                              : record.recovered;
      }
      return;
    }
    // The gap exceeded the window: the old tuple is complete.  It stays
    // in tuples_ as a displaced tuple; the key moves to the new burst.
  }
  // A dropped record still spends its id: ids number every tuple
  // opening, resolved or not.
  const std::uint64_t id = next_id_++;
  const NodeSet* nodes = Resolve(record.scope, record.location);
  if (nodes == nullptr) {
    ++stats_.unresolved_locations;
    // component not on this machine: drop (and close the displaced
    // tuple, if the record evicted one).
    if (open != nullptr) open_.Erase(key);
    return;
  }
  ErrorTuple tuple;
  tuple.id = id;
  tuple.category = record.category;
  tuple.severity = record.severity;
  tuple.scope = record.scope;
  tuple.location = record.location;
  tuple.nodes = *nodes;
  tuple.first = record.time;
  tuple.last = record.time;
  tuple.recovered = record.recovered;
  tuple.count = 1;
  tuple.from_syslog = record.source == LogSource::kSyslog;
  tuple.from_hwerr = record.source == LogSource::kHwerr;
  const auto index = static_cast<std::uint32_t>(tuples_.size());
  tuples_.push_back(tuple);
  if (open != nullptr) {
    *open = index;
  } else {
    open_.Insert(key, index);
  }
}

std::vector<ErrorTuple> StreamingCoalescer::Flush(TimePoint watermark) {
  // One pass over tuples_ (everything created since the last flush plus
  // the open tuples): hand out the displaced and the expired, compact
  // the rest to the front and repoint their keys.
  std::vector<ErrorTuple> out;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    const ErrorTuple& tuple = tuples_[i];
    const std::uint64_t key = OpenKey(tuple);
    std::uint32_t* open = open_.Find(key);
    if (open != nullptr && *open == i) {
      if (!(tuple.last + config_.tupling_window < watermark)) {
        *open = static_cast<std::uint32_t>(kept);
        tuples_[kept++] = tuple;
        continue;
      }
      open_.Erase(key);
    }
    out.push_back(tuple);
  }
  tuples_.resize(kept);
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

std::vector<ErrorTuple> StreamingCoalescer::FlushAll() {
  std::vector<ErrorTuple> out = std::move(tuples_);
  tuples_.clear();
  open_.Clear();
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

template <class Io>
void StreamingCoalescer::Fields(Io& io) {
  io(stats_, next_id_);
  // Open keys embed nondeterministic symbol ids; the open tuples go out
  // in (category, location string) order so the snapshot bytes are a
  // pure function of the analyzed stream.  Displaced tuples follow in
  // creation order.
  std::vector<ErrorTuple> open;
  std::vector<ErrorTuple> closed;
  if constexpr (!Io::kReading) {
    open.reserve(open_.size());
    closed.reserve(tuples_.size() - open_.size());
    for (std::size_t i = 0; i < tuples_.size(); ++i) {
      const std::uint32_t* index = open_.Find(OpenKey(tuples_[i]));
      (index != nullptr && *index == i ? open : closed).push_back(tuples_[i]);
    }
    std::sort(open.begin(), open.end(),
              [](const ErrorTuple& a, const ErrorTuple& b) {
                if (a.category != b.category) return a.category < b.category;
                return a.location.view() < b.location.view();
              });
  }
  // Each open tuple follows its key: the category, written as an I32
  // although ErrorCategory is one byte, and the location.
  Seq<std::uint32_t>(io, open, []<class In>(In& in, ErrorTuple& tuple) {
    auto category = static_cast<std::int32_t>(tuple.category);
    Symbol location = tuple.location;
    in(category, location, tuple);
    if constexpr (In::kReading) {
      if (in.ok() && (tuple.category != static_cast<ErrorCategory>(category) ||
                      tuple.location != location)) {
        in.Fail("open tuple key does not match its tuple");
      }
    }
  });
  Seq<std::uint32_t>(io, closed);
  if constexpr (Io::kReading) {
    // Restore creation (= id) order; the open tuples own a key.
    const std::size_t open_count = open.size();
    std::vector<ErrorTuple>& loaded = open;
    loaded.insert(loaded.end(), closed.begin(), closed.end());
    std::vector<std::uint32_t> order(loaded.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&loaded](std::uint32_t a,
                                                    std::uint32_t b) {
      return loaded[a].id != loaded[b].id ? loaded[a].id < loaded[b].id
                                          : a < b;
    });
    tuples_.clear();
    tuples_.reserve(order.size());
    open_.Clear();
    for (const std::uint32_t i : order) {
      const auto index = static_cast<std::uint32_t>(tuples_.size());
      tuples_.push_back(loaded[i]);
      if (i < open_count && !open_.Insert(OpenKey(loaded[i]), index).second) {
        io.Fail("duplicate open tuple key");
      }
    }
  }
}

template void StreamingCoalescer::Fields(SnapshotWriter&);
template void StreamingCoalescer::Fields(SnapshotReader&);

std::vector<ErrorTuple> CoalesceEvents(const Machine& machine,
                                       std::vector<ErrorRecord> records,
                                       const CoalesceConfig& config,
                                       CoalesceStats* stats) {
  // Feed order is (time, input index): deterministic on equal
  // timestamps.  A stable sort on time alone gives exactly that order,
  // and each source arrives mostly time-ordered, which a merge sort
  // exploits.  Sorting 4-byte indices instead of the 32-byte records
  // keeps the coalesce-time peak (records + order + growing tuples) low.
  std::vector<std::uint32_t> order(records.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&records](std::uint32_t a, std::uint32_t b) {
                     return records[a].time < records[b].time;
                   });
  StreamingCoalescer coalescer(machine, config);
  for (const std::uint32_t i : order) coalescer.Add(records[i]);
  std::vector<ErrorTuple> out = coalescer.FlushAll();
  if (stats != nullptr) *stats = coalescer.stats();
  return out;
}

}  // namespace ld
