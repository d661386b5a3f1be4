#include "logdiver/coalesce.hpp"

#include <algorithm>

#include "logdiver/snapshot.hpp"
#include "topology/cname.hpp"

namespace ld {
namespace {

/// Resolves a tuple's location string to the affected node set.
/// Returns false when the component is unknown on this machine.
bool ResolveNodes(const Machine& machine, LocScope scope,
                  std::string_view location, std::vector<NodeIndex>& out) {
  switch (scope) {
    case LocScope::kSystem:
      out.clear();  // empty = machine-wide
      return true;
    case LocScope::kNode: {
      auto idx = machine.FindByCname(std::string(location));
      if (!idx.ok()) return false;
      out = {*idx};
      return true;
    }
    case LocScope::kBlade: {
      // Location is a blade prefix "cX-YcCsS"; resolve all 4 node slots.
      out.clear();
      for (int nd = 0; nd < 4; ++nd) {
        auto idx = machine.FindByCname(std::string(location) + "n" +
                                       std::to_string(nd));
        if (idx.ok()) out.push_back(*idx);
      }
      return !out.empty();
    }
    case LocScope::kGemini: {
      // Location "cX-YcCsSg{P}": router P serves nodes 2P and 2P+1.
      const std::size_t g = location.rfind('g');
      if (g == std::string_view::npos || g + 1 >= location.size()) return false;
      const int pair = location[g + 1] - '0';
      if (pair < 0 || pair > 1) return false;
      const std::string blade(location.substr(0, g));
      out.clear();
      for (int nd = pair * 2; nd < pair * 2 + 2; ++nd) {
        auto idx = machine.FindByCname(blade + "n" + std::to_string(nd));
        if (idx.ok()) out.push_back(*idx);
      }
      return !out.empty();
    }
  }
  return false;
}

/// open_ key: the (category, location) identity packed into 64 bits.
/// Symbol ids are process-local and nondeterministic, which is fine
/// here — the key never leaves the process (snapshots re-derive it).
std::uint64_t OpenKey(ErrorCategory category, Symbol location) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(category))
          << 32) |
         location.id();
}

void SortByFirst(std::vector<ErrorTuple>& tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const ErrorTuple& a, const ErrorTuple& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.id < b.id;
            });
}

}  // namespace

Interval ErrorTuple::ImpactWindow() const {
  const TimePoint end = recovered.has_value() ? *recovered : last;
  return Interval{first, std::max(end, first) + Duration(1)};
}

StreamingCoalescer::StreamingCoalescer(const Machine& machine,
                                       CoalesceConfig config)
    : machine_(machine), config_(config) {
  // The open set tracks one tuple per actively-erroring (category,
  // location); a few hundred is a bad day.  Reserving ahead keeps the
  // per-record Add() from ever rehashing mid-stream.
  open_.reserve(256);
}

void StreamingCoalescer::Add(const ErrorRecord& record) {
  ++stats_.input_events;
  const std::uint64_t key = OpenKey(record.category, record.location);
  auto it = open_.find(key);
  if (it != open_.end()) {
    ErrorTuple& tuple = it->second;
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
    // The gap exceeded the window: the old tuple is complete.  Its map
    // slot is reused for the new burst below instead of paying an
    // erase + emplace on every displacement — displacements are the
    // common case (most bursts on a key are long over when the next
    // one starts).
    closed_.push_back(std::move(it->second));
  }
  ErrorTuple tuple;
  tuple.id = next_id_++;
  tuple.category = record.category;
  tuple.severity = record.severity;
  tuple.scope = record.scope;
  tuple.location = record.location;
  tuple.first = record.time;
  tuple.last = record.time;
  tuple.recovered = record.recovered;
  tuple.count = 1;
  tuple.from_syslog = record.source == LogSource::kSyslog;
  tuple.from_hwerr = record.source == LogSource::kHwerr;
  // Resolution is memoized per (scope, location): the same few thousand
  // component names recur across the whole log, and a cache hit replaces
  // the cname map lookups (and their string building) with a copy of a
  // short node list.
  const std::uint64_t resolve_key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(record.scope))
       << 32) |
      record.location.id();
  auto [cached, fresh] = resolve_cache_.try_emplace(resolve_key);
  if (fresh) {
    cached->second.ok = ResolveNodes(machine_, record.scope,
                                     record.location.view(),
                                     cached->second.nodes);
  }
  if (!cached->second.ok) {
    ++stats_.unresolved_locations;
    // component not on this machine: drop (and release the displaced
    // slot, if the record evicted one).
    if (it != open_.end()) open_.erase(it);
    return;
  }
  tuple.nodes = cached->second.nodes;
  if (it != open_.end()) {
    it->second = std::move(tuple);
  } else {
    open_.emplace(key, std::move(tuple));
  }
}

std::vector<ErrorTuple> StreamingCoalescer::Flush(TimePoint watermark) {
  std::vector<ErrorTuple> out = std::move(closed_);
  closed_.clear();
  for (auto it = open_.begin(); it != open_.end();) {
    if (it->second.last + config_.tupling_window < watermark) {
      out.push_back(std::move(it->second));
      it = open_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

std::vector<ErrorTuple> StreamingCoalescer::FlushAll() {
  std::vector<ErrorTuple> out = std::move(closed_);
  closed_.clear();
  for (auto& [key, tuple] : open_) out.push_back(std::move(tuple));
  open_.clear();
  stats_.tuples += out.size();
  SortByFirst(out);
  return out;
}

void StreamingCoalescer::SaveState(SnapshotWriter& w) const {
  w.U64(stats_.input_events);
  w.U64(stats_.tuples);
  w.U64(stats_.unresolved_locations);
  w.U64(next_id_);
  // The open map is unordered and its keys embed nondeterministic
  // symbol ids; serialize in (category, location string) order so the
  // snapshot bytes are a pure function of the analyzed stream.
  std::vector<const ErrorTuple*> open_sorted;
  open_sorted.reserve(open_.size());
  for (const auto& [key, tuple] : open_) open_sorted.push_back(&tuple);
  std::sort(open_sorted.begin(), open_sorted.end(),
            [](const ErrorTuple* a, const ErrorTuple* b) {
              if (a->category != b->category) return a->category < b->category;
              return a->location.view() < b->location.view();
            });
  w.U32(static_cast<std::uint32_t>(open_sorted.size()));
  for (const ErrorTuple* tuple : open_sorted) {
    w.I32(static_cast<std::int32_t>(tuple->category));
    w.Str(tuple->location.view());
    SaveErrorTuple(w, *tuple);
  }
  w.U32(static_cast<std::uint32_t>(closed_.size()));
  for (const ErrorTuple& tuple : closed_) SaveErrorTuple(w, tuple);
}

void StreamingCoalescer::LoadState(SnapshotReader& r) {
  stats_.input_events = r.U64();
  stats_.tuples = r.U64();
  stats_.unresolved_locations = r.U64();
  next_id_ = r.U64();
  open_.clear();
  const std::uint32_t open_count = r.U32();
  if (r.ok()) open_.reserve(std::max<std::uint32_t>(open_count, 256));
  for (std::uint32_t i = 0; i < open_count && r.ok(); ++i) {
    const auto cat = static_cast<ErrorCategory>(r.I32());
    const Symbol location = Intern(r.Str());
    ErrorTuple tuple;
    LoadErrorTuple(r, tuple);
    open_.emplace(OpenKey(cat, location), std::move(tuple));
  }
  closed_.clear();
  const std::uint32_t closed_count = r.U32();
  if (r.ok()) closed_.reserve(closed_count);
  for (std::uint32_t i = 0; i < closed_count && r.ok(); ++i) {
    ErrorTuple tuple;
    LoadErrorTuple(r, tuple);
    closed_.push_back(std::move(tuple));
  }
}

std::vector<ErrorTuple> CoalesceEvents(const Machine& machine,
                                       std::vector<ErrorRecord> records,
                                       const CoalesceConfig& config,
                                       CoalesceStats* stats) {
  // Feed order is (time, input index): deterministic on equal
  // timestamps.  Sorting 4-byte indices instead of the 32-byte records
  // keeps the coalesce-time peak (records + order + growing tuples) low.
  std::vector<std::uint32_t> order(records.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&records](std::uint32_t a, std::uint32_t b) {
              if (records[a].time != records[b].time) {
                return records[a].time < records[b].time;
              }
              return a < b;
            });
  StreamingCoalescer coalescer(machine, config);
  for (const std::uint32_t i : order) coalescer.Add(records[i]);
  std::vector<ErrorTuple> out = coalescer.FlushAll();
  if (stats != nullptr) *stats = coalescer.stats();
  return out;
}

}  // namespace ld
