#include "logdiver/reconstruct.hpp"

#include <algorithm>

#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

// Sort (start, apid, index) keys instead of the ~wide AppRun structs
// themselves, then place each run once: same order, a fraction of the
// bytes shuffled through the sort network.
void SortByStart(std::vector<AppRun>& runs) {
  struct SortKey {
    TimePoint start;
    ApId apid;
    std::uint32_t index;
  };
  std::vector<SortKey> keys;
  keys.reserve(runs.size());
  for (std::uint32_t i = 0; i < runs.size(); ++i) {
    keys.push_back(SortKey{runs[i].start, runs[i].apid, i});
  }
  std::sort(keys.begin(), keys.end(), [](const SortKey& a, const SortKey& b) {
    if (a.start != b.start) return a.start < b.start;
    return a.apid < b.apid;
  });
  std::vector<AppRun> sorted;
  sorted.reserve(runs.size());
  for (const SortKey& key : keys) {
    sorted.push_back(std::move(runs[key.index]));
  }
  runs = std::move(sorted);
}

/// A hash map's values in key order, so the bytes never depend on its
/// insertion history: a u64 count, then each value sorted by
/// `key_of(value)`.  Read back, each value goes in under its key.
template <class Io, class Map, class KeyOf>
void SortedValues(Io& io, Map& map, const KeyOf& key_of) {
  using Value = typename Map::mapped_type;
  const std::size_t n = io.template Count<std::uint64_t>(
      map.size(), [](SnapshotWriter& w) { w(Value{}); });
  if constexpr (Io::kReading) {
    map.clear();
    for (std::size_t i = 0; i < n && io.ok(); ++i) {
      Value value{};
      io(value);
      map.emplace(key_of(value), std::move(value));
    }
  } else {
    std::vector<const Value*> sorted;
    sorted.reserve(map.size());
    for (const auto& [key, value] : map) sorted.push_back(&value);
    std::sort(sorted.begin(), sorted.end(),
              [&key_of](const Value* a, const Value* b) {
                return key_of(*a) < key_of(*b);
              });
    for (const Value* value : sorted) io(*value);
  }
}

}  // namespace

RunBuilder::RunBuilder(const Machine& machine)
    : node_types_(machine.node_count()) {
  for (NodeIndex n = 0; n < machine.node_count(); ++n) {
    node_types_[n] = machine.node(n).type;
  }
}

void RunBuilder::Reserve(std::size_t jobs, std::size_t runs) {
  jobs_.reserve(jobs);
  runs_.reserve(runs);
}

void RunBuilder::AddJob(const TorqueRecord& record) {
  auto [it, inserted] = jobs_.try_emplace(record.jobid, record);
  if (inserted) return;
  if (record.kind == TorqueRecord::Kind::kEnd &&
      it->second.kind != TorqueRecord::Kind::kEnd) {
    it->second = record;  // E record is authoritative
    return;
  }
  // Replayed S over anything, or E over an E already held: the stored
  // record wins and the replay is disclosed, not applied.
  ++stats_.duplicate_job_records;
}

void RunBuilder::AddPlacement(AlpsRecord&& record) {
  ++stats_.placements;
  auto [it, inserted] = runs_.try_emplace(record.apid);
  if (!inserted) {
    ++stats_.duplicate_placements;  // replayed placement; first wins
    return;
  }
  AppRun& run = it->second;
  run.apid = record.apid;
  run.jobid = record.jobid;
  run.user = record.user;
  run.nodect = record.nodect != 0
                   ? record.nodect
                   : static_cast<std::uint32_t>(record.nids.size());
  run.nodes = std::move(record.nids);
  run.start = record.time;
  run.end = record.time;  // until a termination record arrives

  // Node type from placement: majority partition of the nids.
  std::uint32_t xe = 0, xk = 0;
  for (NodeIndex n : run.nodes) {
    if (n >= node_types_.size()) continue;
    switch (node_types_[n]) {
      case NodeType::kXE: ++xe; break;
      case NodeType::kXK: ++xk; break;
      case NodeType::kService: break;
    }
  }
  run.node_type = xk > xe ? NodeType::kXK : NodeType::kXE;
  if (xe != 0 && xk != 0) ++stats_.mixed_node_types;

  const auto job = jobs_.find(run.jobid);
  if (job == jobs_.end()) {
    ++stats_.missing_job;
  } else {
    run.queue = job->second.queue;
    run.job_submit = job->second.submit;
    run.job_start = job->second.start;
    run.walltime_limit = job->second.walltime_limit;
    run.job_exit_status = job->second.exit_status;
    if (run.user.empty()) run.user = job->second.user;
  }
  ++open_runs_;
  ++stats_.runs;
}

std::optional<AppRun> RunBuilder::AddTermination(const AlpsRecord& record) {
  ++stats_.terminations;
  const auto it = runs_.find(record.apid);
  if (it == runs_.end()) {
    ++stats_.orphan_terminations;
    return std::nullopt;
  }
  AppRun& slot = it->second;
  if (slot.has_termination) {
    ++stats_.duplicate_terminations;  // replayed exit/kill; first wins
    return std::nullopt;
  }
  slot.end = record.time;
  slot.has_termination = true;
  if (record.kind == AlpsRecord::Kind::kExit) {
    slot.exit_code = record.exit_code;
    slot.exit_signal = record.exit_signal;
  } else {
    slot.killed_node_failure = record.node_failure;
    slot.failed_nid = record.failed_nid;
    slot.exit_code = 137;  // SIGKILL convention
    slot.exit_signal = 9;
  }
  --open_runs_;
  // The moved-from slot keeps its apid, end and has_termination (the
  // replay memory); only the nid list leaves with the run.
  AppRun run = std::move(slot);
  return run;
}

std::vector<AppRun> RunBuilder::TakeUnterminated() {
  std::vector<AppRun> runs;
  runs.reserve(open_runs_);
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (it->second.has_termination) {
      ++it;
      continue;
    }
    ++stats_.missing_termination;
    runs.push_back(std::move(it->second));
    it = runs_.erase(it);
  }
  open_runs_ = 0;
  SortByStart(runs);
  return runs;
}

void RunBuilder::Forget(TimePoint terminated_before,
                        TimePoint jobs_ended_before) {
  for (auto it = runs_.begin(); it != runs_.end();) {
    if (it->second.has_termination && it->second.end < terminated_before) {
      it = runs_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.kind == TorqueRecord::Kind::kEnd &&
        it->second.end < jobs_ended_before) {
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
}

template <class Io>
void RunBuilder::Fields(Io& io) {
  SortedValues(io, jobs_, [](const TorqueRecord& job) { return job.jobid; });
  SortedValues(io, runs_, [](const AppRun& run) { return run.apid; });
  io(stats_);
  if constexpr (Io::kReading) {
    open_runs_ = 0;
    for (const auto& [apid, run] : runs_) open_runs_ += !run.has_termination;
  }
}

template void RunBuilder::Fields(SnapshotWriter&);
template void RunBuilder::Fields(SnapshotReader&);

std::vector<AppRun> ReconstructRuns(const Machine& machine,
                                    std::vector<AlpsRecord> alps,
                                    const std::vector<TorqueRecord>& torque,
                                    ReconstructStats* stats) {
  std::size_t placements = 0;
  for (const AlpsRecord& rec : alps) {
    placements += rec.kind == AlpsRecord::Kind::kPlace;
  }
  RunBuilder builder(machine);
  builder.Reserve(torque.size(), placements);
  for (const TorqueRecord& rec : torque) builder.AddJob(rec);
  for (AlpsRecord& rec : alps) {
    if (rec.kind == AlpsRecord::Kind::kPlace) {
      builder.AddPlacement(std::move(rec));
    }
  }
  std::vector<AppRun> runs;
  runs.reserve(placements);
  for (const AlpsRecord& rec : alps) {
    if (rec.kind == AlpsRecord::Kind::kPlace) continue;
    if (auto run = builder.AddTermination(rec)) runs.push_back(std::move(*run));
  }
  for (AppRun& run : builder.TakeUnterminated()) {
    runs.push_back(std::move(run));
  }
  SortByStart(runs);
  if (stats != nullptr) *stats = builder.stats();
  return runs;
}

}  // namespace ld
