// Workload reconstruction: joining ALPS application records with Torque
// job records into complete application runs.
//
// This is LogDiver's first join: apid -> (placement, termination) from
// ALPS, then jobid -> (user, queue, walltime limit, job exit status)
// from Torque.  The join is defensive — production logs lose lines —
// and every unmatched or replayed record is counted.  RunBuilder holds
// the join rules once; batch ReconstructRuns and the streaming analyzer
// (and through it the fleet workers and logdiverd) both feed it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.hpp"
#include "logdiver/records.hpp"
#include "topology/machine.hpp"

namespace ld {

/// A fully reconstructed application run.
struct AppRun {
  ApId apid = 0;
  JobId jobid = 0;
  Symbol user;
  Symbol queue;
  NodeType node_type = NodeType::kXE;
  std::vector<NodeIndex> nodes;
  std::uint32_t nodect = 0;
  TimePoint start;
  TimePoint end;
  bool has_termination = false;  // exit or kill record was found
  int exit_code = 0;
  int exit_signal = 0;
  bool killed_node_failure = false;
  NodeIndex failed_nid = kInvalidNode;
  // Job-level context:
  TimePoint job_submit;
  TimePoint job_start;
  Duration walltime_limit{0};
  int job_exit_status = 0;

  Duration duration() const { return end - start; }
  /// Queue wait of the owning job (start - submit); 0 without a record.
  Duration queue_wait() const { return job_start - job_submit; }
  /// Exact node-seconds consumed (logs are second-granular, so this is
  /// lossless).  Integer so accumulator sums are associative — shard
  /// partials merge to the serial analyzer's exact tallies regardless of
  /// how runs were split across workers.
  std::int64_t NodeSeconds() const {
    return duration().seconds() * static_cast<std::int64_t>(nodect);
  }
  double NodeHours() const {
    return static_cast<double>(NodeSeconds()) / 3600.0;
  }
};

struct ReconstructStats {
  std::uint64_t placements = 0;
  std::uint64_t terminations = 0;
  std::uint64_t runs = 0;
  std::uint64_t missing_termination = 0;  // placement without exit/kill
  std::uint64_t orphan_terminations = 0;  // exit/kill without placement
  std::uint64_t missing_job = 0;          // no Torque record for jobid
  std::uint64_t mixed_node_types = 0;     // placement spans partitions
  /// Replayed records (duplicated log lines): the first placement and
  /// the first termination per apid win; replays are counted, not applied.
  std::uint64_t duplicate_placements = 0;
  std::uint64_t duplicate_terminations = 0;
  /// Replayed Torque records: an E record over an S is authoritative;
  /// any other repeat of a jobid is counted and the stored record wins.
  std::uint64_t duplicate_job_records = 0;
};

class SnapshotWriter;
class SnapshotReader;

/// The run-join rules, in one place (DESIGN.md "One ingest core"): an E
/// job record overrides an S, any other repeat is a counted replay; the
/// first placement and first termination per apid win, a termination
/// with no placement is an orphan; a kill is exit 137 / signal 9; the
/// node type is the nids' majority partition; a run joins its job at
/// placement.  A terminated run goes back to the caller, and its apid
/// stays behind to recognize replays.  Batch feeds every job, then
/// every placement, then every termination; streaming feeds lines as
/// they arrive and ages old state out with Forget().
class RunBuilder {
 public:
  explicit RunBuilder(const Machine& machine);

  /// Sizes the indexes for a known input (batch).
  void Reserve(std::size_t jobs, std::size_t runs);

  void AddJob(const TorqueRecord& record);
  /// Opens a run; the placement's nid list moves into it.
  void AddPlacement(AlpsRecord&& record);
  /// Applies an exit or kill.  Returns the completed run, or nullopt
  /// for an orphan or a replayed termination.
  std::optional<AppRun> AddTermination(const AlpsRecord& record);
  /// Completes every run still waiting for a termination (counted as
  /// missing_termination), in (start, apid) order.
  std::vector<AppRun> TakeUnterminated();

  /// Drops the memory of runs terminated before `terminated_before` and
  /// of jobs whose E record ends before `jobs_ended_before`.
  void Forget(TimePoint terminated_before, TimePoint jobs_ended_before);

  const ReconstructStats& stats() const { return stats_; }
  std::size_t job_count() const { return jobs_.size(); }
  std::size_t open_run_count() const { return open_runs_; }

  /// Serializes jobs (jobid order), runs and terminated remnants (apid
  /// order) and the stats; layout in docs/FORMATS.md.
  void SaveState(SnapshotWriter& w) const;
  void LoadState(SnapshotReader& r);

 private:
  /// Node type of the placed nids (dense table: the vote touches every
  /// placed nid).
  std::vector<NodeType> node_types_;
  std::unordered_map<JobId, TorqueRecord> jobs_;
  /// apid -> open run, or a terminated run's remnant (has_termination
  /// set, nid list moved out) kept for replay detection.
  std::unordered_map<ApId, AppRun> runs_;
  std::size_t open_runs_ = 0;
  ReconstructStats stats_;
};

/// Joins parsed records into runs, ordered by (start, apid): RunBuilder
/// fed every job, then every placement, then every termination, so a
/// termination logged before its placement still matches.  A run whose
/// job record is missing keeps ALPS-only fields (walltime checks then
/// degrade gracefully).  Each placement's nid list moves into its run,
/// so callers done with the records should move them in.
std::vector<AppRun> ReconstructRuns(const Machine& machine,
                                    std::vector<AlpsRecord> alps,
                                    const std::vector<TorqueRecord>& torque,
                                    ReconstructStats* stats = nullptr);

}  // namespace ld
