// Fault-tolerant multi-process scale-out: the ShardSupervisor fans a
// bundle analysis across N worker processes and merges their partial
// aggregates back into one MetricsReport.
//
// Partitioning is SPMD ownership, not input splitting: the supervisor
// maps the bundle once (to fingerprint it) and every forked worker
// replays the *whole* inherited line set with the deterministic
// schedule of the serial analyzer (resume.hpp ReplayLines), so parsing,
// coalescing and classification context are bit-identical everywhere;
// each worker only folds its owned runs (`apid % shard_count`) and
// tuples (`id % shard_count`) into its MetricsAccumulator (ShardSpec,
// logdiver.hpp).  Disjoint ownership makes the partials merge-exact:
// the supervisor's merged report is bit-identical to the serial
// analyzer's — bench/fleet_campaign asserts this across a worker-fault
// sweep.
//
// The loop is hardened end-to-end, following the detection /
// containment / recovery layering of the resilience design patterns
// literature.  Detection and containment are the shared supervised-
// child loop's (common/supervise.hpp, which the crash-restart driver
// uses too); the fleet is a judge over it:
//   * detection — exit decoding (crash vs. ordinary failure) and
//     per-attempt wall-clock deadlines in the loop, then CRC +
//     fingerprint + shard-id validation of every partial before it may
//     merge;
//   * containment — workers are separate processes; a fault costs one
//     shard attempt, never the fleet, and no worker outlives Run;
//   * recovery — bounded immediate retries, SIGKILL escalation for
//     hangs, and a per-fleet failure budget deciding between fail-fast
//     and degrade-and-annotate (the report ships with a coverage row
//     naming dropped shards, mirroring the quarantine philosophy).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "logdiver/fleet/partial.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/resume.hpp"

namespace ld::fleet {

/// Test-only worker fault injection, armed inside the forked worker via
/// the crashpoint machinery (common/crashpoint.hpp).
enum class WorkerFault : std::uint8_t {
  kNone = 0,
  kCrash,             // std::_Exit at the Nth ingest boundary
  kHang,              // pause() loop at the Nth ingest boundary
  kTruncatedPartial,  // corrupt the partial after writing, exit 0
};

struct FaultPlan {
  WorkerFault fault = WorkerFault::kNone;
  /// Which CrashPoint() boundary fires (crash/hang faults).
  std::uint64_t after_lines = 1;
  /// Arm on every attempt instead of only the first — makes the shard
  /// unrecoverable, for exercising the failure budget.
  bool persistent = false;
};

struct FleetOptions {
  /// Ownership partitions, one concurrent worker process each.  1 is
  /// legal (a fleet of one, still fault-supervised).
  std::uint32_t shard_count = 4;
  /// Wall-clock budget per shard attempt before SIGKILL escalation;
  /// 0 means none.
  std::uint64_t shard_timeout_ms = 120000;
  /// Total attempts per shard (first try + immediate retries).
  int max_attempts = 3;
  /// Shards allowed to drop (exhaust retries) before the fleet fails.
  /// Only consulted under kQuarantineAndContinue; kFailFast aborts on
  /// the first dropped shard regardless.
  std::uint32_t failure_budget = 0;
  /// kFailFast: any dropped shard fails the fleet.
  /// kQuarantineAndContinue: up to failure_budget dropped shards
  /// degrade the report (coverage-annotated) instead of failing.
  DegradationPolicy policy = DegradationPolicy::kFailFast;
  /// Directory for partial-snapshot files (created if needed).
  std::string partial_dir;
  /// Test-only fault injection, keyed by shard index.
  std::map<std::uint32_t, FaultPlan> faults;
};

/// What happened to one shard across all its attempts.
struct ShardOutcome {
  std::uint32_t shard_index = 0;
  int attempts = 0;
  int crashes = 0;
  int hangs_killed = 0;
  int partials_rejected = 0;
  bool completed = false;
  bool dropped = false;
};

/// The coverage row a degraded report ships with.
struct FleetCoverage {
  std::uint32_t shard_count = 0;
  std::uint32_t shards_merged = 0;
  std::vector<std::uint32_t> dropped_shards;  // ascending
  bool degraded() const { return !dropped_shards.empty(); }
  /// "fleet coverage: 7/8 shards merged (dropped: 3)" — the row the
  /// CLI prints above a degraded report.
  std::string Row() const;
};

struct FleetSummary {
  /// `metrics` is the merged report: bit-identical to the serial
  /// analyzer's when coverage is full, a monotone subset of it when
  /// degraded.  The counters are bundle-wide, from the lowest-index
  /// surviving shard (identical on every survivor by construction).
  AnalysisSummary summary;
  std::uint64_t bundle_fingerprint = 0;
  FleetCoverage coverage;
  std::vector<ShardOutcome> shards;  // one per shard, index order
};

/// Runs the fleet: spawn, supervise, validate, merge (ascending shard
/// index — the documented canonical order).  Errors when zero shards
/// survive, when a worker fails *ordinarily* (non-crash exit: its
/// error, e.g. a tripped ingest budget, must pass through unretried),
/// under kFailFast when any shard drops, and with kOutOfRange when
/// dropped shards exceed the failure budget — the CLI maps that code
/// to its fleet-budget exit code.
class ShardSupervisor {
 public:
  ShardSupervisor(const Machine& machine, LogDiverConfig config)
      : machine_(machine), config_(std::move(config)) {}

  Result<FleetSummary> Run(const StreamInputs& inputs,
                           const FleetOptions& options) const;

 private:
  const Machine& machine_;
  LogDiverConfig config_;
};

}  // namespace ld::fleet
