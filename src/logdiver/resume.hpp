// Crash-tolerant streaming analysis: the recovery half of the
// checkpoint-recovery pattern (snapshot.hpp is the checkpoint half).
//
// RunResumableAnalysis streams an on-disk bundle through a StreamingAnalyzer
// exactly as a live shipper would — four file tails (loaded by LoadBundle,
// rotation families stitched) merged by claimed head time (claims.hpp), each
// line parsed once — writing a snapshot every N lines.  With
// `LogDiverConfig::threads` above one, a pool splits the lines, fingerprints
// the bundle and parses every source's lines two blocks ahead of the merge; the
// claims, the merge, the analyzer and the snapshot points stay on one thread,
// line by line, so the thread count changes no output byte.  On startup it
// loads the newest snapshot that is valid and decodes (a torn, corrupt or
// undecodable generation is rejected and the loader falls back a generation),
// restores the analyzer and each source's claim carry, and resumes reading each
// file at the recorded offset, so every line is applied exactly once.  Because
// the merge order, the watermark schedule and the serialization are all
// deterministic, an interrupted-and-resumed pass produces a *bit-identical*
// MetricsReport to an uninterrupted one — bench/crash_campaign asserts this
// across a kill-point × snapshot-interval sweep.
//
// CrashSupervisor is the process-level restart rule: it runs each
// analysis attempt as the single child of the shared supervised-child
// loop (common/supervise.hpp, which tells a crash — signal, exit code
// >= 128 such as the injected kCrashExitCode, or a blown deadline —
// from an ordinary failure) and restarts crashed attempts at once, up
// to a budget.  Ordinary failures pass through — a tripped ingest
// error budget must not be retried into an infinite loop.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/parallel.hpp"
#include "common/status.hpp"
#include "logdiver/streaming.hpp"

namespace ld {

/// The deterministic advance schedule shared by every replay path
/// (single-process resume and fleet workers).  Watermark advances key
/// off the total merged line count, so two replays of the same bundle
/// with the same schedule make identical Advance() calls — a fleet
/// worker's classification context is bit-identical to the serial
/// analyzer's only when both use the same schedule.
struct ReplaySchedule {
  /// Lines between watermark advances.
  std::uint64_t advance_every = 500;
  /// Reorder slack subtracted from the claimed head time at each
  /// advance.
  Duration reorder_slack = Duration::Minutes(5);
};

struct ResumeOptions {
  /// Snapshot directory; empty disables both snapshots and resume.
  std::string snapshot_dir;
  /// Lines between snapshots; 0 disables snapshotting.
  std::uint64_t snapshot_interval = 20000;
  /// Load the newest valid snapshot on startup; false starts fresh
  /// (existing snapshots are left alone — Clear() is the caller's call).
  bool resume = true;
  /// Snapshot generations retained (min 2: the newest always has a
  /// fallback in case it is torn by the next crash).
  std::size_t keep_generations = 2;
  /// The watermark schedule.  Derived from the *total* line count, so a
  /// resumed pass advances at exactly the same points as an
  /// uninterrupted one.
  ReplaySchedule schedule;
};

struct ResumableSummary {
  AnalysisSummary summary;
  /// Lines applied by the whole logical pass (replayed + fresh).
  std::uint64_t total_lines = 0;
  /// Snapshots written by *this* process.
  std::uint64_t snapshots_written = 0;
  /// Generation restored from; 0 when the pass started fresh.
  std::uint64_t resumed_generation = 0;
  /// Torn/corrupt newer generations skipped while loading.
  std::uint64_t snapshots_rejected = 0;
  /// Lines skipped on resume because the snapshot already covered them.
  std::uint64_t lines_skipped = 0;
};

/// Streams `inputs` through a fresh analyzer (resuming from the newest snapshot
/// that is valid and decodes, when options allow), finalizes, and returns the
/// summary.  The pool `config.threads` asks for (LogDiver::Analyze's rule)
/// lives only inside the call.  Errors on unreadable inputs or an unusable
/// snapshot payload: a layout version or geometry mismatch, or offsets past the
/// bundle.  *Corruption* is handled by falling back; a mismatch means the
/// operator pointed the tool at the wrong directory.
Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options);

/// Streams the whole bundle through `analyzer` with the deterministic
/// merge order and advance schedule of RunResumableAnalysis, but no
/// snapshotting or resume.  The caller owns the analyzer (and calls
/// Finalize()); `config` must be the one the analyzer was built with
/// (it supplies the syslog base year of the claimed times and the
/// thread count of the call's pool).  Returns total merged lines.
Result<std::uint64_t> ReplayBundle(const LogDiverConfig& config,
                                   const StreamInputs& inputs,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer);

/// ReplayBundle's merge order and schedule over lines already in
/// memory — the replay core a fleet worker runs over the views it
/// inherits from the supervisor.  A `pool` of more than one thread
/// parses every source's lines ahead of the merge; null (a fleet
/// worker) parses each head inline.  Either way the analyzer sees the
/// same calls.  Returns total merged lines.
std::uint64_t ReplayLines(const LogSetView& lines, const LogDiverConfig& config,
                          const ReplaySchedule& schedule,
                          StreamingAnalyzer& analyzer,
                          ThreadPool* pool = nullptr);

/// Deterministic fingerprint of (bundle bytes, shard partition):
/// bundle_cache's LinesFingerprint (word-folded FNV-1a-64) over every
/// line LoadBundle yields, mixed with `shard_count`.  This is
/// the id stamped into snapshot/partial headers so a loader can tell
/// "same bundle, same partition" from "stale directory or foreign
/// partial" without parsing a payload.  `shard_count` 0 is the
/// single-process resume flavor (no partition); a fleet with N shards
/// uses N, so partials from a differently-sharded run never merge.
Result<std::uint64_t> BundlePartitionFingerprint(const StreamInputs& inputs,
                                                 std::uint32_t shard_count);

/// Process-level restart loop around a crashing analysis attempt.
class CrashSupervisor {
 public:
  struct Options {
    /// Crashed attempts restarted before giving up.
    int max_restarts = 10;
    /// Wall-clock budget per attempt, in milliseconds; a child still
    /// running past it is SIGKILLed and treated as a crash (counted in
    /// Outcome::hangs_killed and retried like any other).  0 means no
    /// deadline: the supervisor blocks until the child exits, so a hung
    /// child hangs it.
    std::uint64_t timeout_ms = 0;
  };

  struct Outcome {
    /// Exit code of the last attempt (the successful one, the ordinary
    /// failure passed through, or the final crash when exhausted).
    int exit_code = 0;
    int attempts = 0;
    int crashes = 0;
    /// Attempts that blew the wall-clock budget and were SIGKILLed
    /// (each is also counted in `crashes`).
    int hangs_killed = 0;
    /// True when the restart budget ran out on a still-crashing child.
    bool exhausted = false;
  };

  /// Runs `child(attempt)` in a forked process until it exits without
  /// crashing or the restart budget is spent.  `attempt` starts at 0
  /// and increments per run — campaign code uses it to arm a crash
  /// point on the first attempt only.  A crash is a signal death, an
  /// exit code >= 128, or a timeout escalation; anything else passes
  /// through unretried.
  static Outcome Run(const std::function<int(int attempt)>& child,
                     const Options& options);
  static Outcome Run(const std::function<int(int attempt)>& child) {
    return Run(child, Options());
  }
};

}  // namespace ld
