// One tenant of the always-on service: a StreamingAnalyzer shard with
// its own worker thread, bounded ingest queue, write-ahead journal,
// rolling snapshots, and error budget.
//
// The shard is the containment boundary of the whole design (the
// resilience-patterns layering docs/SERVICE.md walks through):
//
//   accept path (connection threads)      apply path (worker thread)
//   ------------------------------        --------------------------
//   shed verdict -> SHED                  pop batch from queue
//   queue-full check -> BUSY              lock analyzer state
//   journal append (durability)           parse + claim + feed per record
//   reply OK <seq>                        Advance on the line schedule
//                                         bump applied progress
//                                         budget window -> shed/degrade
//                                         snapshot on the interval
//
// The error budget is judged on the apply side, over windows of
// applied lines, so a window's line count and malformed count describe
// the same lines however far the worker trails; the accept path only
// reads the verdict.
//
// Acknowledge-after-journal plus replay-from-snapshot-offset is what
// makes recovery exactly-once: an acked line is on disk, an unacked
// line is the client's to resend (it re-syncs from QUERY ingest's
// accepted count).  The watermark schedule is a function of the
// *applied line count* and the *claimed times*; recovery replays the
// journal suffix through the same apply path, claiming with the
// tracker carries the snapshot stored — so a recovered shard's report
// bytes equal an uninterrupted run's (bench/service_campaign asserts
// this per tenant, per cell).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logdiver/claims.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/service/journal.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "topology/machine.hpp"

namespace ld::service {

/// Per-tenant admission policy: the PR 1 error budget, evaluated over
/// consecutive windows of applied lines so a tenant that was dirty an
/// hour ago is judged on what it sends now.
struct TenantBudgetConfig {
  /// What happens to an over-budget tenant:
  ///   kFailFast             -> shed: INGEST answers SHED <cooloff_ms>
  ///                            until the cooloff passes, then the
  ///                            next window probes again;
  ///   kQuarantineAndContinue-> degrade: keep ingesting, surface
  ///                            state=degraded in QUERY health.
  DegradationPolicy policy = DegradationPolicy::kQuarantineAndContinue;
  /// Window length (applied lines) per budget evaluation.
  std::uint64_t window_lines = 512;
  /// The budget within a window (ErrorBudget semantics: malformed must
  /// exceed BOTH the floor and the fraction).
  std::uint64_t min_malformed = 32;
  double max_malformed_fraction = 0.25;
  /// Shed duration; also the retry-after hint SHED replies carry.
  std::uint64_t cooloff_ms = 250;
};

/// Sizing and cadence knobs of one shard (shared by every tenant of a
/// daemon; ServiceOptions carries the daemon-level copies).
struct TenantLimits {
  std::size_t queue_capacity = 1024;
  /// Snapshot after this many applied lines (0 = never by count) ...
  std::uint64_t snapshot_interval_lines = 4096;
  /// ... or once this many journal bytes accumulate past the last
  /// snapshot (0 = never by bytes).  Whichever trips first.
  std::uint64_t snapshot_interval_bytes = 1 << 20;
  /// Watermark cadence: Advance(claimed - reorder_slack) every
  /// `advance_every` applied lines (the resume path's schedule type).
  ReplaySchedule schedule{64, Duration::Minutes(5)};
  /// Snapshot generations retained per tenant.
  std::size_t keep_generations = 2;
  /// How long Stop() waits for the worker to finish its queue before
  /// abandoning it (a wedged worker must not pin shutdown forever).
  std::uint64_t stop_grace_ms = 10000;
  TenantBudgetConfig budget;
};

/// Injected per-shard faults (armed via the FAULT admin command when
/// the daemon enables it; see docs/SERVICE.md "Fault injection").
enum class ShardFault : std::uint8_t {
  kNone = 0,
  kHang,  // worker stops mid-apply (pause loop) -> watchdog recycles
  kSlow,  // worker sleeps a seeded delay per applied line -> must NOT
          // be recycled; backpressure absorbs the slowdown
};

/// Externally visible lifecycle state (QUERY health).
enum class TenantState : std::uint8_t {
  kActive,
  kDegraded,  // over budget under kQuarantineAndContinue
  kShedding,  // over budget under kFailFast, inside the cooloff
  kStalled,   // watchdog saw no apply progress with work unapplied
  kDraining,
};

const char* TenantStateName(TenantState s);

class TenantShard {
 public:
  /// Creates a fresh shard rooted at `dir` (created if needed; holds
  /// the journal and the snapshot store).  `Start()` begins applying.
  TenantShard(std::string tenant_id, std::string dir,
              const Machine& machine, const LogDiverConfig& config,
              const TenantLimits& limits);
  ~TenantShard();

  /// Restores the latest snapshot if one exists, replays the journal
  /// suffix through the apply path, opens the journal (cutting any torn
  /// tail), and starts the worker.  A journal in the older layout is
  /// refused and left untouched.  `recovered_lines` (optional) reports
  /// replayed lines.
  Status Start(std::uint64_t* recovered_lines = nullptr);

  /// The accept path.  Returns the protocol reply line (OK with the
  /// accepted sequence number, BUSY on a full queue, SHED over budget,
  /// ERR if the journal is broken).
  std::string Ingest(LogSource source, std::string_view line);

  /// Query handlers; each returns a full protocol reply line.
  std::string QueryReport();
  std::string QueryIngest();
  std::string QueryHealth();

  /// Blocks until every accepted line has been applied, then snapshots.
  Status Drain();

  /// Takes a snapshot now (SNAPSHOT command); blocks on the state lock.
  Status SnapshotNow();

  /// Arms/disarms an injected fault on the apply path.
  void ArmFault(ShardFault fault, std::uint64_t after, std::uint64_t mean_ms,
                std::uint64_t seed);

  /// Stops the worker after the queue empties.  Safe to call twice.
  void Stop();

  /// Abandons a hung worker: marks the shard dead so the accept path
  /// refuses new work, detaches the worker thread, and leaves `this`
  /// to the caller's graveyard (the thread still references it).  The
  /// journal fd is closed so the replacement shard owns the file.
  void Abandon();

  // --- watchdog / observability surface ------------------------------
  const std::string& tenant_id() const { return tenant_id_; }
  const std::string& dir() const { return dir_; }
  /// Lines applied to the analyzer — the watchdog's progress counter.
  std::uint64_t applied() const {
    return applied_.load(std::memory_order_relaxed);
  }
  /// Lines accepted (journaled + acked).
  std::uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  std::size_t queue_depth() const;
  TenantState state() const;
  std::uint64_t snapshots_written() const {
    return snapshots_written_.load(std::memory_order_relaxed);
  }

  /// Stable per-tenant snapshot fingerprint (FNV-1a-64 of the id);
  /// rejects another tenant's snapshot landing in this directory.
  static std::uint64_t TenantFingerprint(std::string_view tenant_id);

 private:
  void WorkerLoop();
  /// Parses, claims and applies one journaled record (state lock held
  /// by caller).
  void ApplyLocked(const JournalRecord& record);
  /// Serializes shard state (state lock held by caller).
  std::vector<std::uint8_t> BuildSnapshotLocked();
  Status WriteSnapshotLocked();
  /// The accept path's reading of the budget verdict (ingest_mu_
  /// held).  Returns a non-empty SHED reply when the line must be
  /// refused; clears the verdict once the cooloff has passed.
  std::string ShedReplyLocked();
  /// Closes the budget window once it holds window_lines applied lines
  /// and publishes its verdict (state lock held, worker thread).
  void JudgeWindowLocked();

  const std::string tenant_id_;
  const std::string dir_;
  const Machine& machine_;
  const LogDiverConfig config_;
  const TenantLimits limits_;

  // Accept-path state: journal, and the shed verdict's cooloff (set
  // by the worker, read and cleared by the accept path).
  std::mutex ingest_mu_;
  TenantJournal journal_;
  std::chrono::steady_clock::time_point shed_until_{};
  bool journal_broken_ = false;

  // Queue between accept and apply.
  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<JournalRecord> queue_;
  bool stopping_ = false;

  // Analyzer state; timed so queries can detect a stalled shard
  // instead of blocking behind a hung worker forever.
  std::timed_mutex state_mu_;
  std::unique_ptr<StreamingAnalyzer> analyzer_;
  /// Claim carries at the applied position.
  ClaimedTracker tracker_;
  SnapshotStore store_;
  std::uint64_t last_snapshot_applied_ = 0;
  std::uint64_t last_snapshot_offset_ = 0;
  std::uint64_t applied_offset_ = 0;  // journal offset of last applied
  /// The open budget window: applied count and quarantine total at
  /// its start.
  std::uint64_t window_started_applied_ = 0;
  std::uint64_t window_started_malformed_ = 0;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> snapshots_written_{0};
  std::atomic<bool> degraded_{false};
  std::atomic<bool> shedding_{false};
  std::atomic<bool> abandoned_{false};
  /// Set by the worker thread as its very last act; lets Stop() bound
  /// its join instead of blocking forever on a wedged worker.
  std::atomic<bool> worker_done_{false};
  std::atomic<bool> draining_{false};

  // Injected fault plan (relaxed atomics: the worker polls them).
  std::atomic<std::uint8_t> fault_{0};
  std::atomic<std::uint64_t> fault_after_{0};
  std::atomic<std::uint64_t> fault_mean_ms_{5};
  std::atomic<std::uint64_t> fault_seed_{1};

  std::thread worker_;
};

}  // namespace ld::service
