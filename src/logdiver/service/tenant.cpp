#include "logdiver/service/tenant.hpp"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "logdiver/service/protocol.hpp"

namespace ld::service {
namespace {

namespace fs = std::filesystem;

constexpr std::uint32_t kTenantSnapshotVersion = 1;
/// Worker batch size: items applied per state-lock acquisition, so
/// queries interleave with a busy apply loop instead of starving.
constexpr std::size_t kApplyBatch = 256;
/// Retry-after hint on a BUSY reply (full queue or draining tenant).
constexpr std::uint64_t kBusyRetryMs = 20;
/// How long a query waits for the state lock before declaring the
/// shard stalled.
constexpr std::chrono::milliseconds kQueryLockTimeout{500};

/// Takes `mu` within `timeout` (the lock does not own it on a timeout).
/// The deadline is on the system clock, so the wait is
/// pthread_mutex_timedlock, which ThreadSanitizer intercepts; a
/// steady-clock deadline becomes pthread_mutex_clocklock, which the GCC
/// 12 TSan runtime does not see, and every access under the lock then
/// reports as a race.
std::unique_lock<std::timed_mutex> LockWithin(
    std::timed_mutex& mu, std::chrono::milliseconds timeout) {
  return std::unique_lock<std::timed_mutex>(
      mu, std::chrono::system_clock::now() + timeout);
}

std::string HexFingerprint(std::uint32_t fp) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", fp);
  return buf;
}

}  // namespace

const char* TenantStateName(TenantState s) {
  switch (s) {
    case TenantState::kActive: return "active";
    case TenantState::kDegraded: return "degraded";
    case TenantState::kShedding: return "shedding";
    case TenantState::kStalled: return "stalled";
    case TenantState::kDraining: return "draining";
  }
  return "invalid";
}

std::uint64_t TenantShard::TenantFingerprint(std::string_view tenant_id) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::string_view text) {
    for (const char c : text) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  };
  mix("tenant:");
  mix(tenant_id);
  return h == 0 ? 1 : h;  // 0 means "unspecified" in snapshot headers
}

TenantShard::TenantShard(std::string tenant_id, std::string dir,
                         const Machine& machine,
                         const LogDiverConfig& config,
                         const TenantLimits& limits)
    : tenant_id_(std::move(tenant_id)),
      dir_(std::move(dir)),
      machine_(machine),
      config_(config),
      limits_(limits),
      tracker_(config.syslog_base_year),
      store_(dir_ + "/snapshots", limits.keep_generations) {}

TenantShard::~TenantShard() {
  if (!abandoned_.load()) {
    Stop();
    return;
  }
  // A recycled shard's detached worker exits once it sees abandoned_
  // (unless truly wedged); its last writes must precede the free.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(limits_.stop_grace_ms);
  while (!worker_done_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    ::usleep(1000);
  }
}

Status TenantShard::Start(std::uint64_t* recovered_lines) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) {
    return InternalError("tenant " + tenant_id_ + ": cannot create " + dir_ +
                         ": " + ec.message());
  }
  analyzer_ = std::make_unique<StreamingAnalyzer>(machine_, config_);

  const std::uint64_t fingerprint = TenantFingerprint(tenant_id_);
  std::uint64_t replay_from = 0;
  auto loaded = store_.LoadLatest(fingerprint);
  if (loaded.ok()) {
    SnapshotReader r(loaded->payload);
    const std::uint32_t version = r.U32();
    if (!r.ok()) return r.status();
    if (version != kTenantSnapshotVersion) {
      return FailedPreconditionError(
          "tenant " + tenant_id_ + ": snapshot version " +
          std::to_string(version) + ", this build speaks " +
          std::to_string(kTenantSnapshotVersion));
    }
    const std::string snap_tenant = r.Str();
    if (snap_tenant != tenant_id_) {
      return FailedPreconditionError("tenant " + tenant_id_ +
                                     ": snapshot belongs to tenant '" +
                                     snap_tenant + "'");
    }
    const std::uint64_t applied = r.U64();
    replay_from = r.U64();
    tracker_.Restore(r);
    LD_TRY(analyzer_->Restore(r));
    applied_.store(applied);
    applied_offset_ = replay_from;
    last_snapshot_applied_ = applied;
    last_snapshot_offset_ = replay_from;
  } else if (loaded.status().code() != StatusCode::kNotFound) {
    return loaded.status();
  }

  // Replay acknowledged lines past the snapshot through the same apply
  // path the worker uses, then cut any torn (never-acknowledged) tail
  // before reopening for append.
  const std::string journal_path = dir_ + "/journal.ldj";
  std::uint64_t replayed = 0;
  LD_ASSIGN_OR_RETURN(
      const std::uint64_t valid_end,
      TenantJournal::Replay(journal_path, replay_from,
                            [&](const JournalRecord& rec) {
                              ApplyLocked(rec);
                              ++replayed;
                            }));
  LD_TRY(TenantJournal::TruncateTo(journal_path, valid_end));
  LD_TRY(journal_.Open(journal_path));
  const std::uint64_t head = TenantJournal::kVersionRecord.size();
  if (journal_.size() != std::max(valid_end, head)) {
    return InternalError("tenant " + tenant_id_ +
                         ": journal size changed during recovery");
  }
  accepted_.store(applied_.load());
  window_started_applied_ = applied_.load();
  window_started_malformed_ = analyzer_->quarantine().total();
  if (recovered_lines != nullptr) *recovered_lines = replayed;

  worker_ = std::thread([this] {
    WorkerLoop();
    worker_done_.store(true, std::memory_order_release);
  });
  return Status::Ok();
}

std::string TenantShard::ShedReplyLocked() {
  if (!shedding_.load(std::memory_order_relaxed)) return std::string();
  const auto now = std::chrono::steady_clock::now();
  if (now < shed_until_) {
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(shed_until_ - now)
            .count();
    return ShedReply(static_cast<std::uint64_t>(left > 0 ? left : 1),
                     "tenant over error budget");
  }
  // Cooloff over: accept again; the worker's next window judges anew.
  shedding_.store(false, std::memory_order_relaxed);
  return std::string();
}

void TenantShard::JudgeWindowLocked() {
  const TenantBudgetConfig& budget = limits_.budget;
  const std::uint64_t applied = applied_.load(std::memory_order_relaxed);
  const std::uint64_t lines = applied - window_started_applied_;
  if (budget.window_lines == 0 || lines < budget.window_lines) return;
  // Both counts describe the same applied lines: the window's verdict
  // cannot depend on how far the worker trails the accept path.
  const std::uint64_t quarantined = analyzer_->quarantine().total();
  const std::uint64_t malformed = quarantined - window_started_malformed_;
  window_started_applied_ = applied;
  window_started_malformed_ = quarantined;
  const bool exceeded =
      malformed > budget.min_malformed &&
      static_cast<double>(malformed) >
          budget.max_malformed_fraction * static_cast<double>(lines);
  if (!exceeded) {
    degraded_.store(false, std::memory_order_relaxed);
    return;
  }
  if (budget.policy == DegradationPolicy::kQuarantineAndContinue) {
    degraded_.store(true, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(ingest_mu_);
  shedding_.store(true, std::memory_order_relaxed);
  shed_until_ =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(budget.cooloff_ms);
}

std::string TenantShard::Ingest(LogSource source, std::string_view line) {
  if (abandoned_.load(std::memory_order_relaxed)) {
    return ErrReply("tenant " + tenant_id_ + " is being recycled");
  }
  if (draining_.load(std::memory_order_relaxed)) {
    return BusyReply(kBusyRetryMs, "tenant draining");
  }
  std::lock_guard<std::mutex> lock(ingest_mu_);
  if (journal_broken_) {
    return ErrReply("tenant " + tenant_id_ + ": journal unavailable");
  }
  const std::string shed = ShedReplyLocked();
  if (!shed.empty()) {
    LD_OBS_COUNTER_ADD(obs::names::kSvcIngestShedTotal, 1);
    return shed;
  }
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    if (queue_.size() >= limits_.queue_capacity) {
      LD_OBS_COUNTER_ADD(obs::names::kSvcIngestBackpressuredTotal, 1);
      return BusyReply(kBusyRetryMs, "ingest queue full");
    }
  }
  auto offset = journal_.Append(source, line);
  if (!offset.ok()) {
    journal_broken_ = true;
    return ErrReply("tenant " + tenant_id_ +
                    ": journal append failed: " + offset.status().message());
  }
  const std::uint64_t seq =
      accepted_.fetch_add(1, std::memory_order_relaxed) + 1;
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    queue_.push_back(JournalRecord{source, std::string(line), *offset});
  }
  queue_cv_.notify_one();
  LD_OBS_COUNTER_ADD(obs::names::kSvcIngestAcceptedTotal, 1);
  return OkReply(std::to_string(seq));
}

void TenantShard::ApplyLocked(const JournalRecord& record) {
  ClaimedLine claimed = tracker_.ParseAndClaim(record.source, record.line);
  const TimePoint time = claimed.claimed;
  analyzer_->Add(std::move(claimed));
  const std::uint64_t n = applied_.fetch_add(1, std::memory_order_relaxed) + 1;
  applied_offset_ = record.end_offset;
  const ReplaySchedule& schedule = limits_.schedule;
  if (schedule.advance_every != 0 && n % schedule.advance_every == 0) {
    analyzer_->Advance(time - schedule.reorder_slack);
  }
}

std::vector<std::uint8_t> TenantShard::BuildSnapshotLocked() {
  SnapshotWriter w;
  w.U32(kTenantSnapshotVersion);
  w.Str(tenant_id_);
  w.U64(applied_.load(std::memory_order_relaxed));
  w.U64(applied_offset_);
  tracker_.Snapshot(w);
  analyzer_->Snapshot(w);
  return w.TakeBytes();
}

Status TenantShard::WriteSnapshotLocked() {
  // The snapshot's resume offset must never outrun the disk: sync the
  // journal first, so a crash right after the snapshot rename cannot
  // strand the offset past the journal's durable bytes.
  LD_TRY(journal_.Sync());
  LD_TRY(store_.Write(BuildSnapshotLocked(), TenantFingerprint(tenant_id_)));
  last_snapshot_applied_ = applied_.load(std::memory_order_relaxed);
  last_snapshot_offset_ = applied_offset_;
  snapshots_written_.fetch_add(1, std::memory_order_relaxed);
  LD_OBS_COUNTER_ADD(obs::names::kSvcSnapshotsTotal, 1);
  CrashPoint("svc-snapshot");
  return Status::Ok();
}

void TenantShard::WorkerLoop() {
  std::vector<JournalRecord> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> qlock(queue_mu_);
      queue_cv_.wait(qlock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty() && stopping_) return;
      while (!queue_.empty() && batch.size() < kApplyBatch) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      LD_OBS_GAUGE_SET(obs::names::kSvcQueueDepth,
                       static_cast<std::int64_t>(queue_.size()));
    }

    std::unique_lock<std::timed_mutex> state(state_mu_);
    for (const JournalRecord& record : batch) {
      const std::uint64_t n = applied_.load(std::memory_order_relaxed) + 1;
      const auto fault = static_cast<ShardFault>(
          fault_.load(std::memory_order_relaxed));
      if (fault != ShardFault::kNone &&
          n >= fault_after_.load(std::memory_order_relaxed)) {
        if (fault == ShardFault::kHang) {
          // Stall exactly like a wedged shard: the state lock stays
          // held, queries time out with "stalled", the queue backs up,
          // and only the watchdog's recycle recovers the tenant.
          std::fprintf(stderr, "[svc] tenant %s: injected hang at line %" PRIu64
                               "\n", tenant_id_.c_str(), n);
          while (!abandoned_.load(std::memory_order_relaxed)) ::usleep(1000);
          return;  // recycled; the replacement shard owns the tenant now
        }
        const std::uint64_t index =
            n - fault_after_.load(std::memory_order_relaxed) + 1;
        ::usleep(static_cast<useconds_t>(
            DelayForBoundary(index,
                             fault_mean_ms_.load(std::memory_order_relaxed),
                             fault_seed_.load(std::memory_order_relaxed)) *
            1000));
      }
      ApplyLocked(record);
      JudgeWindowLocked();
      // Daemon-wide fault boundary (LD_CRASH_AFTER / FAULT crash).
      CrashPoint("svc-apply");
    }

    const std::uint64_t applied = applied_.load(std::memory_order_relaxed);
    const bool snapshot_due =
        (limits_.snapshot_interval_lines != 0 &&
         applied - last_snapshot_applied_ >= limits_.snapshot_interval_lines) ||
        (limits_.snapshot_interval_bytes != 0 &&
         applied_offset_ - last_snapshot_offset_ >=
             limits_.snapshot_interval_bytes);
    if (snapshot_due) {
      const Status written = WriteSnapshotLocked();
      if (!written.ok()) {
        std::fprintf(stderr, "[svc] tenant %s: snapshot failed: %s\n",
                     tenant_id_.c_str(), written.ToString().c_str());
      }
    }
  }
}

std::string TenantShard::QueryReport() {
  const auto state = LockWithin(state_mu_, kQueryLockTimeout);
  if (!state.owns_lock()) {
    return ErrReply("tenant " + tenant_id_ + " stalled (apply lock busy)");
  }
  const MetricsReport report = analyzer_->metrics_accumulator().Report();
  const std::uint32_t fp = FingerprintReport(report);
  return OkReply("fp=" + HexFingerprint(fp) +
                 " runs=" + std::to_string(analyzer_->runs_finalized()) +
                 " applied=" + std::to_string(applied()) +
                 " accepted=" + std::to_string(accepted()));
}

std::string TenantShard::QueryIngest() {
  const auto state = LockWithin(state_mu_, kQueryLockTimeout);
  if (!state.owns_lock()) {
    return ErrReply("tenant " + tenant_id_ + " stalled (apply lock busy)");
  }
  const std::uint32_t fp = FingerprintIngest(analyzer_->ingest_stats());
  return OkReply("accepted=" + std::to_string(accepted()) +
                 " applied=" + std::to_string(applied()) +
                 " quarantined=" + std::to_string(
                     analyzer_->quarantine().total()) +
                 " fp=" + HexFingerprint(fp));
}

std::string TenantShard::QueryHealth() {
  return OkReply(std::string("state=") + TenantStateName(state()) +
                 " queue=" + std::to_string(queue_depth()) +
                 " accepted=" + std::to_string(accepted()) +
                 " applied=" + std::to_string(applied()) +
                 " snapshots=" + std::to_string(snapshots_written()));
}

std::size_t TenantShard::queue_depth() const {
  std::lock_guard<std::mutex> qlock(queue_mu_);
  return queue_.size();
}

TenantState TenantShard::state() const {
  if (abandoned_.load(std::memory_order_relaxed)) {
    return TenantState::kStalled;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    return TenantState::kDraining;
  }
  if (shedding_.load(std::memory_order_relaxed)) {
    return TenantState::kShedding;
  }
  if (degraded_.load(std::memory_order_relaxed)) {
    return TenantState::kDegraded;
  }
  return TenantState::kActive;
}

Status TenantShard::Drain() {
  draining_.store(true, std::memory_order_relaxed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (applied_.load(std::memory_order_relaxed) <
         accepted_.load(std::memory_order_relaxed)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      draining_.store(false, std::memory_order_relaxed);
      return InternalError("tenant " + tenant_id_ +
                           ": drain timed out (shard stalled?)");
    }
    ::usleep(1000);
  }
  const Status snap = SnapshotNow();
  draining_.store(false, std::memory_order_relaxed);
  return snap;
}

Status TenantShard::SnapshotNow() {
  const auto state = LockWithin(state_mu_, std::chrono::seconds(5));
  if (!state.owns_lock()) {
    return InternalError("tenant " + tenant_id_ +
                         ": snapshot timed out (shard stalled?)");
  }
  return WriteSnapshotLocked();
}

void TenantShard::ArmFault(ShardFault fault, std::uint64_t after,
                           std::uint64_t mean_ms, std::uint64_t seed) {
  fault_after_.store(applied_.load(std::memory_order_relaxed) + after,
                     std::memory_order_relaxed);
  fault_mean_ms_.store(mean_ms == 0 ? 1 : mean_ms, std::memory_order_relaxed);
  fault_seed_.store(seed, std::memory_order_relaxed);
  fault_.store(static_cast<std::uint8_t>(fault), std::memory_order_relaxed);
}

void TenantShard::Stop() {
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (!worker_.joinable()) return;
  // A wedged worker must not pin shutdown forever.  Give it a generous
  // grace period to finish the queued work, then abandon it the way the
  // watchdog would (which also releases an injected hang) and, if it
  // still will not exit, leave the thread to process teardown — the
  // graveyard philosophy applied to shutdown.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(limits_.stop_grace_ms);
  while (!worker_done_.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    ::usleep(1000);
  }
  if (!worker_done_.load(std::memory_order_acquire)) {
    abandoned_.store(true, std::memory_order_relaxed);
    const auto grace =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(std::max<std::uint64_t>(
            limits_.stop_grace_ms / 5, 100));
    while (!worker_done_.load(std::memory_order_acquire) &&
           std::chrono::steady_clock::now() < grace) {
      ::usleep(1000);
    }
  }
  if (worker_done_.load(std::memory_order_acquire)) {
    worker_.join();
  } else {
    std::fprintf(stderr, "[svc] tenant %s: worker wedged at shutdown\n",
                 tenant_id_.c_str());
    worker_.detach();
  }
}

void TenantShard::Abandon() {
  abandoned_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> qlock(queue_mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  {
    // Waits out any in-flight Append, then closes the fd so the
    // replacement shard is the journal's only appender.
    std::lock_guard<std::mutex> lock(ingest_mu_);
    journal_broken_ = true;
    journal_.Close();
  }
  if (worker_.joinable()) worker_.detach();
}

}  // namespace ld::service
