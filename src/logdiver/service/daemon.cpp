#include "logdiver/service/daemon.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/sockio.hpp"
#include "logdiver/service/protocol.hpp"

namespace ld::service {
namespace {

namespace fs = std::filesystem;

/// Retry hint (ms) when the admission cap refuses a new tenant.
constexpr std::uint64_t kAdmissionRetryMs = 100;

}  // namespace

LogDiverDaemon::LogDiverDaemon(const Machine& machine, ServiceOptions options)
    : machine_(machine), options_(std::move(options)) {}

LogDiverDaemon::~LogDiverDaemon() { Stop(); }

Status LogDiverDaemon::RecoverExistingTenants() {
  std::error_code ec;
  fs::create_directories(options_.data_dir, ec);
  if (ec) {
    return InternalError("daemon: cannot create " + options_.data_dir + ": " +
                         ec.message());
  }
  // Sorted adoption order: deterministic recovery logs and tests.
  std::vector<std::string> ids;
  for (const auto& entry : fs::directory_iterator(options_.data_dir, ec)) {
    if (!entry.is_directory()) continue;
    const std::string id = entry.path().filename().string();
    if (ValidTenantId(id)) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const std::string& id : ids) {
    // One tenant that cannot start (an old-layout journal, a foreign
    // snapshot) stays dark; the others must not.  Its next INGEST tries
    // again and answers ERR naming the reason.
    std::uint64_t replayed = 0;
    auto shard = StartShard(id, &replayed);
    if (!shard.ok()) {
      std::fprintf(stderr, "[svc] skipping tenant %s: %s\n", id.c_str(),
                   shard.status().ToString().c_str());
      continue;
    }
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants_.emplace(id, std::move(*shard));
    ++tenants_recovered_;
    LD_OBS_COUNTER_ADD(obs::names::kSvcTenantsRecoveredTotal, 1);
    std::fprintf(stderr, "[svc] re-adopted tenant %s (%llu journal lines)\n",
                 id.c_str(), static_cast<unsigned long long>(replayed));
  }
  return Status::Ok();
}

Result<std::shared_ptr<TenantShard>> LogDiverDaemon::StartShard(
    const std::string& id, std::uint64_t* replayed) const {
  auto shard = std::make_shared<TenantShard>(
      id, options_.data_dir + "/" + id, machine_, options_.analyzer,
      options_.tenant);
  LD_TRY(shard->Start(replayed));
  return shard;
}

Status LogDiverDaemon::Start() {
  if (started_) return FailedPreconditionError("daemon: already started");
  if (options_.data_dir.empty()) {
    return InvalidArgumentError("daemon: data_dir is required");
  }
  LD_TRY(RecoverExistingTenants());
  LD_ASSIGN_OR_RETURN(listen_fd_, ListenOn(options_.listen));
  LD_ASSIGN_OR_RETURN(address_, ListeningAddress(listen_fd_));
  stopping_.store(false);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  if (options_.watchdog_period_ms != 0) {
    watchdog_thread_ = std::thread([this] { WatchdogLoop(); });
  }
  started_ = true;
  return Status::Ok();
}

void LogDiverDaemon::Stop() {
  if (!started_) return;
  stopping_.store(true);
  // Shutting the listener down unblocks the accept thread; the fd is
  // closed only after that thread, which reads it, has exited.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (watchdog_thread_.joinable()) watchdog_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (std::thread& t : connections_) {
      if (t.joinable()) t.join();
    }
    connections_.clear();
  }
  std::map<std::string, std::shared_ptr<TenantShard>> tenants;
  {
    std::lock_guard<std::mutex> lock(tenants_mu_);
    tenants = tenants_;
  }
  for (auto& [id, shard] : tenants) {
    const Status drained = shard->Drain();
    if (!drained.ok()) {
      std::fprintf(stderr, "[svc] stop: %s\n", drained.ToString().c_str());
    }
    shard->Stop();
  }
  started_ = false;
}

std::shared_ptr<TenantShard> LogDiverDaemon::FindTenant(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? nullptr : it->second;
}

std::size_t LogDiverDaemon::tenant_count() const {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  return tenants_.size();
}

std::shared_ptr<TenantShard> LogDiverDaemon::FindOrAdmit(
    const std::string& tenant, std::string& refusal) {
  std::lock_guard<std::mutex> lock(tenants_mu_);
  const auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second;
  if (tenants_.size() >= options_.max_tenants) {
    refusal = BusyReply(kAdmissionRetryMs,
                        "daemon at max-tenants (" +
                            std::to_string(options_.max_tenants) + ")");
    return nullptr;
  }
  auto shard = StartShard(tenant, nullptr);
  if (!shard.ok()) {
    refusal = ErrReply("cannot admit tenant " + tenant + ": " +
                       shard.status().message());
    return nullptr;
  }
  tenants_.emplace(tenant, *shard);
  LD_OBS_COUNTER_ADD(obs::names::kSvcTenantsAdmittedTotal, 1);
  return *shard;
}

std::string LogDiverDaemon::HandleCommand(const std::string& line) {
  auto request = ParseRequest(line);
  if (!request.ok()) return ErrReply(request.status().message());
  const Request& req = *request;

  switch (req.kind) {
    case RequestKind::kPing:
      return OkReply("logdiverd tenants=" + std::to_string(tenant_count()) +
                     " recycles=" + std::to_string(watchdog_recycles()));

    case RequestKind::kIngest: {
      std::string refusal;
      const std::shared_ptr<TenantShard> shard =
          FindOrAdmit(req.tenant, refusal);
      if (shard == nullptr) return refusal;
      return shard->Ingest(req.source, req.line);
    }

    case RequestKind::kQuery: {
      const std::uint64_t start_ns = obs::NowNanos();
      const std::shared_ptr<TenantShard> shard = FindTenant(req.tenant);
      if (shard == nullptr) {
        return ErrReply("unknown tenant '" + req.tenant + "'");
      }
      std::string reply;
      switch (req.query) {
        case QueryKind::kReport: reply = shard->QueryReport(); break;
        case QueryKind::kIngest: reply = shard->QueryIngest(); break;
        case QueryKind::kHealth: reply = shard->QueryHealth(); break;
      }
      LD_OBS_COUNTER_ADD(obs::names::kSvcQueriesTotal, 1);
      LD_OBS_HIST_RECORD(obs::names::kSvcQueryMicros,
                         (obs::NowNanos() - start_ns) / 1000);
      return reply;
    }

    case RequestKind::kSnapshot: {
      std::map<std::string, std::shared_ptr<TenantShard>> tenants;
      {
        std::lock_guard<std::mutex> lock(tenants_mu_);
        tenants = tenants_;
      }
      std::size_t written = 0;
      for (auto& [id, shard] : tenants) {
        const Status snap = shard->SnapshotNow();
        if (snap.ok()) {
          ++written;
        } else {
          std::fprintf(stderr, "[svc] SNAPSHOT: %s\n",
                       snap.ToString().c_str());
        }
      }
      return OkReply("snapshotted " + std::to_string(written) + "/" +
                     std::to_string(tenants.size()));
    }

    case RequestKind::kDrain: {
      std::map<std::string, std::shared_ptr<TenantShard>> tenants;
      {
        std::lock_guard<std::mutex> lock(tenants_mu_);
        tenants = tenants_;
      }
      for (auto& [id, shard] : tenants) {
        const Status drained = shard->Drain();
        if (!drained.ok()) return ErrReply(drained.message());
      }
      return OkReply("drained " + std::to_string(tenants.size()) +
                     " tenants");
    }

    case RequestKind::kFault: {
      if (!options_.enable_fault_commands) {
        return ErrReply("fault injection disabled "
                        "(--enable-fault-injection)");
      }
      if (req.fault == FaultKind::kCrash) {
        // Daemon-wide: the countdown ticks at every shard's apply
        // boundary; whichever tenant's worker hits it kills the whole
        // process, std::_Exit style.
        ArmCrashPoint(req.fault_after);
        return OkReply("armed crash after " +
                       std::to_string(req.fault_after) + " applies");
      }
      // Admit-if-absent: campaigns arm the fault *before* the first
      // INGEST, or the fault could miss the lines it is meant to hit.
      std::string refusal;
      const std::shared_ptr<TenantShard> shard =
          FindOrAdmit(req.tenant, refusal);
      if (shard == nullptr) return refusal;
      switch (req.fault) {
        case FaultKind::kNone:
          shard->ArmFault(ShardFault::kNone, 0, 0, 0);
          return OkReply("fault cleared");
        case FaultKind::kHang:
          shard->ArmFault(ShardFault::kHang, req.fault_after, 0, 0);
          return OkReply("armed hang");
        case FaultKind::kSlow:
          shard->ArmFault(ShardFault::kSlow, req.fault_after,
                          req.fault_mean_ms, req.fault_seed);
          return OkReply("armed slow");
        case FaultKind::kCrash: break;  // handled above
      }
      return ErrReply("unreachable fault kind");
    }
  }
  return ErrReply("unreachable request kind");
}

void LogDiverDaemon::ServeConnection(int fd) {
  // Reads time out periodically so an idle connection notices daemon
  // shutdown instead of pinning Stop() in a join forever.
  (void)SetRecvTimeoutMs(fd, 250);
  LineChannel channel(fd);
  while (!stopping_.load()) {
    auto line = channel.ReadLine();
    if (!line.ok()) {
      if (channel.timed_out()) continue;
      return;  // real socket error
    }
    if (!line->has_value()) return;  // clean EOF
    const Status sent = channel.WriteLine(HandleCommand(**line));
    if (!sent.ok()) return;
  }
}

void LogDiverDaemon::AcceptLoop() {
  while (!stopping_.load()) {
    auto fd = AcceptOn(listen_fd_);
    if (!fd.ok()) {
      if (stopping_.load()) return;
      std::fprintf(stderr, "[svc] accept: %s\n",
                   fd.status().ToString().c_str());
      return;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    connections_.emplace_back(
        [this, conn = *fd] { ServeConnection(conn); });
  }
}

void LogDiverDaemon::WatchdogLoop() {
  while (!stopping_.load()) {
    ::usleep(static_cast<useconds_t>(options_.watchdog_period_ms * 1000));
    if (stopping_.load()) return;
    const auto now = std::chrono::steady_clock::now();

    // Collect the stalled set under the lock, recycle outside it:
    // Start() on the replacement replays the journal, which can take a
    // while, and ingest/query handlers must not block behind it.
    std::vector<std::shared_ptr<TenantShard>> stalled;
    {
      std::lock_guard<std::mutex> lock(tenants_mu_);
      for (auto& [id, shard] : tenants_) {
        Progress& p = progress_[id];
        const std::uint64_t applied = shard->applied();
        if (applied != p.applied || p.last_change.time_since_epoch() ==
                                        std::chrono::steady_clock::duration::
                                            zero()) {
          p.applied = applied;
          p.last_change = now;
          continue;
        }
        // No progress since the last tick.  Only work left undone
        // marks a stall: an idle tenant has nothing to apply.  Judge it
        // by accepted-but-unapplied lines, not queue depth: the worker
        // pops a whole batch before applying it, so a shard hung on the
        // batch that emptied the queue has an empty queue.  A slow
        // shard keeps bumping `applied` and never lands here — that is
        // the whole point of the delay fault distinguishing the two.
        if (shard->accepted() <= applied) {
          p.last_change = now;
          continue;
        }
        if (now - p.last_change >=
            std::chrono::milliseconds(options_.stall_timeout_ms)) {
          stalled.push_back(shard);
        }
      }
    }

    for (const std::shared_ptr<TenantShard>& shard : stalled) {
      const std::string id = shard->tenant_id();
      std::fprintf(stderr, "[svc] watchdog: tenant %s stalled, recycling\n",
                   id.c_str());
      shard->Abandon();
      std::uint64_t replayed = 0;
      auto fresh = StartShard(id, &replayed);
      std::lock_guard<std::mutex> lock(tenants_mu_);
      graveyard_.push_back(shard);
      if (fresh.ok()) {
        tenants_[id] = std::move(*fresh);
        progress_[id] = Progress{tenants_[id]->applied(), now};
        watchdog_recycles_.fetch_add(1, std::memory_order_relaxed);
        LD_OBS_COUNTER_ADD(obs::names::kSvcWatchdogKillsTotal, 1);
        LD_OBS_COUNTER_ADD(obs::names::kSvcTenantsRecoveredTotal, 1);
        std::fprintf(stderr,
                     "[svc] watchdog: tenant %s recycled (%llu journal "
                     "lines replayed)\n",
                     id.c_str(), static_cast<unsigned long long>(replayed));
      } else {
        // The tenant stays routed to the abandoned shard (which answers
        // ERR) rather than vanishing; the next tick retries.
        std::fprintf(stderr, "[svc] watchdog: tenant %s recycle failed: %s\n",
                     id.c_str(), fresh.status().ToString().c_str());
      }
    }
  }
}

}  // namespace ld::service
