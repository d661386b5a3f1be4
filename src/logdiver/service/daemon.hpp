// The always-on multi-tenant LogDiver daemon (logdiverd).
//
// One process multiplexes up to max_tenants TenantShards over the line
// protocol (service/protocol.hpp): an accept thread hands each
// connection to its own handler thread (blocking I/O, no event loop),
// a watchdog thread recycles stalled shards from their latest snapshot
// + journal suffix, and the whole daemon recovers after kill -9 by
// re-adopting every tenant directory found under data_dir on Start().
//
// Robustness layering (docs/SERVICE.md):
//   admission    — max_tenants caps the shard population; an INGEST
//                  for a new tenant past the cap answers BUSY (the
//                  daemon is full, not the tenant misbehaving);
//   backpressure — per-tenant bounded queues answer BUSY queue-full;
//   degradation  — per-tenant error budgets answer SHED or mark the
//                  tenant degraded (TenantBudgetConfig::policy);
//   detection    — the watchdog compares each shard's applied counter
//                  across ticks; no progress with accepted lines
//                  still unapplied past stall_timeout_ms means a
//                  wedged worker;
//   recovery     — a recycled or restarted shard restores its latest
//                  v2 snapshot (tenant-fingerprint-gated) and replays
//                  its journal suffix, bit-identical to never having
//                  stopped.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "logdiver/service/tenant.hpp"

namespace ld::service {

struct ServiceOptions {
  /// Listen address (sockio.hpp spellings; "unix:<path>" or
  /// "<ipv4>:<port>", port 0 = kernel-assigned).
  std::string listen = "127.0.0.1:0";
  /// Root directory; tenant <t> lives in <data_dir>/<t>/ (journal.ldj
  /// + snapshots/).  Start() re-adopts every subdirectory found here.
  std::string data_dir;
  /// Admission cap on concurrent tenants.
  std::size_t max_tenants = 128;
  /// Watchdog cadence and the no-progress window that counts as a
  /// stall.  0 watchdog_period_ms disables the watchdog.
  std::uint64_t watchdog_period_ms = 100;
  std::uint64_t stall_timeout_ms = 1500;
  /// Accepts FAULT commands (campaign / test surface).  Off in
  /// production: an injected fault is an outage anyone can order.
  bool enable_fault_commands = false;
  /// Per-tenant sizing, cadence and budget (shared by all tenants).
  TenantLimits tenant;
  /// Analyzer configuration each tenant's StreamingAnalyzer gets.
  LogDiverConfig analyzer;
};

class LogDiverDaemon {
 public:
  LogDiverDaemon(const Machine& machine, ServiceOptions options);
  ~LogDiverDaemon();

  /// Recovers every tenant under data_dir (skipping, with a log line,
  /// any that cannot start), binds the listen address, and starts the
  /// accept + watchdog threads.
  Status Start();

  /// The bound address (port 0 resolved) — what clients connect to.
  const std::string& address() const { return address_; }

  /// Executes one protocol request and returns the reply line — the
  /// exact handler connection threads run, exposed so tests (and the
  /// in-process campaign cells) can drive the daemon without sockets.
  std::string HandleCommand(const std::string& line);

  /// Drains every tenant (flush + snapshot) and stops all threads.
  /// Idempotent; the destructor calls it.
  void Stop();

  // --- observability surface (tests, campaign) -----------------------
  std::size_t tenant_count() const;
  std::uint64_t tenants_recovered() const { return tenants_recovered_; }
  std::uint64_t watchdog_recycles() const {
    return watchdog_recycles_.load(std::memory_order_relaxed);
  }
  /// Snapshot of one tenant's shard (nullptr when absent).  The shared
  /// pointer keeps the shard alive across a concurrent recycle.
  std::shared_ptr<TenantShard> FindTenant(const std::string& tenant) const;

 private:
  std::shared_ptr<TenantShard> FindOrAdmit(const std::string& tenant,
                                           std::string& refusal);
  /// Constructs tenant `id`'s shard and starts it (snapshot restore +
  /// journal replay) — the one construct-and-Start behind recovery,
  /// admission and the watchdog's recycle.
  Result<std::shared_ptr<TenantShard>> StartShard(
      const std::string& id, std::uint64_t* replayed) const;
  /// Starts every tenant found under data_dir; a tenant that cannot
  /// start is logged and skipped, never fatal to the daemon.
  Status RecoverExistingTenants();
  void AcceptLoop();
  void WatchdogLoop();
  void ServeConnection(int fd);

  const Machine& machine_;
  const ServiceOptions options_;
  std::string address_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, std::shared_ptr<TenantShard>> tenants_;
  /// Abandoned shards: their detached workers may still be waking up,
  /// so the objects outlive the recycle that replaced them.
  std::vector<std::shared_ptr<TenantShard>> graveyard_;
  /// Apply counters at the last watchdog tick, with the time each
  /// shard last made progress.
  struct Progress {
    std::uint64_t applied = 0;
    std::chrono::steady_clock::time_point last_change{};
  };
  std::map<std::string, Progress> progress_;

  int listen_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::thread watchdog_thread_;
  std::mutex conn_mu_;
  std::vector<std::thread> connections_;
  std::uint64_t tenants_recovered_ = 0;
  std::atomic<std::uint64_t> watchdog_recycles_{0};
  bool started_ = false;
};

}  // namespace ld::service
