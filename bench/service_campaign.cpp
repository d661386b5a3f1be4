// Overload/fault campaign for the always-on multi-tenant service: drive
// hundreds of tenants of bursty, partly dirty traffic through the real
// socket path of a forked logdiverd process and assert the robustness
// contract cell by cell:
//
//   clean-burst   concurrent clients flood every tenant; per-tenant
//                 report bytes match an uninterrupted in-process shard,
//                 p99 query latency is reported and the daemon's RSS
//                 must stay under its ceiling;
//   crash         a FAULT-armed crash kills the daemon mid-burst
//                 (_Exit(137) at an apply boundary); after restart the
//                 clients resume from `QUERY ingest` accepted counts
//                 and every tenant's report is bit-identical;
//   kill-9        same, with an external SIGKILL instead of the armed
//                 crash — nothing acked is lost, nothing is doubled;
//   hang          one tenant's worker parks mid-apply; the watchdog
//                 recycles it from snapshot + journal while healthy
//                 tenants keep their exact bytes;
//   slow          a seeded per-line delay backs one tenant's queue up;
//                 backpressure absorbs it and the watchdog must NOT
//                 recycle (slow is not stalled);
//   shed          a poisoned tenant blows its error budget under the
//                 fail-fast policy and is shed with retry-after hints
//                 — with zero perturbation of healthy tenants' bytes;
//   admission     tenant max_tenants+1 is refused at the door with
//                 BUSY, not admitted and not crashed into.
//
// Modes: --quick (the ctest `service` label: >= 100 tenants, smaller
// campaign), --smoke (CI: 2 tenants, kill -9, restart, byte-identical
// — seconds, not minutes), default (the full sweep).
//
// Environment knobs:
//   LD_SVC_APPS     target application runs (default 2000; quick 700)
//   LD_SVC_SEED     campaign seed           (default 29)
//   LD_SVC_TENANTS  tenant count            (default 160; quick 100)
//   LD_SVC_RSS_MB   daemon RSS ceiling      (default 2048)
#include <signal.h>
#include <sys/wait.h>

#include <csignal>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/service/client.hpp"
#include "logdiver/service/daemon.hpp"
#include "logdiver/service/protocol.hpp"
#include "simlog/scenario.hpp"

namespace ld::service {
namespace {

using Clock = std::chrono::steady_clock;

// --------------------------------------------------------------------
// Traffic: one campaign's merged logs, partitioned across tenants
// --------------------------------------------------------------------

struct TimedLine {
  TimePoint time;
  LogSource source;
  std::string line;
};

/// Every line with its claimed time (claims.hpp), in claimed-time order.
std::vector<TimedLine> MergeStreams(const EmittedLogs& logs, int base_year) {
  ClaimedTracker tracker(base_year);
  const std::vector<std::string>* files[kNumLogSources] = {
      &logs.torque, &logs.alps, &logs.syslog, &logs.hwerr};
  std::vector<TimedLine> merged;
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const auto source = static_cast<LogSource>(s);
    for (const std::string& line : *files[s]) {
      merged.push_back(
          {tracker.ParseAndClaim(source, line).claimed, source, line});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TimedLine& a, const TimedLine& b) {
                     return a.time < b.time;
                   });
  return merged;
}

struct TenantTraffic {
  std::string id;
  std::vector<const TimedLine*> lines;  // in send order
};

/// Round-robin partition: every tenant sees a chronologically ordered
/// slice of the campaign, the way independent systems' logs would look.
std::vector<TenantTraffic> Partition(const std::vector<TimedLine>& merged,
                                     std::size_t tenant_count) {
  std::vector<TenantTraffic> tenants(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    char name[32];
    std::snprintf(name, sizeof(name), "tenant-%03zu", t);
    tenants[t].id = name;
  }
  for (std::size_t i = 0; i < merged.size(); ++i) {
    tenants[i % tenant_count].lines.push_back(&merged[i]);
  }
  return tenants;
}

// --------------------------------------------------------------------
// Expected answers: an uninterrupted in-process shard per tenant
// --------------------------------------------------------------------

/// The campaign's oracle.  The daemon cells must reproduce these reply
/// bytes exactly, whatever faults were injected in between.
std::map<std::string, std::string> ComputeExpected(
    const Machine& machine, const std::vector<TenantTraffic>& tenants,
    const std::string& scratch) {
  std::map<std::string, std::string> expected;
  for (const TenantTraffic& tenant : tenants) {
    const std::string dir = scratch + "/" + tenant.id;
    TenantShard shard(tenant.id, dir, machine, LogDiverConfig{},
                      TenantLimits{});
    if (!shard.Start().ok()) std::abort();
    for (const TimedLine* item : tenant.lines) {
      for (;;) {
        const std::string reply = shard.Ingest(item->source, item->line);
        if (ReplyVerdict(reply) != "BUSY") break;
        ::usleep(500);
      }
    }
    if (!shard.Drain().ok()) std::abort();
    expected[tenant.id] = shard.QueryReport();
    shard.Stop();
    std::filesystem::remove_all(dir);
  }
  return expected;
}

// --------------------------------------------------------------------
// The daemon under test: a forked child on a unix socket
// --------------------------------------------------------------------

volatile std::sig_atomic_t g_child_stop = 0;

[[noreturn]] void DaemonChildMain(const Machine& machine,
                                  const ServiceOptions& options) {
  LogDiverDaemon daemon(machine, options);
  const Status started = daemon.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "child daemon start failed: %s\n",
                 started.ToString().c_str());
    std::_Exit(12);
  }
  std::signal(SIGTERM, [](int) { g_child_stop = 1; });
  while (!g_child_stop) ::usleep(20 * 1000);
  daemon.Stop();
  std::_Exit(0);
}

/// Forks a daemon and waits until its socket accepts connections.
pid_t SpawnDaemon(const Machine& machine, const ServiceOptions& options) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) DaemonChildMain(machine, options);
  for (int attempt = 0; attempt < 500; ++attempt) {
    auto probe = ServiceClient::Connect(options.listen, 1000);
    if (probe.ok() && (*probe)->Send("PING").ok()) return pid;
    ::usleep(20 * 1000);
  }
  std::fprintf(stderr, "daemon on %s never came up\n",
               options.listen.c_str());
  ::kill(pid, SIGKILL);
  std::exit(1);
}

/// waitpid, folded to the shell convention (128+signal for deaths).
int WaitDaemon(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

int StopDaemon(pid_t pid) {
  ::kill(pid, SIGTERM);
  return WaitDaemon(pid);
}

/// Peak RSS (VmHWM) of a live process, in MB; 0 when unreadable.
std::uint64_t PeakRssMb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) / 1024;
    }
  }
  return 0;
}

// --------------------------------------------------------------------
// Client-side helpers
// --------------------------------------------------------------------

std::unique_ptr<ServiceClient> MustConnect(const std::string& address) {
  auto client = ServiceClient::Connect(address, /*recv_timeout_ms=*/60000);
  if (!client.ok()) {
    std::fprintf(stderr, "connect %s: %s\n", address.c_str(),
                 client.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(*client);
}

/// Sends tenant lines [from, end); returns the index past the last
/// line that was definitely acknowledged (a send error — the daemon
/// died — stops early; SHED lines are skipped and counted).
struct FeedOutcome {
  bool daemon_alive = true;
  std::uint64_t shed = 0;
  std::uint64_t busy_retries = 0;
};

FeedOutcome FeedTenant(ServiceClient& client, const TenantTraffic& tenant,
                       std::size_t from = 0) {
  FeedOutcome out;
  for (std::size_t i = from; i < tenant.lines.size(); ++i) {
    const TimedLine* item = tenant.lines[i];
    auto reply = client.IngestWithRetry(tenant.id, item->source, item->line,
                                        /*max_attempts=*/2000);
    if (!reply.ok()) {
      out.daemon_alive = false;
      return out;
    }
    const auto verdict = ReplyVerdict(*reply);
    if (verdict == "SHED") {
      ++out.shed;
      continue;
    }
    if (verdict != "OK") {
      std::fprintf(stderr, "tenant %s line %zu: %s\n", tenant.id.c_str(), i,
                   reply->c_str());
      out.daemon_alive = false;
      return out;
    }
  }
  return out;
}

/// Re-syncs one tenant after a daemon death: asks how much was acked,
/// resends exactly the suffix.  The exactly-once client protocol.
bool ResumeTenant(ServiceClient& client, const TenantTraffic& tenant) {
  auto accepted = client.AcceptedCount(tenant.id);
  if (!accepted.ok()) {
    std::fprintf(stderr, "resume %s: %s\n", tenant.id.c_str(),
                 accepted.status().ToString().c_str());
    return false;
  }
  if (*accepted > tenant.lines.size()) {
    std::fprintf(stderr, "resume %s: daemon claims %llu acked of %zu sent\n",
                 tenant.id.c_str(),
                 static_cast<unsigned long long>(*accepted),
                 tenant.lines.size());
    return false;
  }
  return FeedTenant(client, tenant, *accepted).daemon_alive;
}

/// Compares every tenant's report (skips ids in `skip`) to the oracle.
bool VerifyReports(ServiceClient& client,
                   const std::vector<TenantTraffic>& tenants,
                   const std::map<std::string, std::string>& expected,
                   const std::set<std::string>& skip, const char* cell) {
  std::size_t mismatches = 0;
  for (const TenantTraffic& tenant : tenants) {
    if (skip.count(tenant.id) != 0) continue;
    auto got = client.Send("QUERY " + tenant.id + " report");
    const std::string& want = expected.at(tenant.id);
    if (!got.ok() || *got != want) {
      if (++mismatches <= 3) {
        std::fprintf(stderr, "  [%s] %s: got %s want %s\n", cell,
                     tenant.id.c_str(),
                     got.ok() ? got->c_str() : got.status().ToString().c_str(),
                     want.c_str());
      }
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr, "  [%s] %zu tenant report(s) diverged\n", cell,
                 mismatches);
  }
  return mismatches == 0;
}

std::uint64_t PingRecycles(ServiceClient& client) {
  auto reply = client.Send("PING");
  if (!reply.ok()) return 0;
  const std::size_t pos = reply->find("recycles=");
  if (pos == std::string::npos) return 0;
  return std::strtoull(reply->c_str() + pos + 9, nullptr, 10);
}

// --------------------------------------------------------------------
// Campaign state shared by the cells
// --------------------------------------------------------------------

struct CampaignEnv {
  Machine machine;
  std::vector<TimedLine> merged;
  std::vector<TenantTraffic> tenants;
  std::map<std::string, std::string> expected;
  std::string base;
  int cell_index = 0;

  ServiceOptions Options(const std::string& cell) {
    ServiceOptions options;
    options.data_dir =
        base + "/" + std::to_string(cell_index) + "_" + cell + "/data";
    options.listen = base + "-" + std::to_string(cell_index) + ".sock";
    options.listen = "unix:" + options.listen;
    ++cell_index;
    options.max_tenants = tenants.size() + 4;
    return options;
  }
};

// --------------------------------------------------------------------
// Cells
// --------------------------------------------------------------------

/// Clean burst: concurrent clients, full traffic, latency + RSS.
bool CellCleanBurst(CampaignEnv& env, std::uint64_t rss_ceiling_mb) {
  ServiceOptions options = env.Options("clean");
  const pid_t pid = SpawnDaemon(env.machine, options);

  const std::size_t kWriters = 4;
  std::vector<std::thread> writers;
  std::atomic<bool> feed_failed{false};
  const auto ingest_start = Clock::now();
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      auto client = MustConnect(options.listen);
      for (std::size_t t = w; t < env.tenants.size(); t += kWriters) {
        if (!FeedTenant(*client, env.tenants[t]).daemon_alive) {
          feed_failed = true;
          return;
        }
      }
    });
  }
  // A reader thread hammers health/report queries *during* the burst —
  // the latency the cell reports is latency under load.
  std::vector<double> query_us;
  std::atomic<bool> burst_done{false};
  std::thread reader([&] {
    auto client = MustConnect(options.listen);
    std::size_t t = 0;
    while (!burst_done) {
      const auto start = Clock::now();
      auto reply =
          client->Send("QUERY " + env.tenants[t % env.tenants.size()].id +
                       " health");
      if (reply.ok()) {
        query_us.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - start)
                .count());
      }
      ++t;
      ::usleep(2000);
    }
  });
  for (std::thread& w : writers) w.join();
  const double ingest_seconds =
      std::chrono::duration<double>(Clock::now() - ingest_start).count();
  burst_done = true;
  reader.join();
  if (feed_failed) {
    StopDaemon(pid);
    return false;
  }

  auto client = MustConnect(options.listen);
  auto drained = client->Send("DRAIN");
  bool ok = drained.ok() && ReplyVerdict(*drained) == "OK";
  ok = VerifyReports(*client, env.tenants, env.expected, {}, "clean") && ok;

  const double ingest_line_us =
      ingest_seconds * 1e6 / static_cast<double>(env.merged.size());
  double p99_query_us = 0;
  if (!query_us.empty()) {
    std::sort(query_us.begin(), query_us.end());
    p99_query_us = query_us[query_us.size() * 99 / 100];
  }
  const std::uint64_t rss_mb = PeakRssMb(pid);
  if (rss_mb > rss_ceiling_mb) {
    std::fprintf(stderr, "  [clean] RSS %llu MB exceeds ceiling %llu MB\n",
                 static_cast<unsigned long long>(rss_mb),
                 static_cast<unsigned long long>(rss_ceiling_mb));
    ok = false;
  }
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell clean-burst   %s  (%zu tenants, %zu lines, "
              "%.1f us/line, p99 query %.0f us, rss %llu MB)\n",
              ok ? "ok" : "FAIL", env.tenants.size(), env.merged.size(),
              ingest_line_us, p99_query_us,
              static_cast<unsigned long long>(rss_mb));
  return ok;
}

/// Daemon death mid-burst (armed crash or external SIGKILL), restart,
/// client-side resume, bit-identical reports.
bool CellDaemonDeath(CampaignEnv& env, bool armed_crash) {
  const char* cell = armed_crash ? "crash" : "kill-9";
  ServiceOptions options = env.Options(cell);
  options.enable_fault_commands = armed_crash;
  pid_t pid = SpawnDaemon(env.machine, options);

  {
    auto client = MustConnect(options.listen);
    if (armed_crash) {
      // The countdown ticks at apply boundaries across all tenants.
      auto armed = client->Send("FAULT any crash " +
                                std::to_string(env.merged.size() / 3));
      if (!armed.ok() || ReplyVerdict(*armed) != "OK") {
        std::fprintf(stderr, "  [%s] arm failed\n", cell);
        StopDaemon(pid);
        return false;
      }
    }
    for (std::size_t t = 0; t < env.tenants.size(); ++t) {
      if (!armed_crash && t == env.tenants.size() / 2) {
        ::kill(pid, SIGKILL);  // external murder mid-burst
      }
      if (!FeedTenant(*client, env.tenants[t]).daemon_alive) break;
    }
  }
  const int death = WaitDaemon(pid);
  const int want_death = armed_crash ? 137 : 128 + SIGKILL;
  if (death != want_death) {
    std::fprintf(stderr, "  [%s] daemon died with %d, want %d\n", cell,
                 death, want_death);
    return false;
  }

  // Restart over the same data_dir: every tenant re-adopted, clients
  // resume from the accepted counts, reports must match the oracle.
  options.enable_fault_commands = false;
  pid = SpawnDaemon(env.machine, options);
  auto client = MustConnect(options.listen);
  bool ok = true;
  for (const TenantTraffic& tenant : env.tenants) {
    ok = ResumeTenant(*client, tenant) && ok;
  }
  auto drained = client->Send("DRAIN");
  ok = ok && drained.ok() && ReplyVerdict(*drained) == "OK";
  ok = VerifyReports(*client, env.tenants, env.expected, {}, cell) && ok;
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell %-12s  %s  (daemon died %d, recovered %zu tenants)\n",
              cell, ok ? "ok" : "FAIL", death, env.tenants.size());
  return ok;
}

/// One tenant's worker hangs; the watchdog recycles it while healthy
/// tenants are fed concurrently and keep their exact bytes.
bool CellHang(CampaignEnv& env) {
  ServiceOptions options = env.Options("hang");
  options.enable_fault_commands = true;
  options.watchdog_period_ms = 25;
  options.stall_timeout_ms = 300;
  options.tenant.queue_capacity = 64;
  const pid_t pid = SpawnDaemon(env.machine, options);

  const TenantTraffic& victim = env.tenants.front();
  bool ok = true;
  {
    auto client = MustConnect(options.listen);
    auto armed = client->Send("FAULT " + victim.id + " hang " +
                              std::to_string(victim.lines.size() / 2));
    ok = armed.ok() && ReplyVerdict(*armed) == "OK";
  }
  std::atomic<bool> healthy_ok{true};
  std::thread healthy_feed([&] {
    auto client = MustConnect(options.listen);
    for (std::size_t t = 1; t < env.tenants.size(); ++t) {
      if (!FeedTenant(*client, env.tenants[t]).daemon_alive) {
        healthy_ok = false;
        return;
      }
    }
  });
  auto client = MustConnect(options.listen);
  ok = FeedTenant(*client, victim).daemon_alive && ok;
  healthy_feed.join();
  ok = ok && healthy_ok;

  // The hang must have tripped the watchdog (the victim's queue backed
  // up behind a parked worker) — and recovery must lose nothing.
  // Generous: an oversubscribed CI machine can starve the watchdog.
  for (int i = 0; i < 6000 && PingRecycles(*client) == 0; ++i) {
    ::usleep(10 * 1000);
  }
  const std::uint64_t recycles = PingRecycles(*client);
  if (recycles == 0) {
    std::fprintf(stderr, "  [hang] watchdog never recycled the victim\n");
    ok = false;
  }
  auto drained = client->Send("DRAIN");
  ok = ok && drained.ok() && ReplyVerdict(*drained) == "OK";
  ok = VerifyReports(*client, env.tenants, env.expected, {}, "hang") && ok;
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell hang          %s  (%llu recycle(s), victim %s)\n",
              ok ? "ok" : "FAIL",
              static_cast<unsigned long long>(recycles), victim.id.c_str());
  return ok;
}

/// A slow shard is a backpressure problem, not a stall: the watchdog
/// must keep its hands off while BUSY-retries absorb the lag.
bool CellSlow(CampaignEnv& env) {
  ServiceOptions options = env.Options("slow");
  options.enable_fault_commands = true;
  options.watchdog_period_ms = 25;
  options.stall_timeout_ms = 400;
  options.tenant.queue_capacity = 16;
  const pid_t pid = SpawnDaemon(env.machine, options);

  const TenantTraffic& sluggish = env.tenants.front();
  auto client = MustConnect(options.listen);
  auto armed = client->Send("FAULT " + sluggish.id + " slow 1 3 7");
  bool ok = armed.ok() && ReplyVerdict(*armed) == "OK";
  ok = FeedTenant(*client, sluggish).daemon_alive && ok;
  auto drained = client->Send("DRAIN");
  ok = ok && drained.ok() && ReplyVerdict(*drained) == "OK";
  const std::uint64_t recycles = PingRecycles(*client);
  if (recycles != 0) {
    std::fprintf(stderr,
                 "  [slow] watchdog recycled a merely-slow shard %llu "
                 "time(s)\n",
                 static_cast<unsigned long long>(recycles));
    ok = false;
  }
  // The slow path changes timing, never bytes.
  auto report = client->Send("QUERY " + sluggish.id + " report");
  ok = ok && report.ok() && *report == env.expected.at(sluggish.id);
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell slow          %s  (0 recycles wanted, saw %llu)\n",
              ok ? "ok" : "FAIL", static_cast<unsigned long long>(recycles));
  return ok;
}

/// A poisoned tenant blows its budget under the shed policy; healthy
/// tenants' bytes must not move.
bool CellShed(CampaignEnv& env) {
  ServiceOptions options = env.Options("shed");
  options.tenant.budget.policy = DegradationPolicy::kFailFast;
  options.tenant.budget.window_lines = 16;
  options.tenant.budget.min_malformed = 4;
  options.tenant.budget.max_malformed_fraction = 0.10;
  options.tenant.budget.cooloff_ms = 150;
  const pid_t pid = SpawnDaemon(env.machine, options);

  const TenantTraffic& poisoned = env.tenants.front();
  auto client = MustConnect(options.listen);
  // Every other line is garbage, and the stream loops so the windows
  // keep evaluating: far over any sane budget.
  std::uint64_t shed = 0;
  bool ok = true;
  const std::size_t sends = poisoned.lines.size() * 10;
  for (std::size_t i = 0; i < sends; ++i) {
    const bool dirty = i % 2 == 1;
    const TimedLine* item = poisoned.lines[i % poisoned.lines.size()];
    auto reply = client->IngestWithRetry(
        poisoned.id, item->source,
        dirty ? std::string_view("@@corrupted line a tail -f would ship@@")
              : std::string_view(item->line),
        /*max_attempts=*/2000);
    if (!reply.ok()) {
      ok = false;
      break;
    }
    if (ReplyVerdict(*reply) == "SHED") ++shed;
    // Budget windows read the quarantine totals the apply side
    // publishes; pace the flood so they are not all still in flight.
    if (i % 16 == 15) ::usleep(2000);
  }
  if (shed == 0) {
    std::fprintf(stderr, "  [shed] poisoned tenant was never shed\n");
    ok = false;
  }
  // Healthy tenants, fed after the shedding, must be untouched by it.
  for (std::size_t t = 1; t < env.tenants.size(); ++t) {
    if (!FeedTenant(*client, env.tenants[t]).daemon_alive) {
      ok = false;
      break;
    }
  }
  auto drained = client->Send("DRAIN");
  ok = ok && drained.ok() && ReplyVerdict(*drained) == "OK";
  ok = VerifyReports(*client, env.tenants, env.expected, {poisoned.id},
                     "shed") &&
       ok;
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell shed          %s  (%llu SHED replies, healthy bytes "
              "intact)\n",
              ok ? "ok" : "FAIL", static_cast<unsigned long long>(shed));
  return ok;
}

/// The admission cap refuses tenant N+1 at the door with BUSY.
bool CellAdmission(CampaignEnv& env) {
  ServiceOptions options = env.Options("admission");
  options.max_tenants = env.tenants.size();
  const pid_t pid = SpawnDaemon(env.machine, options);
  auto client = MustConnect(options.listen);
  bool ok = true;
  // Admit exactly max_tenants (one line each is enough to admit).
  for (const TenantTraffic& tenant : env.tenants) {
    auto reply = client->IngestWithRetry(tenant.id, tenant.lines[0]->source,
                                         tenant.lines[0]->line);
    ok = ok && reply.ok() && ReplyVerdict(*reply) == "OK";
  }
  auto refused = client->Send("INGEST one-too-many torque overflow line");
  ok = ok && refused.ok() && ReplyVerdict(*refused) == "BUSY";
  // The refusal carried a retry hint, and incumbents still work.
  auto again = client->Send("QUERY " + env.tenants[0].id + " health");
  ok = ok && again.ok() && ReplyVerdict(*again) == "OK";
  ok = StopDaemon(pid) == 0 && ok;
  std::printf("cell admission     %s  (cap %zu, tenant %zu refused BUSY)\n",
              ok ? "ok" : "FAIL", env.tenants.size(),
              env.tenants.size() + 1);
  return ok;
}

// --------------------------------------------------------------------
// Driver
// --------------------------------------------------------------------

int Run(bool quick, bool smoke) {
  const std::uint64_t apps =
      bench::EnvU64("LD_SVC_APPS", smoke ? 150 : quick ? 700 : 2000);
  const std::uint64_t seed = bench::EnvU64("LD_SVC_SEED", 29);
  const std::size_t tenant_count = static_cast<std::size_t>(
      bench::EnvU64("LD_SVC_TENANTS", smoke ? 2 : quick ? 100 : 160));
  const std::uint64_t rss_ceiling_mb = bench::EnvU64("LD_SVC_RSS_MB", 2048);

  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = apps;
  CampaignEnv env{MakeMachine(config), {}, {}, {}, {}, 0};
  env.base = "/tmp/ld_svc_campaign." + std::to_string(::getpid());
  std::filesystem::remove_all(env.base);
  std::filesystem::create_directories(env.base);

  auto campaign = RunCampaign(env.machine, config);
  if (!campaign.ok()) {
    std::fprintf(stderr, "campaign failed: %s\n",
                 campaign.status().ToString().c_str());
    return 1;
  }
  env.merged = MergeStreams(campaign->logs, 2013);
  env.tenants = Partition(env.merged, tenant_count);

  std::printf("=== service campaign: %zu tenants, %zu lines (%s) ===\n",
              env.tenants.size(), env.merged.size(),
              smoke ? "smoke" : quick ? "quick" : "full");
  std::printf("computing per-tenant oracle (uninterrupted shards)...\n");
  env.expected = ComputeExpected(env.machine, env.tenants, env.base);

  bool all_passed = true;
  if (smoke) {
    // CI smoke: the kill -9 / restart / byte-identical contract only.
    all_passed = CellDaemonDeath(env, /*armed_crash=*/false);
  } else {
    all_passed = CellCleanBurst(env, rss_ceiling_mb) && all_passed;
    all_passed = CellDaemonDeath(env, /*armed_crash=*/true) && all_passed;
    all_passed = CellDaemonDeath(env, /*armed_crash=*/false) && all_passed;
    all_passed = CellHang(env) && all_passed;
    all_passed = CellSlow(env) && all_passed;
    all_passed = CellShed(env) && all_passed;
    all_passed = CellAdmission(env) && all_passed;
  }

  std::filesystem::remove_all(env.base);
  std::printf("\nservice campaign: %s\n",
              all_passed ? "ALL CELLS PASSED" : "FAILURES");
  return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace ld::service

int main(int argc, char** argv) {
  bool quick = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::fprintf(stderr, "usage: service_campaign [--quick|--smoke]\n");
      return 2;
    }
  }
  return ld::service::Run(quick, smoke);
}
