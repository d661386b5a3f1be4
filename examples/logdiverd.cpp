// logdiverd: the always-on multi-tenant LogDiver service.
//
//   logdiverd --snapshot-dir <dir> [--listen ADDR] [--max-tenants N]
//       [--tenant-budget N] [--tenant-fraction F] [--tenant-policy P]
//       [--queue-cap N] [--snapshot-interval N] [--small] [--seed N]
//       [--enable-fault-injection]
//
// One daemon process multiplexes up to --max-tenants tenants, each a
// StreamingAnalyzer shard with its own write-ahead journal, bounded
// ingest queue and rolling snapshots under --snapshot-dir/<tenant>/.
// Clients speak the line protocol documented in docs/SERVICE.md:
//
//   INGEST <tenant> <source> <raw line>   -> OK <seq> | BUSY | SHED
//   QUERY  <tenant> report|ingest|health  -> OK ...
//   SNAPSHOT | DRAIN | PING               -> OK ...
//
// --listen takes sockio spellings: "unix:/path/sock" or "<ipv4>:<port>"
// (port 0 = kernel-assigned).  The daemon prints the resolved address
// as its first stdout line ("listening on <addr>") so wrappers started
// with port 0 know where to connect.
//
// --tenant-budget / --tenant-fraction set each tenant's per-window
// error budget (malformed must exceed BOTH to trip); --tenant-policy
// picks what tripping does: "degrade" (default; quarantine-and-
// continue, health turns degraded) or "shed" (fail-fast; INGEST
// answers SHED with a retry-after hint until the cooloff passes).
//
// On restart the daemon re-adopts every tenant directory found under
// --snapshot-dir: latest valid snapshot + journal-suffix replay,
// bit-identical to never having stopped.  SIGINT/SIGTERM drain every
// tenant (flush + final snapshot) before exiting.
//
// --small selects the 1,152-node testbed machine instead of the full
// Blue Waters model (must match what the traffic was generated on).
//
// Numeric flags take plain decimal digits within a per-flag range
// (--max-tenants 1..2^20, --queue-cap 1..2^24, --tenant-budget,
// --snapshot-interval and --seed 0..2^64-1); --tenant-fraction takes a
// finite number in [0, 1].  A bad value names the flag and exits 2.
//
// Exit codes: 0 clean shutdown, 1 startup/runtime error, 2 usage.
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>

#include <unistd.h>

#include "cli_flags.hpp"
#include "common/strings.hpp"
#include "logdiver/service/daemon.hpp"
#include "simlog/scenario.hpp"

namespace {

// Per-flag ceilings of the numeric flags (usage error past them).
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxTenants = 1u << 20;
constexpr std::uint64_t kMaxQueueCap = 1u << 24;

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

int Usage() {
  std::cerr
      << "usage: logdiverd --snapshot-dir <dir> [options]\n"
      << "  --listen ADDR            unix:<path> or <ipv4>:<port> "
         "(default 127.0.0.1:0)\n"
      << "  --max-tenants N          admission cap, 1..2^20 (default 128)\n"
      << "  --tenant-budget N        per-window malformed-line floor "
         "(default 32)\n"
      << "  --tenant-fraction F      per-window malformed fraction in "
         "[0, 1] (default 0.25)\n"
      << "  --tenant-policy P        shed | degrade (default degrade)\n"
      << "  --queue-cap N            per-tenant ingest queue depth, "
         "1..2^24 (default 1024)\n"
      << "  --snapshot-interval N    snapshot every N applied lines; 0 = "
         "by journal bytes only (default 4096)\n"
      << "  --small                  1,152-node testbed machine\n"
      << "  --seed N                 scenario seed for --small "
         "(default 42)\n"
      << "  --enable-fault-injection accept FAULT commands (tests only)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ld::service::ServiceOptions options;
  bool small = false;
  std::uint64_t seed = 42;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto number = [&](auto& out, std::uint64_t lo, std::uint64_t hi) {
      return ld::ParseUintFlag("logdiverd", arg, next(), lo, hi, out);
    };
    if (arg == "--snapshot-dir") {
      const char* v = next();
      if (!v) return Usage();
      options.data_dir = v;
    } else if (arg == "--listen") {
      const char* v = next();
      if (!v) return Usage();
      options.listen = v;
    } else if (arg == "--max-tenants") {
      if (!number(options.max_tenants, 1, kMaxTenants)) return Usage();
    } else if (arg == "--tenant-budget") {
      if (!number(options.tenant.budget.min_malformed, 0, kMaxU64)) {
        return Usage();
      }
    } else if (arg == "--tenant-fraction") {
      const char* v = next();
      if (!v) return Usage();
      const auto parsed = ld::ParseDouble(v);
      if (!parsed.ok() || !std::isfinite(*parsed) || *parsed < 0.0 ||
          *parsed > 1.0) {
        std::cerr << "logdiverd: --tenant-fraction expects a number in "
                     "[0, 1], got '"
                  << v << "'\n";
        return Usage();
      }
      options.tenant.budget.max_malformed_fraction = *parsed;
    } else if (arg == "--tenant-policy") {
      const char* v = next();
      if (!v) return Usage();
      if (std::strcmp(v, "shed") == 0) {
        options.tenant.budget.policy = ld::DegradationPolicy::kFailFast;
      } else if (std::strcmp(v, "degrade") == 0) {
        options.tenant.budget.policy =
            ld::DegradationPolicy::kQuarantineAndContinue;
      } else {
        std::cerr << "logdiverd: --tenant-policy expects shed or degrade, "
                     "got '"
                  << v << "'\n";
        return Usage();
      }
    } else if (arg == "--queue-cap") {
      if (!number(options.tenant.queue_capacity, 1, kMaxQueueCap)) {
        return Usage();
      }
    } else if (arg == "--snapshot-interval") {
      if (!number(options.tenant.snapshot_interval_lines, 0, kMaxU64)) {
        return Usage();
      }
    } else if (arg == "--small") {
      small = true;
    } else if (arg == "--seed") {
      if (!number(seed, 0, kMaxU64)) return Usage();
    } else if (arg == "--enable-fault-injection") {
      options.enable_fault_commands = true;
    } else {
      std::cerr << "unknown flag " << arg << "\n";
      return Usage();
    }
  }
  if (options.data_dir.empty()) {
    std::cerr << "--snapshot-dir is required\n";
    return Usage();
  }

  ld::ScenarioConfig config = small ? ld::SmallScenario(seed)
                                    : ld::ScenarioConfig{};
  config.seed = seed;
  if (!small) config.full_machine = true;
  const ld::Machine machine = ld::MakeMachine(config);

  ld::service::LogDiverDaemon daemon(machine, options);
  const ld::Status started = daemon.Start();
  if (!started.ok()) {
    std::cerr << "logdiverd: " << started.ToString() << "\n";
    return 1;
  }
  // First stdout line: the resolved address (port 0 becomes concrete
  // here) — the CI smoke test and the campaign parse it.
  std::cout << "listening on " << daemon.address() << std::endl;

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) ::usleep(50 * 1000);

  std::cout << "logdiverd: draining " << daemon.tenant_count()
            << " tenant(s)\n";
  daemon.Stop();
  return 0;
}
