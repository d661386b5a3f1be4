#include "logdiver/fleet/supervisor.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/rng.hpp"
#include "logdiver/streaming.hpp"

namespace ld::fleet {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

std::string PartialPathFor(const FleetOptions& options, std::uint32_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "partial-%04u.ldsnap", shard);
  return options.partial_dir + "/" + name;
}

/// Everything the forked worker does: arm injected faults, replay the
/// bundle shard-filtered, write the partial, optionally corrupt it.
/// Exit codes: 0 success, 1 internal error, 3 ingest budget tripped
/// (an ordinary failure the supervisor must pass through, not retry).
int RunWorkerProcess(const Machine& machine, LogDiverConfig config,
                     const StreamInputs& inputs, const FleetOptions& options,
                     std::uint64_t fingerprint, std::uint32_t shard,
                     int attempt) {
  const auto fault = options.faults.find(shard);
  if (fault != options.faults.end() &&
      (attempt == 0 || fault->second.persistent)) {
    switch (fault->second.fault) {
      case WorkerFault::kNone: break;
      case WorkerFault::kCrash:
        ArmCrashPoint(fault->second.after_lines);
        break;
      case WorkerFault::kHang:
        ArmHangPoint(fault->second.after_lines);
        break;
      case WorkerFault::kTruncatedPartial:
        ArmTruncatePartial(true);
        break;
    }
  }

  config.shard = ShardSpec{shard, options.shard_count};
  StreamingAnalyzer analyzer(machine, config);
  PartialAggregates partial(config.metrics);
  const auto total = ReplayBundle(config, inputs, options.schedule, analyzer);
  if (!total.ok()) {
    std::fprintf(stderr, "[fleet] shard %u: %s\n", shard,
                 total.status().message().c_str());
    return 1;
  }
  partial.header.shard_index = shard;
  partial.header.shard_count = options.shard_count;
  partial.header.fingerprint = fingerprint;
  partial.summary = analyzer.Finalize();
  partial.metrics = analyzer.metrics_accumulator();

  const std::string path = PartialPathFor(options, shard);
  const Status written = WritePartialFile(path, partial);
  if (!written.ok()) {
    std::fprintf(stderr, "[fleet] shard %u: %s\n", shard,
                 written.message().c_str());
    return 1;
  }
  if (TruncatePartialArmed()) {
    // Model the torn output atomic rename cannot prevent (bad disk,
    // truncated copy off a shared filesystem): chop the file in half
    // *after* the rename and report success anyway.  Only the reader's
    // CRC stands between this partial and the merge.
    struct stat st{};
    if (::stat(path.c_str(), &st) == 0) {
      ::truncate(path.c_str(), st.st_size / 2);
    }
    std::fprintf(stderr, "[fleet] shard %u: injected partial truncation\n",
                 shard);
  }
  if (!partial.summary.ingest_status.ok()) return 3;
  return 0;
}

struct ShardState {
  enum class Phase { kPending, kRunning, kBackoff, kDone, kDropped };
  Phase phase = Phase::kPending;
  pid_t pid = -1;
  Clock::time_point deadline{};
  Clock::time_point retry_at{};
  ShardOutcome out;
  std::optional<PartialAggregates> partial;
};

void KillRunning(std::vector<ShardState>& shards) {
  for (ShardState& s : shards) {
    if (s.phase == ShardState::Phase::kRunning && s.pid > 0) {
      ::kill(s.pid, SIGKILL);
      int status = 0;
      ::waitpid(s.pid, &status, 0);
      s.pid = -1;
    }
  }
}

}  // namespace

std::string FleetCoverage::Row() const {
  std::string row = "fleet coverage: " + std::to_string(shards_merged) + "/" +
                    std::to_string(shard_count) + " shards merged";
  if (!dropped_shards.empty()) {
    row += " (dropped:";
    for (std::uint32_t shard : dropped_shards) {
      row += " " + std::to_string(shard);
    }
    row += ")";
  }
  return row;
}

Result<FleetSummary> ShardSupervisor::Run(const StreamInputs& inputs,
                                          const FleetOptions& options) const {
  if (options.shard_count == 0) {
    return InvalidArgumentError("fleet: shard_count must be >= 1");
  }
  if (options.max_attempts < 1) {
    return InvalidArgumentError("fleet: max_attempts must be >= 1");
  }
  if (options.partial_dir.empty()) {
    return InvalidArgumentError("fleet: partial_dir is required");
  }
  std::error_code ec;
  fs::create_directories(options.partial_dir, ec);
  if (ec) {
    return InternalError("fleet: cannot create " + options.partial_dir +
                         ": " + ec.message());
  }
  LD_ASSIGN_OR_RETURN(
      const std::uint64_t fingerprint,
      BundlePartitionFingerprint(inputs, options.shard_count));

  const std::uint32_t max_workers =
      options.max_workers == 0 ? options.shard_count : options.max_workers;
  const Rng jitter_root(options.seed);

  std::vector<ShardState> shards(options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    shards[i].out.shard_index = i;
  }

  // One failure ends the fleet immediately: a worker that exits with an
  // *ordinary* (non-crash) failure carries an error retries cannot fix.
  Status abort_status;
  std::uint32_t dropped_count = 0;

  auto running_count = [&shards] {
    return static_cast<std::uint32_t>(std::count_if(
        shards.begin(), shards.end(), [](const ShardState& s) {
          return s.phase == ShardState::Phase::kRunning;
        }));
  };

  // Retries exhausted for shard i: drop it and decide whether the fleet
  // can continue.  kFailFast aborts on the first drop; the degrade
  // policy tolerates up to failure_budget drops.
  auto drop_shard = [&](ShardState& s) {
    s.phase = ShardState::Phase::kDropped;
    s.out.dropped = true;
    ++dropped_count;
    LD_OBS_COUNTER_ADD(obs::names::kFleetShardsDroppedTotal, 1);
    if (options.policy == DegradationPolicy::kFailFast) {
      abort_status = FailedPreconditionError(
          "fleet: shard " + std::to_string(s.out.shard_index) +
          " exhausted its " + std::to_string(options.max_attempts) +
          " attempts (fail-fast policy)");
    } else if (dropped_count > options.failure_budget) {
      abort_status = OutOfRangeError(
          "fleet: failure budget exhausted (" +
          std::to_string(dropped_count) + " shards dropped, budget " +
          std::to_string(options.failure_budget) + ")");
    }
  };

  // A failed attempt for shard i: retry with deterministic backoff, or
  // drop when attempts are spent.
  auto retry_or_drop = [&](ShardState& s) {
    if (s.out.attempts >= options.max_attempts) {
      drop_shard(s);
      return;
    }
    const std::uint64_t retry = static_cast<std::uint64_t>(s.out.attempts);
    const std::uint64_t base =
        std::min(options.backoff_cap_ms,
                 options.backoff_base_ms << std::min<std::uint64_t>(
                     retry > 0 ? retry - 1 : 0, 20));
    Rng jitter = jitter_root.Fork(
        "shard-" + std::to_string(s.out.shard_index) + "/try-" +
        std::to_string(retry));
    const std::uint64_t delay =
        base + jitter.UniformInt(options.backoff_base_ms + 1);
    s.out.backoff_ms.push_back(delay);
    s.retry_at = Clock::now() + std::chrono::milliseconds(delay);
    s.phase = ShardState::Phase::kBackoff;
    LD_OBS_COUNTER_ADD(obs::names::kFleetRetriesTotal, 1);
  };

  // Exit 0 only earns a merge slot after the partial validates: CRC
  // and framing (ReadPartialFile), then fingerprint and shard identity
  // — a torn, foreign or misnumbered partial is a failed attempt.
  auto validate_partial = [&](ShardState& s) -> bool {
    auto partial = ReadPartialFile(PartialPathFor(options, s.out.shard_index),
                                   config_.metrics);
    if (partial.ok() && partial->header.fingerprint != fingerprint) {
      partial = ParseError("partial fingerprints a different bundle "
                           "partition");
    }
    if (partial.ok() && (partial->header.shard_index != s.out.shard_index ||
                         partial->header.shard_count !=
                             options.shard_count)) {
      partial = ParseError("partial claims a different shard identity");
    }
    if (!partial.ok()) {
      ++s.out.partials_rejected;
      LD_OBS_COUNTER_ADD(obs::names::kFleetPartialsRejectedTotal, 1);
      std::fprintf(stderr, "[fleet] shard %u: rejecting partial: %s\n",
                   s.out.shard_index, partial.status().message().c_str());
      return false;
    }
    s.partial = std::move(*partial);
    return true;
  };

  while (abort_status.ok()) {
    bool all_resolved = true;
    const Clock::time_point now = Clock::now();

    // Launch phase: fill free worker slots in shard-index order.
    for (ShardState& s : shards) {
      if (running_count() >= max_workers) break;
      const bool launchable =
          s.phase == ShardState::Phase::kPending ||
          (s.phase == ShardState::Phase::kBackoff && now >= s.retry_at);
      if (!launchable) continue;
      const int attempt = s.out.attempts++;
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        // Abort through abort_status (not an early return) so the
        // KillRunning path below reaps every already-launched worker —
        // an error exit must never leave zombies behind.
        abort_status = InternalError("fleet: fork failed for shard " +
                                     std::to_string(s.out.shard_index));
        break;
      }
      if (pid == 0) {
        const int rc = RunWorkerProcess(machine_, config_, inputs, options,
                                        fingerprint, s.out.shard_index,
                                        attempt);
        std::fflush(nullptr);
        std::_Exit(rc);
      }
      s.pid = pid;
      s.deadline =
          Clock::now() + std::chrono::milliseconds(options.shard_timeout_ms);
      s.phase = ShardState::Phase::kRunning;
      LD_OBS_COUNTER_ADD(obs::names::kFleetWorkersSpawnedTotal, 1);
    }

    // Poll phase: reap exits, escalate deadline blowers to SIGKILL.
    for (ShardState& s : shards) {
      if (s.phase != ShardState::Phase::kDone &&
          s.phase != ShardState::Phase::kDropped) {
        all_resolved = false;
      }
      if (s.phase != ShardState::Phase::kRunning) continue;
      int status = 0;
      const pid_t r = ::waitpid(s.pid, &status, WNOHANG);
      if (r < 0) {
        abort_status = InternalError("fleet: waitpid failed for shard " +
                                     std::to_string(s.out.shard_index));
        break;
      }
      bool hung = false;
      if (r == 0) {
        if (Clock::now() < s.deadline) continue;
        // Hung: kill, reap, handle as a crash.
        ::kill(s.pid, SIGKILL);
        if (::waitpid(s.pid, &status, 0) < 0) {
          abort_status = InternalError("fleet: waitpid after SIGKILL failed");
          break;
        }
        hung = true;
        ++s.out.hangs_killed;
        LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerHangsKilledTotal, 1);
      }
      s.pid = -1;
      bool crashed = hung;
      int code = 0;
      if (WIFSIGNALED(status)) {
        crashed = true;
        code = 128 + WTERMSIG(status);
      } else {
        code = WEXITSTATUS(status);
        crashed = crashed || code >= 128;
      }
      if (crashed) {
        ++s.out.crashes;
        LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerCrashesTotal, 1);
        retry_or_drop(s);
      } else if (code != 0) {
        // Ordinary failure: the child's error (ingest budget, bad
        // input) passes through; retrying cannot fix it.
        abort_status = FailedPreconditionError(
            "fleet: shard " + std::to_string(s.out.shard_index) +
            " failed ordinarily (exit " + std::to_string(code) +
            "); see its stderr");
        break;
      } else if (validate_partial(s)) {
        s.phase = ShardState::Phase::kDone;
        s.out.completed = true;
      } else {
        retry_or_drop(s);
      }
      if (!abort_status.ok()) break;
    }

    if (!abort_status.ok() || all_resolved) break;
    ::usleep(2000);
  }

  if (!abort_status.ok()) {
    KillRunning(shards);
    return abort_status;
  }

  // Merge phase: ascending shard index (the documented canonical
  // order; the algebra is order-free, the bytes we compare are not
  // allowed to depend on that).
  const std::uint64_t merge_start_ns = LD_OBS_NOW_NS();
  FleetSummary fleet;
  fleet.bundle_fingerprint = fingerprint;
  fleet.coverage.shard_count = options.shard_count;
  MetricsAccumulator merged(config_.metrics);
  const ShardState* first_survivor = nullptr;
  for (const ShardState& s : shards) {
    fleet.shards.push_back(s.out);
    if (s.phase != ShardState::Phase::kDone) {
      fleet.coverage.dropped_shards.push_back(s.out.shard_index);
      continue;
    }
    ++fleet.coverage.shards_merged;
    merged.MergeFrom(s.partial->metrics);
    if (first_survivor == nullptr) first_survivor = &s;
  }
  if (first_survivor == nullptr) {
    return InternalError("fleet: no shard survived; nothing to merge");
  }
  // Bundle-wide counters are replayed identically by every worker; the
  // lowest-index survivor speaks for the fleet.
  fleet.summary = first_survivor->partial->summary;
  fleet.summary.metrics = merged.Report();
  fleet.summary.metrics.ingest = fleet.summary.ingest;
  if (merge_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kFleetMergeMicros,
                       (LD_OBS_NOW_NS() - merge_start_ns) / 1000);
  }
  return fleet;
}

}  // namespace ld::fleet
