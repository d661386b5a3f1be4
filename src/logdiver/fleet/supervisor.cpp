#include "logdiver/fleet/supervisor.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <optional>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/supervise.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/streaming.hpp"

namespace ld::fleet {
namespace {

namespace fs = std::filesystem;

std::string PartialPathFor(const FleetOptions& options, std::uint32_t shard) {
  char name[64];
  std::snprintf(name, sizeof(name), "partial-%04u.ldsnap", shard);
  return options.partial_dir + "/" + name;
}

/// Everything the forked worker does: arm injected faults, replay the
/// bundle lines it inherited from the parent shard-filtered, write the
/// partial, optionally corrupt it.  Exit codes: 0 success, 1 internal
/// error, 3 ingest budget tripped (an ordinary failure the supervisor
/// must pass through, not retry).
int RunWorkerProcess(const Machine& machine, LogDiverConfig config,
                     const LogSetView& lines, const FleetOptions& options,
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
  ReplayLines(lines, config, ReplaySchedule{}, analyzer);
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

}  // namespace

std::string FleetCoverage::Row() const {
  std::string row = "fleet coverage: " + std::to_string(shards_merged) + "/" +
                    std::to_string(shard_count) + " shards merged";
  if (!dropped_shards.empty()) {
    row += " (dropped:";
    for (std::uint32_t shard : dropped_shards) {
      row += ' ';
      row += std::to_string(shard);
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
  // One load: the parent fingerprints the lines it maps, and every
  // forked worker replays those same inherited views.
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle, LoadBundle(inputs, nullptr));
  const std::uint64_t fingerprint =
      cache::LinesFingerprint(bundle.views, options.shard_count);

  std::vector<ShardOutcome> outcomes(options.shard_count);
  std::vector<std::optional<PartialAggregates>> partials(options.shard_count);
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    outcomes[i].shard_index = i;
  }
  std::uint32_t dropped_count = 0;

  // Exit 0 only earns a merge slot after the partial validates: CRC
  // and framing (ReadPartialFile), then fingerprint and shard identity
  // — a torn, foreign or misnumbered partial is a failed attempt.
  const auto validate_partial = [&](std::uint32_t shard) -> bool {
    auto partial =
        ReadPartialFile(PartialPathFor(options, shard), config_.metrics);
    if (partial.ok() && partial->header.fingerprint != fingerprint) {
      partial = ParseError("partial fingerprints a different bundle "
                           "partition");
    }
    if (partial.ok() && (partial->header.shard_index != shard ||
                         partial->header.shard_count !=
                             options.shard_count)) {
      partial = ParseError("partial claims a different shard identity");
    }
    if (!partial.ok()) {
      ++outcomes[shard].partials_rejected;
      LD_OBS_COUNTER_ADD(obs::names::kFleetPartialsRejectedTotal, 1);
      std::fprintf(stderr, "[fleet] shard %u: rejecting partial: %s\n",
                   shard, partial.status().message().c_str());
      return false;
    }
    partials[shard] = std::move(*partial);
    return true;
  };

  // The recovery policy over the shared loop's detection: validate a
  // clean exit, retry a crash or a rejected partial at once until
  // max_attempts, then drop the shard (kFailFast aborts on the first
  // drop; the degrade policy tolerates up to failure_budget).  An
  // ordinary failure (ingest budget, bad input) aborts unretried:
  // retrying cannot fix it.
  const auto judge = [&](std::size_t child, int attempt,
                         const ChildExit& exit) -> Result<Next> {
    const auto shard = static_cast<std::uint32_t>(child);
    ShardOutcome& out = outcomes[shard];
    out.attempts = attempt + 1;
    if (exit.hung) {
      ++out.hangs_killed;
      LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerHangsKilledTotal, 1);
    }
    if (exit.crashed) {
      ++out.crashes;
      LD_OBS_COUNTER_ADD(obs::names::kFleetWorkerCrashesTotal, 1);
    } else if (exit.code != 0) {
      return FailedPreconditionError(
          "fleet: shard " + std::to_string(shard) +
          " failed ordinarily (exit " + std::to_string(exit.code) +
          "); see its stderr");
    } else if (validate_partial(shard)) {
      out.completed = true;
      return Next::kDone;
    }
    if (out.attempts < options.max_attempts) {
      LD_OBS_COUNTER_ADD(obs::names::kFleetRetriesTotal, 1);
      LD_OBS_COUNTER_ADD(obs::names::kFleetWorkersSpawnedTotal, 1);
      return Next::kRetry;
    }
    out.dropped = true;
    ++dropped_count;
    LD_OBS_COUNTER_ADD(obs::names::kFleetShardsDroppedTotal, 1);
    if (options.policy == DegradationPolicy::kFailFast) {
      return FailedPreconditionError(
          "fleet: shard " + std::to_string(shard) + " exhausted its " +
          std::to_string(options.max_attempts) +
          " attempts (fail-fast policy)");
    }
    if (dropped_count > options.failure_budget) {
      return OutOfRangeError(
          "fleet: failure budget exhausted (" +
          std::to_string(dropped_count) + " shards dropped, budget " +
          std::to_string(options.failure_budget) + ")");
    }
    return Next::kDone;
  };

  LD_OBS_COUNTER_ADD(obs::names::kFleetWorkersSpawnedTotal,
                     options.shard_count);
  LD_TRY(Supervise(
      options.shard_count, options.shard_timeout_ms,
      [&](std::size_t child, int attempt) {
        return RunWorkerProcess(machine_, config_, bundle.views, options,
                                fingerprint, static_cast<std::uint32_t>(child),
                                attempt);
      },
      judge));

  // Merge phase: ascending shard index (the documented canonical
  // order; the algebra is order-free, the bytes we compare are not
  // allowed to depend on that).
  const std::uint64_t merge_start_ns = obs::NowNanos();
  FleetSummary fleet;
  fleet.bundle_fingerprint = fingerprint;
  fleet.coverage.shard_count = options.shard_count;
  MetricsAccumulator merged(config_.metrics);
  const PartialAggregates* first_survivor = nullptr;
  for (std::uint32_t i = 0; i < options.shard_count; ++i) {
    if (!partials[i].has_value()) {
      fleet.coverage.dropped_shards.push_back(i);
      continue;
    }
    ++fleet.coverage.shards_merged;
    merged.MergeFrom(partials[i]->metrics);
    if (first_survivor == nullptr) first_survivor = &*partials[i];
  }
  if (first_survivor == nullptr) {
    return InternalError("fleet: no shard survived; nothing to merge");
  }
  // Bundle-wide counters are replayed identically by every worker; the
  // lowest-index survivor speaks for the fleet.
  fleet.summary = first_survivor->summary;
  fleet.shards = std::move(outcomes);
  fleet.summary.metrics = merged.Report();
  fleet.summary.metrics.ingest = fleet.summary.ingest;
  LD_OBS_HIST_RECORD(obs::names::kFleetMergeMicros,
                     (obs::NowNanos() - merge_start_ns) / 1000);
  return fleet;
}

}  // namespace ld::fleet
