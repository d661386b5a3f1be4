#include "logdiver/resume.hpp"

#include <span>
#include <string_view>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/supervise.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// Resume payload layout: the per-source replay offsets wrap the
/// analyzer state (docs/FORMATS.md "snapshot — analyzer checkpoint
/// files").
constexpr std::uint32_t kResumeStateVersion = 1;

/// The deterministic merge-replay loop behind every replay entry point.
/// Each source has one head, its next unconsumed line, parsed once and
/// claimed from that parse (ClaimedTracker::ParseAndClaim).  The head
/// with the earliest claimed time wins (strict `<` ties toward the
/// lowest source index) and its parse goes on to the analyzer;
/// watermarks advance on the total-line schedule.  `heads`/`total`
/// carry restored offsets in and final positions out — a resumed pass
/// first rebuilds each source's carried claim by claiming the prefix the
/// snapshot covered, so the merge order never depends on restored state.
/// `on_line` (optional) runs after every consumed line — the resumable
/// path hangs its snapshot schedule there.
void ReplayLoop(const LogSetView& lines, int syslog_base_year,
                StreamingAnalyzer& analyzer, const ReplaySchedule& schedule,
                std::uint64_t heads[kNumLogSources], std::uint64_t& total,
                const std::function<Status(std::uint64_t total)>& on_line,
                Status& status) {
  ClaimedTracker tracker(syslog_base_year);
  std::span<const std::string_view> source_lines[kNumLogSources];
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const auto source = static_cast<LogSource>(s);
    source_lines[s] = lines.lines(source);
    for (std::uint64_t i = 0; i < heads[s]; ++i) {
      tracker.ParseAndClaim(source, source_lines[s][i]);
    }
  }

  ClaimedLine head[kNumLogSources];
  const auto load_head = [&](std::size_t s) {
    if (heads[s] >= source_lines[s].size()) return;
    head[s] = tracker.ParseAndClaim(static_cast<LogSource>(s),
                                    source_lines[s][heads[s]]);
  };
  for (std::size_t s = 0; s < kNumLogSources; ++s) load_head(s);

  for (;;) {
    int pick = -1;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      if (heads[s] >= source_lines[s].size()) continue;
      if (pick < 0 || head[s].claimed < head[pick].claimed) {
        pick = static_cast<int>(s);
      }
    }
    if (pick < 0) break;
    const TimePoint time = head[pick].claimed;
    analyzer.Add(std::move(head[pick]));
    ++heads[pick];
    ++total;
    load_head(static_cast<std::size_t>(pick));
    CrashPoint("ingest");
    if (schedule.advance_every != 0 && total % schedule.advance_every == 0) {
      analyzer.Advance(time - schedule.reorder_slack);
    }
    if (on_line) {
      status = on_line(total);
      if (!status.ok()) return;
    }
  }
}

}  // namespace

Result<std::uint64_t> BundlePartitionFingerprint(const StreamInputs& inputs,
                                                 std::uint32_t shard_count) {
  // The parsed-bundle cache's fingerprint over the shared loader's lines,
  // so snapshot headers and cache entries can never disagree about a
  // bundle's identity.
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle, LoadBundle(inputs, nullptr));
  return cache::LinesFingerprint(bundle.views, shard_count);
}

Result<std::uint64_t> ReplayBundle(const LogDiverConfig& config,
                                   const StreamInputs& inputs,
                                   const ReplaySchedule& schedule,
                                   StreamingAnalyzer& analyzer) {
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle, LoadBundle(inputs, nullptr));
  return ReplayLines(bundle.views, config, schedule, analyzer);
}

std::uint64_t ReplayLines(const LogSetView& lines, const LogDiverConfig& config,
                          const ReplaySchedule& schedule,
                          StreamingAnalyzer& analyzer) {
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;
  Status status;
  ReplayLoop(lines, config.syslog_base_year, analyzer, schedule, heads, total,
             nullptr, status);
  return total;
}

Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options) {
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle, LoadBundle(inputs, nullptr));
  const LogSetView& views = bundle.views;
  // The bundle's identity stamps and gates snapshots; without a
  // snapshot directory nothing reads it.
  const std::uint64_t fingerprint =
      options.snapshot_dir.empty() ? 0 : cache::LinesFingerprint(views, 0);

  StreamingAnalyzer analyzer(machine, config);
  ResumableSummary out;
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;

  const bool snapshots_enabled =
      !options.snapshot_dir.empty() && options.snapshot_interval != 0;
  SnapshotStore store(options.snapshot_dir, options.keep_generations);

  if (!options.snapshot_dir.empty() && options.resume) {
    // Fingerprint-gated: a snapshot of a *different* bundle in this
    // directory is rejected and skipped like a torn one.
    auto loaded = store.LoadLatest(fingerprint);
    if (loaded.ok()) {
      out.snapshots_rejected = loaded->rejected;
      SnapshotReader r(loaded->payload);
      const std::uint32_t version = r.U32();
      if (!r.ok()) return r.status();
      if (version != kResumeStateVersion) {
        return FailedPreconditionError(
            "snapshot resume-state version " + std::to_string(version) +
            ", this build speaks " + std::to_string(kResumeStateVersion));
      }
      for (std::uint64_t& head : heads) head = r.U64();
      LD_TRY(analyzer.Restore(r));
      for (std::size_t s = 0; s < kNumLogSources; ++s) {
        if (heads[s] > views.lines(static_cast<LogSource>(s)).size()) {
          return FailedPreconditionError(
              "snapshot records an offset past the end of " +
              std::string(LogSourceName(static_cast<LogSource>(s))) +
              " — it belongs to a different bundle");
        }
        total += heads[s];
      }
      out.resumed_generation = loaded->generation;
      out.lines_skipped = total;
      LD_OBS_COUNTER_ADD(obs::names::kResumeLinesSkippedTotal, total);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }

  LD_OBS_SPAN("resume/replay");
  // Both schedules key off the *total* line count, which the restored
  // offsets reproduce exactly — a resumed pass advances and snapshots
  // at the same lines an uninterrupted one would.
  Status replay_status;
  ReplayLoop(
      views, config.syslog_base_year, analyzer, options.schedule, heads, total,
      [&](std::uint64_t total_now) -> Status {
        if (!snapshots_enabled || total_now % options.snapshot_interval != 0) {
          return Status::Ok();
        }
        SnapshotWriter w;
        w.U32(kResumeStateVersion);
        for (std::uint64_t head : heads) w.U64(head);
        analyzer.Snapshot(w);
        LD_TRY(store.Write(w.bytes(), fingerprint));
        ++out.snapshots_written;
        CrashPoint("snapshot");
        return Status::Ok();
      },
      replay_status);
  LD_TRY(replay_status);

  // Bulk counters once per pass, never per merged line (obs.hpp
  // granularity rule): streamed = lines actually replayed this attempt.
  LD_OBS_COUNTER_ADD(obs::names::kResumeLinesStreamedTotal,
                     total - out.lines_skipped);
  out.summary = analyzer.Finalize();
  out.total_lines = total;
  return out;
}

CrashSupervisor::Outcome CrashSupervisor::Run(
    const std::function<int(int attempt)>& child, const Options& options) {
  Outcome out;
  const Status supervised = Supervise(
      1, options.timeout_ms,
      [&](std::size_t, int attempt) { return child(attempt); },
      [&](std::size_t, int attempt, const ChildExit& exit) -> Result<Next> {
        out.attempts = attempt + 1;
        out.exit_code = exit.code;
        if (exit.hung) ++out.hangs_killed;
        if (!exit.crashed) return Next::kDone;
        ++out.crashes;
        if (out.crashes > options.max_restarts) {
          out.exhausted = true;
          return Next::kDone;
        }
        return Next::kRetry;
      });
  if (!supervised.ok()) out.exit_code = -1;
  return out;
}

}  // namespace ld
