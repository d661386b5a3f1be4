#include "logdiver/resume.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/obs/obs.hpp"
#include "common/parallel.hpp"
#include "common/supervise.hpp"
#include "logdiver/cache/bundle_cache.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// Resume payload layout version: the per-source replay offsets and
/// claim carries wrap the analyzer state (docs/FORMATS.md "snapshot —
/// analyzer checkpoint files").  Version 2 stores the carries.
constexpr std::uint32_t kResumeStateVersion = 2;

/// The resume payload's one codec.
template <class Io>
void ResumePayload(Io& io, std::uint64_t (&heads)[kNumLogSources],
                   ClaimedTracker& tracker, StreamingAnalyzer& analyzer) {
  io.Version(kResumeStateVersion, "snapshot resume-state");
  io(heads, tracker, analyzer);
}

/// One source's pure parse of its line `i`: what the replay loop's
/// OrderedAhead makes ahead of the merge.
struct SourceParse {
  LogSource source;
  std::span<const std::string_view> lines;
  LineParse operator()(std::size_t i) const {
    return ClaimedTracker::Parse(source, lines[i]);
  }
};

/// Blocks each source parses ahead of the merge.  The four sources
/// interleave, so two apiece keep the pool busy.
constexpr std::size_t kReplayAheadBlocks = 2;

/// The deterministic merge-replay loop behind every replay entry point.
/// Each source has one head, its next unconsumed line, parsed once and
/// claimed from that parse (ClaimedTracker::Claim).  The head with the
/// earliest claimed time wins (strict `<` ties toward the lowest source
/// index) and its parse goes on to the analyzer; watermarks advance on
/// the total-line schedule.  Every source's parses run ahead of the loop
/// (OrderedAhead; inline without a pool of more than one thread);
/// claims, the merge, the analyzer (the syslog parser's stateful Apply
/// among it) and `on_line` stay on this thread, line by line, so the
/// pool changes no result.
/// `heads`/`total` and `consumed`, the carries of the lines before the
/// heads, come in restored (a resumed pass) and go out at the final
/// positions.  The heads are claimed on a copy of `consumed`, so it
/// never holds the claim of a line still waiting in the merge: a
/// resumed pass claims each head once, from the carry the
/// uninterrupted pass claimed it from.  `on_line` (optional) runs after
/// every consumed line — the resumable path hangs its snapshot schedule
/// there.
void ReplayLoop(const LogSetView& lines, ThreadPool* pool,
                StreamingAnalyzer& analyzer, const ReplaySchedule& schedule,
                std::uint64_t heads[kNumLogSources], ClaimedTracker& consumed,
                std::uint64_t& total,
                const std::function<Status(std::uint64_t total)>& on_line,
                Status& status) {
  std::span<const std::string_view> source_lines[kNumLogSources];
  std::optional<OrderedAhead<SourceParse>> ahead[kNumLogSources];
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const auto source = static_cast<LogSource>(s);
    source_lines[s] = lines.lines(source);
    ahead[s].emplace(pool, kReplayAheadBlocks, heads[s],
                     source_lines[s].size(),
                     SourceParse{source, source_lines[s]});
  }

  ClaimedTracker tracker = consumed;
  ClaimedLine head[kNumLogSources];
  const auto load_head = [&](std::size_t s) {
    const auto source = static_cast<LogSource>(s);
    // The carry now holds the claim of the line just consumed.
    consumed.TakeCarry(source, tracker);
    if (heads[s] >= source_lines[s].size()) return;
    head[s] = tracker.Claim(source, source_lines[s][heads[s]],
                            ahead[s]->Take(heads[s]));
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
  ConfiguredPool pool(config.threads);
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle,
                      LoadBundle(inputs, pool.get()));
  return ReplayLines(bundle.views, config, schedule, analyzer, pool.get());
}

std::uint64_t ReplayLines(const LogSetView& lines, const LogDiverConfig& config,
                          const ReplaySchedule& schedule,
                          StreamingAnalyzer& analyzer, ThreadPool* pool) {
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  ClaimedTracker tracker(config.syslog_base_year);
  std::uint64_t total = 0;
  Status status;
  ReplayLoop(lines, pool, analyzer, schedule, heads, tracker, total, nullptr,
             status);
  return total;
}

Result<ResumableSummary> RunResumableAnalysis(const Machine& machine,
                                              const LogDiverConfig& config,
                                              const StreamInputs& inputs,
                                              const ResumeOptions& options) {
  // The pool lives and dies inside this call: a supervised child has no
  // thread alive at any fork.
  ConfiguredPool pool(config.threads);
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle,
                      LoadBundle(inputs, pool.get()));
  const LogSetView& views = bundle.views;

  auto analyzer = std::make_unique<StreamingAnalyzer>(machine, config);
  ClaimedTracker tracker(config.syslog_base_year);
  ResumableSummary out;
  std::uint64_t heads[kNumLogSources] = {0, 0, 0, 0};
  std::uint64_t total = 0;

  const bool snapshots_enabled =
      !options.snapshot_dir.empty() && options.snapshot_interval != 0;
  SnapshotStore store(options.snapshot_dir, options.keep_generations);

  // The bundle's identity stamps and gates snapshots; without a
  // snapshot directory nothing reads it.  With a generation to resume
  // from it gates the load, so it comes first; otherwise only the first
  // snapshot write reads it, and it is computed on the pool beside the
  // replay.  `fingerprinting` outlives no value its task touches, so an
  // early return drains the task first.
  std::uint64_t fingerprint = 0;
  TaskGroup fingerprinting(pool.get());
  const auto fingerprint_bundle = [&fingerprint, &views] {
    fingerprint = cache::LinesFingerprint(views, 0);
  };
  const bool resuming = !options.snapshot_dir.empty() && options.resume &&
                        !store.Generations().empty();
  if (resuming) {
    fingerprint_bundle();
    // Fingerprint-gated: a snapshot of a *different* bundle in this
    // directory is rejected and skipped like a torn one, and so is one
    // that does not decode.  Each generation decodes into a fresh
    // analyzer, kept only once the whole payload has decoded.
    auto loaded = store.LoadLatest(
        fingerprint, [&](std::span<const std::uint8_t> payload) -> Status {
          auto restored = std::make_unique<StreamingAnalyzer>(machine, config);
          ClaimedTracker carries(config.syslog_base_year);
          std::uint64_t offsets[kNumLogSources] = {};
          SnapshotReader r(payload);
          ResumePayload(r, offsets, carries, *restored);
          LD_TRY(r.Finish());
          for (std::size_t s = 0; s < kNumLogSources; ++s) {
            if (offsets[s] > views.lines(static_cast<LogSource>(s)).size()) {
              return FailedPreconditionError(
                  "snapshot records an offset past the end of " +
                  std::string(LogSourceName(static_cast<LogSource>(s))) +
                  " — it belongs to a different bundle");
            }
          }
          analyzer = std::move(restored);
          tracker = carries;
          std::copy(std::begin(offsets), std::end(offsets), heads);
          return Status::Ok();
        });
    if (loaded.ok()) {
      out.snapshots_rejected = loaded->rejected;
      for (const std::uint64_t head : heads) total += head;
      out.resumed_generation = loaded->generation;
      out.lines_skipped = total;
      LD_OBS_COUNTER_ADD(obs::names::kResumeLinesSkippedTotal, total);
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  } else if (!options.snapshot_dir.empty()) {
    fingerprinting.Run(fingerprint_bundle);
  }

  LD_OBS_SPAN("resume/replay");
  // Both schedules key off the *total* line count, which the restored
  // offsets reproduce exactly — a resumed pass advances and snapshots
  // at the same lines an uninterrupted one would.
  Status replay_status;
  ReplayLoop(
      views, pool.get(), *analyzer, options.schedule, heads, tracker, total,
      [&](std::uint64_t total_now) -> Status {
        if (!snapshots_enabled || total_now % options.snapshot_interval != 0) {
          return Status::Ok();
        }
        fingerprinting.Wait();
        SnapshotWriter w;
        ResumePayload(w, heads, tracker, *analyzer);
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
  out.summary = analyzer->Finalize();
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
