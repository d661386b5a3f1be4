#include "logdiver/streaming.hpp"

#include <algorithm>

#include "common/obs/obs.hpp"
#include "logdiver/snapshot.hpp"

namespace ld {
namespace {

/// Analyzer payload layout version; bump on any member-order or
/// encoding change (docs/FORMATS.md documents the current layout).
// Version 2: MetricsAccumulator state moved to integer node-second
// tallies and per-job queue-wait winners (the mergeable-aggregate
// refactor).  Version 3: the syslog parser's held incident follows its
// year-rollover state.  Version 4: the job index, open runs and replay
// memory are the RunBuilder's state, with its stats.  Version 5: job
// records no longer carry the job name.  Older snapshots are rejected
// and analysis restarts from the raw logs.
constexpr std::uint32_t kStreamStateVersion = 5;

}  // namespace

StreamingAnalyzer::StreamingAnalyzer(const Machine& machine,
                                     LogDiverConfig config)
    : machine_(machine),
      config_(std::move(config)),
      syslog_parser_(config_.syslog_base_year),
      coalescer_(machine, config_.coalesce),
      correlator_(machine, config_.correlator),
      metrics_(config_.metrics),
      quarantine_(config_.ingest.quarantine),
      runs_(machine) {}

Duration StreamingAnalyzer::FinalizeGuard() const {
  // A tuple explaining a death at D starts no later than
  // D + attribution_after; it is flushed once the watermark passes its
  // last event + tupling window.  One extra minute absorbs emitter
  // timestamp jitter.
  return config_.correlator.attribution_after +
         config_.coalesce.tupling_window + Duration::Seconds(60);
}

bool StreamingAnalyzer::SourceOpen(LogSource source) {
  if (!source_closed_[static_cast<std::size_t>(source)]) return true;
  ++ingest_.lines_dropped_after_budget;
  return false;
}

void StreamingAnalyzer::Reject(LogSource source, std::uint64_t line_number,
                               std::string_view line, const Status& why) {
  quarantine_.Add(source, line_number, line, why);
  ingest_.quarantined = quarantine_.total();
  ingest_.quarantine_overflow = quarantine_.overflow();
}

void StreamingAnalyzer::CheckBudget(LogSource source, const ParseStats& stats) {
  const auto idx = static_cast<std::size_t>(source);
  if (budget_counted_[idx] || !config_.ingest.budget.Exceeded(stats)) return;
  budget_counted_[idx] = true;
  ++ingest_.budget_exhausted_sources;
  if (config_.ingest.policy != DegradationPolicy::kFailFast) return;
  source_closed_[idx] = true;
  if (ingest_status_.ok()) {
    ingest_status_ =
        ParseError(std::string(LogSourceName(source)) + ": " +
                   std::to_string(stats.malformed) + " of " +
                   std::to_string(stats.lines) +
                   " lines malformed, over the error budget");
  }
}

template <typename Record>
bool StreamingAnalyzer::Accept(LogSource source, std::string_view line,
                               const Result<std::optional<Record>>& parsed,
                               ParseStats& stats) {
  if (!SourceOpen(source)) return false;
  stats.Count(parsed);
  if (parsed.ok()) return true;
  Reject(source, stats.lines, line, parsed.status());
  CheckBudget(source, stats);
  return false;
}

void StreamingAnalyzer::Add(ClaimedLine&& claimed) {
  auto& parsed = claimed.parsed;
  if (auto* p = std::get_if<TorqueParser::Parsed>(&parsed)) {
    AddTorque(claimed.line, std::move(*p));
  } else if (auto* p = std::get_if<AlpsParser::Parsed>(&parsed)) {
    AddAlps(claimed.line, std::move(*p));
  } else if (auto* p = std::get_if<SyslogParser::Parsed>(&parsed)) {
    AddSyslog(claimed.line, std::move(*p));
  } else if (auto* p = std::get_if<HwerrParser::Parsed>(&parsed)) {
    AddHwerr(claimed.line, std::move(*p));
  } else {
    LD_CHECK(false, "Add of a line without a parse");
  }
}

void StreamingAnalyzer::AddTorque(std::string_view line,
                                  TorqueParser::Parsed&& parsed) {
  LD_CHECK(!finalized_, "AddTorque on a finalized analyzer");
  if (!Accept(LogSource::kTorque, line, parsed, torque_stats_)) return;
  if (parsed->has_value()) runs_.AddJob(**parsed);
}

void StreamingAnalyzer::AddAlps(std::string_view line,
                                AlpsParser::Parsed&& parsed) {
  LD_CHECK(!finalized_, "AddAlps on a finalized analyzer");
  if (!Accept(LogSource::kAlps, line, parsed, alps_stats_)) return;
  if (!parsed->has_value()) return;
  AlpsRecord& record = **parsed;
  if (record.kind == AlpsRecord::Kind::kPlace) {
    runs_.AddPlacement(std::move(record));
    return;
  }
  // A completed run waits in pending_ for its attribution guard.
  if (auto run = runs_.AddTermination(record)) {
    pending_.push_back(std::move(*run));
    EnforceBounds();
  }
}

void StreamingAnalyzer::AddSyslog(std::string_view line,
                                  SyslogParser::Parsed&& parsed) {
  LD_CHECK(!finalized_, "AddSyslog on a finalized analyzer");
  if (!SourceOpen(LogSource::kSyslog)) return;
  auto rec = syslog_parser_.Apply(std::move(parsed));
  if (!rec.ok()) {
    Reject(LogSource::kSyslog, syslog_parser_.stats().lines, line,
           rec.status());
    CheckBudget(LogSource::kSyslog, syslog_parser_.stats());
    return;
  }
  // A system incident arrives once, closed, when its recovery line does.
  if (rec->has_value()) coalescer_.Add(**rec);
}

void StreamingAnalyzer::AddHwerr(std::string_view line,
                                 HwerrParser::Parsed&& parsed) {
  LD_CHECK(!finalized_, "AddHwerr on a finalized analyzer");
  if (!Accept(LogSource::kHwerr, line, parsed, hwerr_stats_)) return;
  if (parsed->has_value()) coalescer_.Add(**parsed);
}

void StreamingAnalyzer::ClassifyBatch(std::vector<AppRun>&& batch) {
  if (batch.empty()) return;
  const std::vector<ErrorTuple> tuples(tuple_buffer_.begin(),
                                       tuple_buffer_.end());
  const std::vector<ClassifiedRun> classified =
      correlator_.Classify(batch, tuples);
  // Classification context (tuple buffer, batch composition) is the
  // same on every fleet worker; only the fold into the accumulator is
  // ownership-filtered, so shard partials merge without double counting.
  for (const ClassifiedRun& cls : classified) {
    if (config_.shard.OwnsRun(batch[cls.run_index].apid)) {
      metrics_.AddRun(batch[cls.run_index], cls);
    }
  }
  LD_OBS_COUNTER_ADD(obs::names::kStreamRunsFinalizedTotal, batch.size());
  runs_finalized_ += batch.size();
}

void StreamingAnalyzer::EnforceBounds() {
  // pending_ is capped by force-classifying the oldest runs before their
  // guard elapses.  Nothing is lost outright — the run is classified with
  // whatever tuples are buffered now — but a tuple still in flight can no
  // longer explain it, so the eviction is disclosed.
  const std::size_t max_pending = config_.ingest.max_pending_runs;
  if (max_pending != 0 && pending_.size() > max_pending) {
    std::vector<AppRun> batch;
    while (pending_.size() > max_pending) {
      batch.push_back(std::move(pending_.front()));
      pending_.pop_front();
      ++ingest_.evicted_pending_runs;
      LD_OBS_COUNTER_ADD(obs::names::kStreamEvictedRunsTotal, 1);
    }
    ClassifyBatch(std::move(batch));
  }
  // Evicted tuples were already counted into the metrics at flush time;
  // only their attribution reach is lost.
  const std::size_t max_tuples = config_.ingest.max_buffered_tuples;
  if (max_tuples != 0) {
    while (tuple_buffer_.size() > max_tuples) {
      tuple_buffer_.pop_front();
      ++ingest_.evicted_tuples;
      LD_OBS_COUNTER_ADD(obs::names::kStreamEvictedTuplesTotal, 1);
    }
  }
}

void StreamingAnalyzer::EvictOldState(TimePoint watermark) {
  // Tuples whose whole attribution reach lies behind every run we could
  // still finalize are dead weight.
  const Duration reach = config_.correlator.attribution_before +
                         FinalizeGuard() + FinalizeGuard();
  while (!tuple_buffer_.empty()) {
    const ErrorTuple& tuple = tuple_buffer_.front();
    const TimePoint influence_end =
        tuple.ImpactWindow().end + config_.correlator.incident_slack;
    if (std::max(tuple.first + config_.correlator.attribution_before,
                 influence_end) +
            reach <
        watermark) {
      tuple_buffer_.pop_front();
    } else {
      break;
    }
  }
  // Terminated-apid memory (replay detection) ages out once a replay
  // could no longer be confused with live data.  Job records are only
  // needed while a run of theirs can still arrive; E-recorded jobs are
  // safe to drop well after their end.
  runs_.Forget(watermark - FinalizeGuard() - FinalizeGuard(),
               watermark - Duration::Hours(2));
}

std::size_t StreamingAnalyzer::Advance(TimePoint watermark) {
  LD_CHECK(!finalized_, "Advance on a finalized analyzer");
  LD_OBS_COUNTER_ADD(obs::names::kStreamAdvancesTotal, 1);
  // 0. A watermark behind the furthest promise already made would re-open
  //    finalized state; clamp it and count the broken promise.
  if (have_watermark_ && watermark < last_watermark_) {
    ++ingest_.watermark_regressions;
    watermark = last_watermark_;
  } else {
    last_watermark_ = watermark;
    have_watermark_ = true;
  }

  // 1. Close coalescer windows and buffer the flushed tuples.  Tuple
  //    ids are assigned deterministically by the coalescer (identical
  //    on every fleet worker), so `id % shard_count` is a consistent
  //    disjoint ownership partition.
  for (ErrorTuple& tuple : coalescer_.Flush(watermark)) {
    if (config_.shard.OwnsTuple(tuple.id)) metrics_.AddTuple(tuple);
    tuple_buffer_.push_back(std::move(tuple));
  }
  EnforceBounds();

  // 2. Finalize pending runs whose guard has passed and that no open
  //    incident could still explain.
  const auto open_incident = syslog_parser_.held_incident_start();
  std::vector<AppRun> batch;
  while (!pending_.empty()) {
    const AppRun& run = pending_.front();
    if (run.end + FinalizeGuard() >= watermark) break;
    if (open_incident.has_value() &&
        *open_incident <= run.end + config_.correlator.incident_slack) {
      break;  // an unresolved incident might cover this death
    }
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
  }
  const std::size_t finalized = batch.size();
  ClassifyBatch(std::move(batch));
  EvictOldState(watermark);
  return finalized;
}

IngestStats StreamingAnalyzer::ingest_stats() const {
  IngestStats ingest = ingest_;
  CopyReplayCounts(runs_.stats(), ingest);
  return ingest;
}

AnalysisSummary StreamingAnalyzer::Finalize() {
  LD_CHECK(!finalized_, "Finalize called twice — the analyzer is spent");
  finalized_ = true;
  // Close a still-held incident, flush every tuple, then classify every
  // remaining terminated run.
  if (auto incident = syslog_parser_.FinishOpenIncident()) {
    coalescer_.Add(*incident);
  }
  for (ErrorTuple& tuple : coalescer_.FlushAll()) {
    if (config_.shard.OwnsTuple(tuple.id)) metrics_.AddTuple(tuple);
    tuple_buffer_.push_back(std::move(tuple));
  }
  std::vector<AppRun> batch(std::make_move_iterator(pending_.begin()),
                            std::make_move_iterator(pending_.end()));
  pending_.clear();
  LD_OBS_SPAN("stream/finalize");
  // Placements that never terminated surface as unknown-outcome runs,
  // exactly as in the batch pipeline.
  for (AppRun& run : runs_.TakeUnterminated()) batch.push_back(std::move(run));
  ClassifyBatch(std::move(batch));

  AnalysisSummary summary;
  summary.metrics = metrics_.Report();
  summary.torque_stats = torque_stats_;
  summary.alps_stats = alps_stats_;
  summary.syslog_stats = syslog_parser_.stats();
  summary.hwerr_stats = hwerr_stats_;
  summary.coalesce_stats = coalescer_.stats();
  summary.reconstruct_stats = runs_.stats();
  summary.ingest = ingest_stats();
  summary.ingest_status = ingest_status_;
  summary.metrics.ingest = summary.ingest;
  return summary;
}

template <class Io>
void StreamingAnalyzer::Fields(Io& io) {
  LD_CHECK(!finalized_, "snapshot codec on a finalized analyzer");
  io.Version(kStreamStateVersion, "snapshot stream-state");
  // Geometry sanity: restoring against a different machine would
  // silently misclassify node types.
  std::uint64_t node_count = machine_.node_count();
  io(node_count);
  if constexpr (Io::kReading) {
    if (io.ok() && node_count != machine_.node_count()) {
      io.Fail(InvalidArgumentError(
          "snapshot was taken on a machine with " +
          std::to_string(node_count) + " nodes, this machine has " +
          std::to_string(machine_.node_count())));
    }
  }

  SyslogParser::StreamState syslog = syslog_parser_.stream_state();
  io(torque_stats_, alps_stats_, syslog.stats, syslog.current_year,
     syslog.last_month, syslog.held_incident, hwerr_stats_);
  if constexpr (Io::kReading) syslog_parser_.RestoreStreamState(syslog);

  io(coalescer_, quarantine_, metrics_, runs_);
  Seq<std::uint64_t>(io, pending_);
  Seq<std::uint64_t>(io, tuple_buffer_);
  io(runs_finalized_, ingest_, ingest_status_, last_watermark_,
     have_watermark_, source_closed_, budget_counted_);
}

template void StreamingAnalyzer::Fields(SnapshotWriter&);
template void StreamingAnalyzer::Fields(SnapshotReader&);

StreamingAnalyzer::StateSize StreamingAnalyzer::state_size() const {
  StateSize size;
  size.open_jobs = runs_.job_count();
  size.open_runs = runs_.open_run_count();
  size.pending_runs = pending_.size();
  size.buffered_tuples = tuple_buffer_.size();
  size.open_tuples = coalescer_.open_tuples();
  return size;
}

}  // namespace ld
