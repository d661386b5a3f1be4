// Streaming analyzer: the LogDiver pipeline with bounded memory.
//
// Production log bundles are tens of gigabytes; holding every parsed
// record is not an option on an analysis node.  StreamingAnalyzer
// consumes lines incrementally and retains only:
//   - the run builder's state (reconstruct.hpp): open and recently-ended
//     jobs, open runs, and the apids of recently terminated runs,
//   - terminated runs waiting for their attribution window to close,
//   - a rolling buffer of recent error tuples,
//   - O(aggregates) metric state (MetricsAccumulator).
//
// The caller advances a *watermark* — a promise that no further log line
// carries an earlier timestamp (minus a reorder slack the caller
// chooses).  A terminated run is classified once the watermark passes
// its death time plus the attribution + coalescing guard, and once no
// system incident the syslog parser still holds open could cover it;
// finalized runs fold into the metric accumulators and are dropped.
//
// The parsers are the batch parsers (syslog incident pairing included),
// the run join is the RunBuilder batch ReconstructRuns feeds (this class
// only ages its state out behind the watermark), and the coalescer is
// the one CoalesceEvents drives.  So a bundle replayed in claimed-time
// order (resume.hpp) yields the same AnalysisSummary as AnalyzeBundle —
// the same CSV bytes and PrintParseSummary text:
// tests/logdiver/driver_parity_test.cpp asserts it for batch,
// snapshotted streaming and the fleet on the clean bundle, damaged
// copies of it, and every catalog scenario.
#pragma once

#include <array>
#include <deque>
#include <string_view>
#include <vector>

#include "logdiver/alps_parser.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/correlate.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/reconstruct.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {

class StreamingAnalyzer {
 public:
  StreamingAnalyzer(const Machine& machine, LogDiverConfig config);

  /// Feeds one line.  Add takes the line with the parse its claim was
  /// made from (ClaimedTracker::Claim: the replay loop and the
  /// service's apply path, so no line is parsed twice); Add*Line parses
  /// the line itself.  Both count the line the same.
  void Add(ClaimedLine&& claimed);
  void AddTorqueLine(std::string_view line) {
    AddTorque(line, TorqueParser::Parse(line));
  }
  void AddAlpsLine(std::string_view line) {
    AddAlps(line, AlpsParser::Parse(line));
  }
  void AddSyslogLine(std::string_view line) {
    AddSyslog(line, SyslogParser::Parse(line));
  }
  void AddHwerrLine(std::string_view line) {
    AddHwerr(line, HwerrParser::Parse(line));
  }

  /// Finalizes every run that is provably classifiable before
  /// `watermark`; returns how many were finalized in this call.
  /// A watermark behind the furthest one seen is a broken promise
  /// (clock skew, replayed segment): it is clamped to the previous
  /// watermark and counted in IngestStats::watermark_regressions
  /// rather than allowed to re-open finalized state.
  std::size_t Advance(TimePoint watermark);

  /// Flushes all remaining state and returns the final summary;
  /// placements that never terminated are classified as unknown-outcome
  /// runs (reconstruct_stats.missing_termination).  The analyzer is
  /// spent afterwards: feeding lines, advancing, snapshotting or
  /// finalizing again is a programming error (LD_CHECK).
  AnalysisSummary Finalize();

  /// The checkpoint codec (snapshot.hpp) of the full retained state —
  /// parsers, coalescer, metric accumulators, quarantine, open/pending
  /// runs, tuple buffer, replay memory, ingest counters and the
  /// watermark.  Decoding into an analyzer constructed with the same
  /// machine and config continues the stream bit-identically to never
  /// having stopped (bench/crash_campaign asserts this; layout in
  /// docs/FORMATS.md).  A decode fails the reader on a layout version
  /// mismatch (FailedPrecondition) or a snapshot taken on a different
  /// machine geometry (InvalidArgument); the analyzer may be partially
  /// overwritten then and must be discarded.
  template <class Io>
  void Fields(Io& io);

  /// Retained-state sizes, for bounded-memory assertions and ops
  /// visibility.
  struct StateSize {
    std::size_t open_jobs = 0;
    std::size_t open_runs = 0;
    std::size_t pending_runs = 0;
    std::size_t buffered_tuples = 0;
    std::size_t open_tuples = 0;
  };
  StateSize state_size() const;

  std::uint64_t runs_finalized() const { return runs_finalized_; }

  /// The (possibly shard-filtered) metric accumulator — what a fleet
  /// worker ships as its mergeable partial aggregate.
  const MetricsAccumulator& metrics_accumulator() const { return metrics_; }
  /// Ingestion-health counters accumulated so far.
  IngestStats ingest_stats() const;
  /// Rejected lines captured with reasons (bounded).
  const QuarantineSink& quarantine() const { return quarantine_; }
  /// Error once a fail-fast error budget trips; the offending source's
  /// remaining lines are discarded (and counted) from then on.
  const Status& ingest_status() const { return ingest_status_; }

 private:
  void AddTorque(std::string_view line, TorqueParser::Parsed&& parsed);
  void AddAlps(std::string_view line, AlpsParser::Parsed&& parsed);
  void AddSyslog(std::string_view line, SyslogParser::Parsed&& parsed);
  void AddHwerr(std::string_view line, HwerrParser::Parsed&& parsed);
  /// Guard between a run's death and the moment every tuple that could
  /// explain it has provably been flushed.
  Duration FinalizeGuard() const;
  void ClassifyBatch(std::vector<AppRun>&& batch);
  void EvictOldState(TimePoint watermark);
  /// Enforces the bounded-growth caps on pending_ and tuple_buffer_.
  void EnforceBounds();
  /// Returns true when the source is still ingestible; otherwise counts
  /// the dropped line.  Rejected lines go to the quarantine.
  bool SourceOpen(LogSource source);
  /// Counts a Torque/ALPS/hwerr line's parse into `stats` and
  /// quarantines it when malformed; true when the line goes on to the
  /// pipeline (source open and the parse succeeded).
  template <typename Record>
  bool Accept(LogSource source, std::string_view line,
              const Result<std::optional<Record>>& parsed, ParseStats& stats);
  void Reject(LogSource source, std::uint64_t line_number,
              std::string_view line, const Status& why);
  void CheckBudget(LogSource source, const ParseStats& stats);

  const Machine& machine_;
  LogDiverConfig config_;

  ParseStats torque_stats_;
  ParseStats alps_stats_;
  SyslogParser syslog_parser_;
  ParseStats hwerr_stats_;
  StreamingCoalescer coalescer_;
  Correlator correlator_;
  MetricsAccumulator metrics_;
  QuarantineSink quarantine_;
  RunBuilder runs_;

  /// Terminated runs ordered by end time, waiting for the guard.
  std::deque<AppRun> pending_;  // kept sorted by end (stream order)
  /// Flushed tuples still inside some pending run's attribution reach.
  std::deque<ErrorTuple> tuple_buffer_;

  std::uint64_t runs_finalized_ = 0;
  /// Counters the analyzer owns; the replay counters live in runs_.
  IngestStats ingest_;
  Status ingest_status_;
  TimePoint last_watermark_;
  bool have_watermark_ = false;
  bool finalized_ = false;
  std::array<bool, kNumLogSources> source_closed_{};
  std::array<bool, kNumLogSources> budget_counted_{};
};

}  // namespace ld
