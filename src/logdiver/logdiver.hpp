// LogDiver facade: parse -> coalesce -> reconstruct -> classify ->
// metrics, over an in-memory log set or an on-disk bundle directory.
//
// This is the public entry point a downstream user reaches for:
//
//   ld::Machine machine = ld::Machine::BlueWaters();
//   ld::LogDiver diver(machine, {});
//   auto analysis = diver.AnalyzeBundle("/data/bw-logs");
//   if (analysis.ok()) Print(analysis->metrics);
//
// The batch path is deterministically parallel: each source's lines are
// parsed in chunks across a fixed-size thread pool and reduced in
// original order, so the AnalysisResult is bit-identical at any thread
// count (see DESIGN.md "Parallel ingestion").  `LogDiverConfig::threads`
// (0 = auto: LOGDIVER_THREADS env, else hardware concurrency) sizes the
// pool.  The streaming/resume path keeps its state on one thread — its
// snapshot cut points are defined per consumed line — and uses the pool
// only to parse Torque/ALPS/hwerr lines ahead of that thread
// (resume.hpp).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/correlate.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/reconstruct.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"
#include "topology/machine.hpp"

namespace ld {

/// Ownership filter for multi-process scale-out (src/logdiver/fleet).
/// With count > 1 the analyzer still ingests the whole stream — parsing,
/// coalescing and the classification context stay bit-identical on
/// every worker — but folds only its owned runs and tuples into the
/// metric accumulators.  Ownership is a disjoint partition (runs by
/// `apid % count`, tuples by coalescer-assigned `id % count`, both
/// deterministic), which is what makes per-shard accumulators
/// merge-exact (MetricsAccumulator::MergeFrom).
struct ShardSpec {
  std::uint32_t index = 0;
  std::uint32_t count = 1;
  bool active() const { return count > 1; }
  bool OwnsRun(ApId apid) const {
    return count <= 1 || apid % count == index;
  }
  bool OwnsTuple(std::uint64_t tuple_id) const {
    return count <= 1 || tuple_id % count == index;
  }
};

struct LogDiverConfig {
  /// Calendar year of the first syslog line (classic syslog timestamps
  /// carry no year; see SyslogParser).
  int syslog_base_year = 2013;
  /// Parse threads for the batch path and the streaming replay's
  /// parse-ahead (RunResumableAnalysis, ReplayBundle): 0 = auto
  /// (LOGDIVER_THREADS env, else hardware concurrency), 1 = sequential,
  /// N = pool of N.  The result is bit-identical for every value.
  int threads = 0;
  /// Lines per parse task; tests shrink it to force chunk boundaries on
  /// tiny streams.  0 means the default.
  std::size_t parse_chunk_lines = kDefaultParseChunkLines;
  CoalesceConfig coalesce;
  CorrelatorConfig correlator;
  MetricsConfig metrics;
  /// Degradation policy, error budgets, quarantine and streaming-state
  /// caps (see logdiver/quarantine.hpp and DESIGN.md).
  IngestConfig ingest;
  /// Metric-accumulation ownership for fleet workers; the default
  /// (count = 1) owns everything and is the serial analyzer.
  ShardSpec shard;
  /// Directory for the parsed-bundle cache (see logdiver/cache).  Empty
  /// disables caching.  AnalyzeBundle consults it before text-parsing
  /// and writes back after a miss; streaming and fleet analyses read
  /// no cache (they claim each line from its one parse).  A stale,
  /// foreign or torn entry is rejected (ld.cache.rejected_total) and
  /// the analysis falls back to the text parse — a cache can make a
  /// run faster, never different.
  std::string bundle_cache_dir;
  /// Byte-size cap for the bundle cache directory (0 = unbounded).
  /// When the cache grows past it, least-recently-used entries are
  /// evicted atomically (ld.cache.evicted_total); the CLI exposes it as
  /// --bundle-cache-max-mb.
  std::uint64_t bundle_cache_max_bytes = 0;
};

/// The four raw log streams LogDiver consumes.
struct LogSet {
  std::vector<std::string> torque;
  std::vector<std::string> alps;
  std::vector<std::string> syslog;
  std::vector<std::string> hwerr;
};

/// Non-owning view of the four streams: what the zero-copy bundle loader
/// produces (lines alias the file mappings) and what Analyze consumes.
struct LogSetView {
  std::vector<std::string_view> torque;
  std::vector<std::string_view> alps;
  std::vector<std::string_view> syslog;
  std::vector<std::string_view> hwerr;

  LogSetView() = default;
  /// Views into an owning LogSet (which must outlive the view).
  explicit LogSetView(const LogSet& logs);

  /// One source's lines, by LogSource index order.
  const std::vector<std::string_view>& lines(LogSource source) const {
    const std::vector<std::string_view>* columns[kNumLogSources] = {
        &torque, &alps, &syslog, &hwerr};
    return *columns[static_cast<std::size_t>(source)];
  }
};

/// The four log files of a bundle (each the newest segment of its
/// logrotate family).
struct StreamInputs {
  std::string torque_path;
  std::string alps_path;
  std::string syslog_path;
  std::string hwerr_path;
  /// Convenience: the standard bundle layout under `dir`.
  static StreamInputs FromBundleDir(const std::string& dir) {
    return {dir + "/torque.log", dir + "/alps.log", dir + "/syslog.log",
            dir + "/hwerr.log"};
  }
};

/// A bundle mapped into memory; the views alias `mappings`.
struct MappedBundle {
  std::vector<MappedFile> mappings;
  LogSetView views;
};

/// The one bundle loader, behind AnalyzeBundle, the streaming replay,
/// the fleet supervisor and BundlePartitionFingerprint: maps every segment
/// of each source's rotation family (RotationSegments, oldest first) and
/// splits it into lines (SplitLinesParallel on `pool`, inline when
/// null).  hwerr is optional: a missing hwerr file loads as an empty
/// stream; the other three are required.
Result<MappedBundle> LoadBundle(const StreamInputs& inputs, ThreadPool* pool);

/// Everything the parse phase produces, decoupled from the analysis
/// tail so the parsed-bundle cache can persist and restore it.  The
/// error stream holds syslog records first, hwerr appended — the exact
/// order the coalescer's tie-break keys on.
struct ParsedLogs {
  std::vector<TorqueRecord> torque;
  std::vector<AlpsRecord> alps;
  std::vector<ErrorRecord> errors;
  ParseStats torque_stats;
  ParseStats alps_stats;
  ParseStats syslog_stats;
  ParseStats hwerr_stats;
  QuarantineSink sink;
};

/// How the parsed-bundle cache participated in an analysis.
enum class CacheOutcome : std::uint8_t {
  kDisabled = 0,   // no cache dir configured
  kMiss,           // no usable entry; text parse ran, entry written
  kRejected,       // entry present but stale/foreign/torn; text parse ran
  kRecordsHit,     // parsed records loaded; analysis tail re-ran
  kHit,            // full hit: memoized result returned
};

/// The bundle-wide result every driver produces: batch AnalyzeBundle,
/// StreamingAnalyzer::Finalize (resume, logdiverd) and the fleet merge.
/// Drivers give the same bundle the same summary: the same CSV exports
/// and PrintParseSummary text (DriverParityViolations).
struct AnalysisSummary {
  MetricsReport metrics;

  ParseStats torque_stats;
  ParseStats alps_stats;
  ParseStats syslog_stats;
  ParseStats hwerr_stats;
  CoalesceStats coalesce_stats;
  ReconstructStats reconstruct_stats;

  /// Ingestion-health counters; all-zero on a clean bundle.  Mirrored
  /// into `metrics.ingest` so exports carry them.
  IngestStats ingest;
  /// Error when a fail-fast error budget tripped in a streaming pass;
  /// OK otherwise (batch returns the error instead of a result).
  Status ingest_status;
};

/// Copies the run builder's replay counters into the ingest counters.
inline void CopyReplayCounts(const ReconstructStats& stats,
                             IngestStats& ingest) {
  ingest.duplicate_placements = stats.duplicate_placements;
  ingest.duplicate_terminations = stats.duplicate_terminations;
  ingest.duplicate_job_records = stats.duplicate_job_records;
}

/// Batch AnalyzeBundle's result: the summary plus the per-run detail
/// only an in-memory pass keeps.
struct AnalysisResult : AnalysisSummary {
  std::vector<AppRun> runs;
  std::vector<ClassifiedRun> classified;
  std::vector<ErrorTuple> tuples;

  /// Rejected lines with reasons (bounded by the quarantine config).
  std::vector<QuarantineEntry> quarantine;

  /// Parsed-bundle cache participation (AnalyzeBundle only; the
  /// in-memory Analyze overloads always report kDisabled).
  CacheOutcome cache_outcome = CacheOutcome::kDisabled;
  /// Human-readable reason when an entry was rejected; the CLI prints
  /// it so a fallback to text parse is loud, never silent.
  std::string cache_note;
};

class LogDiver {
 public:
  LogDiver(const Machine& machine, LogDiverConfig config);

  /// Full pipeline over in-memory log lines.
  Result<AnalysisResult> Analyze(const LogSet& logs) const;

  /// Full pipeline over borrowed lines; the backing storage must stay
  /// alive for the duration of the call.
  Result<AnalysisResult> Analyze(const LogSetView& logs) const;

  /// Loads the bundle in `dir` (LoadBundle) and runs the pipeline.
  Result<AnalysisResult> AnalyzeBundle(const std::string& dir) const;

  /// The parse phase alone: chunk-parallel parse + ordered reduction of
  /// all four sources into ParsedLogs.  Budget checks happen in
  /// AnalyzeParsed so a cached ParsedLogs takes the identical path.
  Result<ParsedLogs> ParseLogs(const LogSetView& logs, ThreadPool* pool) const;

  /// The analysis tail: budget checks, coalesce, reconstruct, classify,
  /// metrics.  AnalyzeWith == ParseLogs + AnalyzeParsed; the bundle
  /// cache feeds restored ParsedLogs straight into this.
  Result<AnalysisResult> AnalyzeParsed(ParsedLogs&& parsed,
                                       ThreadPool* pool) const;

  const LogDiverConfig& config() const { return config_; }
  const Machine& machine() const { return machine_; }

 private:
  Result<AnalysisResult> AnalyzeWith(const LogSetView& logs,
                                     ThreadPool* pool) const;

  const Machine& machine_;
  LogDiverConfig config_;
};

/// Reads one whole text file into owned lines (the block reader's line
/// semantics); bundles load through LoadBundle instead.
Result<std::vector<std::string>> ReadLines(const std::string& path);

/// Resolves a logrotate family to its segment paths, oldest first
/// (base.N ... base.1, base).  Fails with NotFound when `base` itself is
/// missing, and with a distinct "rotation gap" NotFound when a middle
/// segment is absent but higher-numbered ones exist — previously such a
/// gap silently truncated the stream's history.
Result<std::vector<std::string>> RotationSegments(const std::string& base);

}  // namespace ld
