#include "logdiver/logdiver.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <iterator>
#include <span>
#include <utility>

#include "common/obs/obs.hpp"
#include "common/parallel.hpp"
#include "common/strings.hpp"
#include "logdiver/block_reader.hpp"
#include "logdiver/cache/bundle_cache.hpp"

namespace ld {

Result<std::vector<std::string>> ReadLines(const std::string& path) {
  LD_ASSIGN_OR_RETURN(const MappedFile file, MappedFile::Open(path));
  std::vector<std::string_view> views;
  AppendLines(file.data(), &views);
  std::vector<std::string> lines;
  lines.reserve(views.size());
  for (const std::string_view line : views) lines.emplace_back(line);
  return lines;
}

Result<std::vector<std::string>> RotationSegments(const std::string& base) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::exists(base, ec) || ec) {
    return NotFoundError("cannot open '" + base + "'");
  }
  // Scan the directory for base.N siblings instead of probing upward
  // from base.1: probing stops at the first hole, so a missing middle
  // segment used to silently drop every older segment from the stream.
  const fs::path base_path(base);
  fs::path parent = base_path.parent_path();
  if (parent.empty()) parent = ".";
  const std::string prefix = base_path.filename().string() + ".";
  std::vector<std::uint64_t> numbers;
  for (fs::directory_iterator it(parent, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!StartsWith(name, prefix)) continue;
    const auto n = ParseUint(std::string_view(name).substr(prefix.size()));
    if (n.ok() && *n >= 1) numbers.push_back(*n);
  }
  std::sort(numbers.begin(), numbers.end());
  numbers.erase(std::unique(numbers.begin(), numbers.end()), numbers.end());
  if (!numbers.empty()) {
    const std::uint64_t highest = numbers.back();
    for (std::uint64_t expected = 1; expected <= highest; ++expected) {
      if (numbers[static_cast<std::size_t>(expected - 1)] != expected) {
        return NotFoundError("rotation gap: '" + base + "." +
                             std::to_string(expected) +
                             "' is missing but '" + base + "." +
                             std::to_string(highest) + "' exists");
      }
    }
  }
  std::vector<std::string> paths;
  paths.reserve(numbers.size() + 1);
  for (auto it = numbers.rbegin(); it != numbers.rend(); ++it) {
    paths.push_back(base + "." + std::to_string(*it));
  }
  paths.push_back(base);
  return paths;
}

Result<MappedBundle> LoadBundle(const StreamInputs& inputs, ThreadPool* pool) {
  LD_OBS_SPAN("load_bundle");
  MappedBundle bundle;
  const auto load = [&bundle, pool](const std::string& base,
                                    std::vector<std::string_view>* out)
      -> Status {
    LD_ASSIGN_OR_RETURN(const auto segments, RotationSegments(base));
    for (const std::string& path : segments) {
      LD_OBS_SPAN_DYN("load/" + path);
      LD_ASSIGN_OR_RETURN(MappedFile file, MappedFile::Open(path));
      const std::vector<std::string_view> lines =
          SplitLinesParallel(file.data(), pool);
      out->insert(out->end(), lines.begin(), lines.end());
      bundle.mappings.push_back(std::move(file));
    }
    return Status::Ok();
  };
  LD_TRY(load(inputs.torque_path, &bundle.views.torque));
  LD_TRY(load(inputs.alps_path, &bundle.views.alps));
  LD_TRY(load(inputs.syslog_path, &bundle.views.syslog));
  if (std::filesystem::exists(inputs.hwerr_path)) {
    LD_TRY(load(inputs.hwerr_path, &bundle.views.hwerr));
  }
  return bundle;
}

LogSetView::LogSetView(const LogSet& logs)
    : torque(LineViews(logs.torque)),
      alps(LineViews(logs.alps)),
      syslog(LineViews(logs.syslog)),
      hwerr(LineViews(logs.hwerr)) {}

LogDiver::LogDiver(const Machine& machine, LogDiverConfig config)
    : machine_(machine), config_(std::move(config)) {}

Result<AnalysisResult> LogDiver::Analyze(const LogSet& logs) const {
  return Analyze(LogSetView(logs));
}

Result<AnalysisResult> LogDiver::Analyze(const LogSetView& logs) const {
  ConfiguredPool pool(config_.threads);
  return AnalyzeWith(logs, pool.get());
}

namespace {

/// Folds one source's ParseStats into the ingest counters.  Called once
/// per source per analysis, after the ordered reduction — never per
/// line, per the obs.hpp granularity rule.
void CountSourceStats([[maybe_unused]] const ParseStats& stats) {
  LD_OBS_COUNTER_ADD(obs::names::kIngestLinesTotal, stats.lines);
  LD_OBS_COUNTER_ADD(obs::names::kIngestRecordsTotal, stats.records);
  LD_OBS_COUNTER_ADD(obs::names::kIngestMalformedTotal, stats.malformed);
}

}  // namespace

Result<AnalysisResult> LogDiver::AnalyzeWith(const LogSetView& logs,
                                             ThreadPool* pool) const {
  LD_OBS_SPAN("analyze");
  const std::uint64_t analyze_start_ns = LD_OBS_NOW_NS();
  LD_ASSIGN_OR_RETURN(ParsedLogs parsed, ParseLogs(logs, pool));
  auto result = AnalyzeParsed(std::move(parsed), pool);
  if (analyze_start_ns != 0 && result.ok()) {
    LD_OBS_HIST_RECORD(obs::names::kAnalyzeTotalMicros,
                       (LD_OBS_NOW_NS() - analyze_start_ns) / 1000);
  }
  return result;
}

Result<ParsedLogs> LogDiver::ParseLogs(const LogSetView& logs,
                                       ThreadPool* pool) const {
  ParsedLogs parsed;
  parsed.sink = QuarantineSink(config_.ingest.quarantine);
  QuarantineSink& sink = parsed.sink;
  const QuarantineConfig* capture = &config_.ingest.quarantine;

  // Parse each source, all four concurrently on one pool: every chunk
  // of every source is one task in a single group, so a small source
  // cannot leave the pool idle while a big one still has chunks queued.
  // Chunks land in pre-sized slots (no locks); the ordered per-source
  // reductions below run on this thread, in fixed source order, which
  // keeps records, stats, and quarantine entries bit-identical to a
  // sequential pass.
  const std::size_t chunk_lines = config_.parse_chunk_lines == 0
                                      ? kDefaultParseChunkLines
                                      : config_.parse_chunk_lines;
  const auto torque_ranges = ChunkRanges(logs.torque.size(), chunk_lines);
  const auto alps_ranges = ChunkRanges(logs.alps.size(), chunk_lines);
  const auto syslog_ranges = ChunkRanges(logs.syslog.size(), chunk_lines);
  const auto hwerr_ranges = ChunkRanges(logs.hwerr.size(), chunk_lines);
  std::vector<TorqueParser::Chunk> torque_chunks(torque_ranges.size());
  std::vector<AlpsParser::Chunk> alps_chunks(alps_ranges.size());
  std::vector<SyslogParser::Chunk> syslog_chunks(syslog_ranges.size());
  std::vector<HwerrParser::Chunk> hwerr_chunks(hwerr_ranges.size());
  {
    LD_OBS_SPAN("parse");
    TaskGroup group(pool);
    // span_name is a string literal ("chunk/torque", ...) so the per-task
    // trace span costs no allocation when the tracer is disarmed.
    const auto submit = [&group, capture](const auto& ranges, const auto& lines,
                                          auto& chunks, auto parse_chunk,
                                          [[maybe_unused]] const char* span_name) {
      const std::string_view* base = lines.data();
      for (std::size_t i = 0; i < ranges.size(); ++i) {
        const IndexRange r = ranges[i];
        auto* slot = &chunks[i];
        group.Run([base, r, capture, slot, parse_chunk, span_name] {
          LD_OBS_SPAN(span_name);
          const std::uint64_t chunk_start_ns = LD_OBS_NOW_NS();
          *slot = parse_chunk(
              std::span<const std::string_view>(base + r.begin, r.size()),
              static_cast<std::uint64_t>(r.begin) + 1, capture);
          LD_OBS_COUNTER_ADD(obs::names::kIngestChunksTotal, 1);
          if (chunk_start_ns != 0) {
            LD_OBS_HIST_RECORD(obs::names::kIngestChunkMicros,
                               (LD_OBS_NOW_NS() - chunk_start_ns) / 1000);
          }
        });
      }
    };
    submit(torque_ranges, logs.torque, torque_chunks, &TorqueParser::ParseChunk,
           "chunk/torque");
    submit(alps_ranges, logs.alps, alps_chunks, &AlpsParser::ParseChunk,
           "chunk/alps");
    submit(syslog_ranges, logs.syslog, syslog_chunks,
           &SyslogParser::ParseChunk, "chunk/syslog");
    submit(hwerr_ranges, logs.hwerr, hwerr_chunks, &HwerrParser::ParseChunk,
           "chunk/hwerr");
    group.Wait();
  }

  TorqueParser torque_parser;
  {
    LD_OBS_SPAN("reduce/torque");
    parsed.torque = torque_parser.ReduceChunks(std::move(torque_chunks), &sink);
  }
  parsed.torque_stats = torque_parser.stats();
  CountSourceStats(parsed.torque_stats);

  AlpsParser alps_parser;
  {
    LD_OBS_SPAN("reduce/alps");
    parsed.alps = alps_parser.ReduceChunks(std::move(alps_chunks), &sink);
  }
  parsed.alps_stats = alps_parser.stats();
  CountSourceStats(parsed.alps_stats);

  // Syslog errors first, hwerr appended — the order the coalescer's
  // (time, input index) tie-break keys on.  The syslog vector is sized
  // for both, so the append never reallocates.
  std::size_t hwerr_records = 0;
  for (const HwerrParser::Chunk& chunk : hwerr_chunks) {
    hwerr_records += chunk.records.size();
  }
  SyslogParser syslog_parser(config_.syslog_base_year);
  {
    LD_OBS_SPAN("reduce/syslog");
    parsed.errors = syslog_parser.ReduceChunks(std::move(syslog_chunks), &sink,
                                               hwerr_records);
  }
  parsed.syslog_stats = syslog_parser.stats();
  CountSourceStats(parsed.syslog_stats);

  HwerrParser hwerr_parser;
  {
    LD_OBS_SPAN("reduce/hwerr");
    std::vector<ErrorRecord> hwerr =
        hwerr_parser.ReduceChunks(std::move(hwerr_chunks), &sink);
    parsed.errors.insert(parsed.errors.end(),
                         std::make_move_iterator(hwerr.begin()),
                         std::make_move_iterator(hwerr.end()));
  }
  parsed.hwerr_stats = hwerr_parser.stats();
  CountSourceStats(parsed.hwerr_stats);
  return parsed;
}

Result<AnalysisResult> LogDiver::AnalyzeParsed(ParsedLogs&& parsed,
                                               ThreadPool* pool) const {
  AnalysisResult result;
  const IngestConfig& ingest = config_.ingest;
  result.torque_stats = parsed.torque_stats;
  result.alps_stats = parsed.alps_stats;
  result.syslog_stats = parsed.syslog_stats;
  result.hwerr_stats = parsed.hwerr_stats;

  // A source over its malformed-line budget either aborts the analysis
  // (fail-fast: this is probably the wrong file or a truncated transfer)
  // or is disclosed in the ingest counters (quarantine-and-continue).
  // The checks run here, not in ParseLogs, so a cache-restored
  // ParsedLogs faces exactly the policy a fresh parse would.
  auto check_budget = [&](const char* name, const ParseStats& stats) -> Status {
    if (!ingest.budget.Exceeded(stats)) return Status::Ok();
    ++result.ingest.budget_exhausted_sources;
    LD_OBS_COUNTER_ADD(obs::names::kIngestBudgetExhaustedTotal, 1);
    if (ingest.policy == DegradationPolicy::kFailFast) {
      return ParseError(std::string(name) + ": " +
                        std::to_string(stats.malformed) + " of " +
                        std::to_string(stats.lines) +
                        " lines malformed, over the error budget");
    }
    return Status::Ok();
  };
  LD_TRY(check_budget("torque", result.torque_stats));
  LD_TRY(check_budget("alps", result.alps_stats));
  LD_TRY(check_budget("syslog", result.syslog_stats));
  LD_TRY(check_budget("hwerr", result.hwerr_stats));

  // 2. Coalesce error events into tuples.  The records move in and are
  // freed before reconstruct allocates the runs.
  {
    LD_OBS_SPAN("coalesce");
    result.tuples = CoalesceEvents(machine_, std::move(parsed.errors),
                                   config_.coalesce, &result.coalesce_stats);
  }

  // 3. Reconstruct application runs (replayed records dedup here).
  {
    LD_OBS_SPAN("reconstruct");
    // parsed is consumed by this analysis (the cache path snapshots the
    // records before calling in), so the placements' nid lists move.
    result.runs = ReconstructRuns(machine_, std::move(parsed.alps),
                                  parsed.torque, &result.reconstruct_stats);
  }

  // 4. Categorize and attribute.
  {
    LD_OBS_SPAN("classify");
    const Correlator correlator(machine_, config_.correlator);
    result.classified = correlator.Classify(result.runs, result.tuples, pool);
  }

  // 5. Metrics.
  {
    LD_OBS_SPAN("metrics");
    result.metrics = ComputeMetrics(result.runs, result.classified,
                                    result.tuples, config_.metrics);
  }

  result.ingest.quarantined = parsed.sink.total();
  result.ingest.quarantine_overflow = parsed.sink.overflow();
  CopyReplayCounts(result.reconstruct_stats, result.ingest);
  result.quarantine = parsed.sink.entries();
  result.metrics.ingest = result.ingest;

  // Bulk self-measurements, once per analysis (overflow is counted here,
  // not in QuarantineSink::MergeFrom, so merged sinks never double-count).
  LD_OBS_COUNTER_ADD(obs::names::kQuarantineOverflowTotal,
                     parsed.sink.overflow());
  LD_OBS_COUNTER_ADD(obs::names::kAnalyzeRunsTotal, result.runs.size());
  LD_OBS_COUNTER_ADD(obs::names::kAnalyzeTuplesTotal, result.tuples.size());
  return result;
}

Result<AnalysisResult> LogDiver::AnalyzeBundle(const std::string& dir) const {
  ConfiguredPool pool_storage(config_.threads);
  ThreadPool* pool = pool_storage.get();

  LD_ASSIGN_OR_RETURN(const MappedBundle bundle,
                      LoadBundle(StreamInputs::FromBundleDir(dir), pool));
  const LogSetView& views = bundle.views;
  if (config_.bundle_cache_dir.empty()) return AnalyzeWith(views, pool);

  // Parsed-bundle cache (src/logdiver/cache).  A full hit returns the
  // memoized result without touching a parser; a records hit replays
  // the analysis tail over restored records; anything untrustworthy is
  // rejected and the text parse below remains the source of truth.
  const cache::BundleCache bundle_cache(config_.bundle_cache_dir,
                                        config_.bundle_cache_max_bytes);
  const cache::CacheKeys keys = cache::MakeKeys(views, machine_, config_);
  auto entry = bundle_cache.Load(keys);
  if (entry.ok()) {
    if (entry->result.has_value()) {
      AnalysisResult result = std::move(*entry->result);
      result.cache_outcome = CacheOutcome::kHit;
      return result;
    }
    auto result = AnalyzeParsed(std::move(entry->parsed), pool);
    if (result.ok()) result->cache_outcome = CacheOutcome::kRecordsHit;
    return result;
  }
  const bool rejected = entry.status().code() != StatusCode::kNotFound;
  const std::string note = rejected ? entry.status().message() : "";

  LD_OBS_SPAN("analyze");
  const std::uint64_t analyze_start_ns = LD_OBS_NOW_NS();
  LD_ASSIGN_OR_RETURN(ParsedLogs parsed, ParseLogs(views, pool));
  // The records section goes to the entry's tmp file before the tail
  // consumes the records, and its bytes are freed before the tail
  // allocates.  A failed analysis drops the pending entry unpublished.
  Result<cache::PendingStore> pending = [&] {
    std::vector<std::uint8_t> records;
    {
      LD_OBS_SPAN("cache/encode");
      records = cache::BundleCache::EncodeParsed(parsed);
    }
    LD_OBS_SPAN("cache/store");
    return bundle_cache.BeginStore(keys, records);
  }();
  auto result = AnalyzeParsed(std::move(parsed), pool);
  if (!result.ok()) return result;
  if (analyze_start_ns != 0) {
    LD_OBS_HIST_RECORD(obs::names::kAnalyzeTotalMicros,
                       (LD_OBS_NOW_NS() - analyze_start_ns) / 1000);
  }
  result->cache_outcome = rejected ? CacheOutcome::kRejected
                                   : CacheOutcome::kMiss;
  result->cache_note = note;
  Status stored = pending.status();
  if (pending.ok()) {
    LD_OBS_SPAN("cache/store");
    stored = bundle_cache.FinishStore(std::move(*pending), *result);
  }
  if (!stored.ok()) {
    // A write failure costs only the next run's speed; disclose it.
    result->cache_note = result->cache_note.empty()
                             ? stored.message()
                             : result->cache_note + "; " + stored.message();
  }
  return result;
}

}  // namespace ld
