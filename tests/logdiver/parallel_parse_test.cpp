// Chunk-parallel parsing must be bit-identical to sequential parsing —
// same records, same stats, same quarantine entries in the same order —
// at any thread count and chunk size, on clean and corrupted input.
#include <gtest/gtest.h>

#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/catalog.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

// Small enough to keep the test fast, big enough that chunk_lines=17
// produces dozens of chunks per source.
EmittedLogs TestLogs(std::uint64_t seed, double corruption_rate) {
  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = 400;
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  EXPECT_TRUE(campaign.ok());
  EmittedLogs logs = campaign->logs;
  if (corruption_rate > 0.0) {
    CorruptorConfig cc;
    cc.rate = corruption_rate;
    cc.ops = LogCorruptor::AllOps();
    const LogCorruptor corruptor(cc);
    corruptor.CorruptBundle(logs, Rng(seed).Fork("corruptor"));
  }
  return logs;
}

std::vector<std::string_view> Views(const std::vector<std::string>& lines) {
  std::vector<std::string_view> views;
  views.reserve(lines.size());
  for (const std::string& line : lines) views.emplace_back(line);
  return views;
}

void ExpectSameStats(const ParseStats& a, const ParseStats& b) {
  EXPECT_EQ(a.lines, b.lines);
  EXPECT_EQ(a.records, b.records);
  EXPECT_EQ(a.skipped, b.skipped);
  EXPECT_EQ(a.malformed, b.malformed);
}

void ExpectSameQuarantine(const std::vector<QuarantineEntry>& a,
                          const std::vector<QuarantineEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source) << "entry " << i;
    EXPECT_EQ(a[i].line_number, b[i].line_number) << "entry " << i;
    EXPECT_EQ(a[i].reason, b[i].reason) << "entry " << i;
    EXPECT_EQ(a[i].line, b[i].line) << "entry " << i;
  }
}

void ExpectSameRecord(const TorqueRecord& a, const TorqueRecord& b,
                      std::size_t i) {
  EXPECT_EQ(a.kind, b.kind) << i;
  EXPECT_EQ(a.time, b.time) << i;
  EXPECT_EQ(a.jobid, b.jobid) << i;
  EXPECT_EQ(a.user, b.user) << i;
  EXPECT_EQ(a.queue, b.queue) << i;
  EXPECT_EQ(a.submit, b.submit) << i;
  EXPECT_EQ(a.start, b.start) << i;
  EXPECT_EQ(a.end, b.end) << i;
  EXPECT_EQ(a.exit_status, b.exit_status) << i;
  EXPECT_EQ(a.nodect, b.nodect) << i;
  EXPECT_EQ(a.walltime_limit, b.walltime_limit) << i;
  EXPECT_EQ(a.walltime_used, b.walltime_used) << i;
}

void ExpectSameRecord(const AlpsRecord& a, const AlpsRecord& b,
                      std::size_t i) {
  EXPECT_EQ(a.kind, b.kind) << i;
  EXPECT_EQ(a.time, b.time) << i;
  EXPECT_EQ(a.apid, b.apid) << i;
  EXPECT_EQ(a.jobid, b.jobid) << i;
  EXPECT_EQ(a.user, b.user) << i;
  EXPECT_EQ(a.nodect, b.nodect) << i;
  EXPECT_EQ(a.nids, b.nids) << i;
  EXPECT_EQ(a.exit_code, b.exit_code) << i;
  EXPECT_EQ(a.exit_signal, b.exit_signal) << i;
  EXPECT_EQ(a.node_failure, b.node_failure) << i;
  EXPECT_EQ(a.failed_nid, b.failed_nid) << i;
}

void ExpectSameRecord(const ErrorRecord& a, const ErrorRecord& b,
                      std::size_t i) {
  EXPECT_EQ(a.time, b.time) << i;
  EXPECT_EQ(a.category, b.category) << i;
  EXPECT_EQ(a.severity, b.severity) << i;
  EXPECT_EQ(a.scope, b.scope) << i;
  EXPECT_EQ(a.location, b.location) << i;
  EXPECT_EQ(a.source, b.source) << i;
  EXPECT_EQ(a.recovered, b.recovered) << i;
}

/// Runs `parser_factory() -> parser` sequentially (one chunk, no pool)
/// and chunked (chunk_lines=17, 4 threads) over `lines` and asserts the
/// outputs are indistinguishable.
template <typename ParserFactory>
void ExpectChunkedMatchesSequential(ParserFactory&& parser_factory,
                                    const std::vector<std::string>& lines) {
  const std::vector<std::string_view> views = Views(lines);
  ThreadPool pool(4);

  auto sequential_parser = parser_factory();
  QuarantineSink sequential_sink((QuarantineConfig()));
  const auto sequential = sequential_parser.ParseLines(
      std::span<const std::string_view>(views), &sequential_sink, nullptr,
      lines.size() + 1);  // one chunk

  auto chunked_parser = parser_factory();
  QuarantineSink chunked_sink((QuarantineConfig()));
  const auto chunked = chunked_parser.ParseLines(
      std::span<const std::string_view>(views), &chunked_sink, &pool, 17);

  ASSERT_EQ(sequential.size(), chunked.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    ExpectSameRecord(sequential[i], chunked[i], i);
  }
  ExpectSameStats(sequential_parser.stats(), chunked_parser.stats());
  EXPECT_EQ(sequential_sink.total(), chunked_sink.total());
  ExpectSameQuarantine(sequential_sink.entries(), chunked_sink.entries());
}

TEST(ParallelParse, TorqueChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(11, 0.08);
  ExpectChunkedMatchesSequential([] { return TorqueParser(); }, logs.torque);
}

TEST(ParallelParse, AlpsChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(12, 0.08);
  ExpectChunkedMatchesSequential([] { return AlpsParser(); }, logs.alps);
}

TEST(ParallelParse, HwerrChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(13, 0.08);
  ExpectChunkedMatchesSequential([] { return HwerrParser(); }, logs.hwerr);
}

TEST(ParallelParse, SyslogChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(14, 0.08);
  ExpectChunkedMatchesSequential([] { return SyslogParser(2013); },
                                 logs.syslog);
}

TEST(ParallelParse, SyslogChunkedMatchesSequentialOnCleanInput) {
  const EmittedLogs logs = TestLogs(15, 0.0);
  ExpectChunkedMatchesSequential([] { return SyslogParser(2013); },
                                 logs.syslog);
}

int YearOf(TimePoint t) { return ToCalendar(t).year; }

TEST(ParallelParse, SyslogYearRolloverStitchesAcrossChunkBoundaries) {
  // Two December rollovers; with chunk_lines=1 every boundary is a chunk
  // boundary, so the stitch must carry the month state between chunks.
  const std::vector<std::string> lines = {
      "Nov 20 10:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing",
      "Dec 31 23:59:58 c0-0c0s0n1 kernel: Kernel panic - not syncing",
      "Jan  1 00:00:02 c0-0c0s0n2 kernel: Kernel panic - not syncing",
      "Jun 15 12:00:00 c0-0c0s0n3 kernel: Kernel panic - not syncing",
      "Dec 30 01:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing",
      "Jan  2 03:00:00 c0-0c0s0n1 kernel: Kernel panic - not syncing",
  };
  const std::vector<std::string_view> views = Views(lines);
  ThreadPool pool(4);
  for (std::size_t chunk_lines : {std::size_t{1}, std::size_t{2},
                                  std::size_t{3}, std::size_t{100}}) {
    SyslogParser parser(2013);
    const auto records = parser.ParseLines(
        std::span<const std::string_view>(views), nullptr, &pool, chunk_lines);
    ASSERT_EQ(records.size(), 6u) << "chunk_lines=" << chunk_lines;
    const int expected_years[] = {2013, 2013, 2014, 2014, 2014, 2015};
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(YearOf(records[i].time), expected_years[i])
          << "chunk_lines=" << chunk_lines << " record " << i;
    }
  }
}

TEST(ParallelParse, SyslogRolloverCountsLinesThatFailAfterMonthValidation) {
  // The smw line fails ("smw event without component name") *after* its
  // month token validated, so the sequential parser still advances its
  // rollover state on it.  The December evidence lives only in that
  // failing line; the January line after it must land in the next year.
  const std::vector<std::string> lines = {
      "Nov 20 10:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing",
      "Dec 31 23:59:00 smw critical voltage fault somewhere",
      "Jan  1 00:10:00 c0-0c0s0n2 kernel: Kernel panic - not syncing",
  };
  const std::vector<std::string_view> views = Views(lines);
  ThreadPool pool(4);
  for (std::size_t chunk_lines : {std::size_t{1}, std::size_t{100}}) {
    SyslogParser parser(2013);
    QuarantineSink sink((QuarantineConfig()));
    const auto records = parser.ParseLines(
        std::span<const std::string_view>(views), &sink, &pool, chunk_lines);
    ASSERT_EQ(records.size(), 2u) << "chunk_lines=" << chunk_lines;
    EXPECT_EQ(YearOf(records[0].time), 2013) << "chunk_lines=" << chunk_lines;
    EXPECT_EQ(YearOf(records[1].time), 2014) << "chunk_lines=" << chunk_lines;
    ASSERT_EQ(sink.entries().size(), 1u);
    EXPECT_EQ(sink.entries()[0].line_number, 2u);
  }
}

TEST(ParallelParse, SyslogLustrePairingSpansChunkBoundaries) {
  const std::vector<std::string> lines = {
      "Apr  1 10:00:00 sonexion LustreError: ost12 failing over",
      "Apr  1 10:05:00 sonexion LustreError: ost12 still degraded",
      "Apr  1 10:30:00 sonexion Lustre: ost12 recovered after failover",
      "Apr  2 08:00:00 sonexion LustreError: mdt0 unresponsive",
  };
  const std::vector<std::string_view> views = Views(lines);
  ThreadPool pool(4);
  for (std::size_t chunk_lines : {std::size_t{1}, std::size_t{2},
                                  std::size_t{100}}) {
    SyslogParser parser(2013);
    const auto records = parser.ParseLines(
        std::span<const std::string_view>(views), nullptr, &pool, chunk_lines);
    // Incident 1 (two overlapping error lines merged) closed by the
    // recovery; incident 2 left open and default-closed at end of input.
    ASSERT_EQ(records.size(), 2u) << "chunk_lines=" << chunk_lines;
    ASSERT_TRUE(records[0].recovered.has_value());
    EXPECT_EQ(*records[0].recovered - records[0].time, Duration::Minutes(30))
        << "chunk_lines=" << chunk_lines;
    ASSERT_TRUE(records[1].recovered.has_value());
    EXPECT_EQ(*records[1].recovered - records[1].time, Duration::Minutes(30))
        << "chunk_lines=" << chunk_lines;  // kDefaultOpenIncidentSeconds
  }
}

TEST(ParallelParse, SyslogLineByLineMatchesChunkedOnScenarioSyslog) {
  // ParseLine line by line plus FinishOpenIncident is the same state
  // machine as the chunked ParseLines: the same records in the same
  // order, on Lustre incident storms and on rotated, clock-skewed
  // syslog crossing a year boundary.
  ThreadPool pool(4);
  for (const char* name : {"lustre-storm", "rotation-skew"}) {
    const ScenarioSpec* spec = FindScenario(name);
    ASSERT_NE(spec, nullptr);
    ScenarioConfig config = SmallScenario(21);
    config.workload.target_app_runs = 1500;
    spec->configure(&config);
    const Machine machine = MakeMachine(config);
    const std::string dir = ::testing::TempDir() + "ld_line_vs_chunk_" + name;
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(WriteScenarioBundle(machine, config, *spec, dir).ok());
    auto bundle = LoadBundle(StreamInputs::FromBundleDir(dir), nullptr);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const std::vector<std::string_view>& lines = bundle->views.syslog;

    SyslogParser chunked_parser(2013);
    const auto chunked = chunked_parser.ParseLines(
        std::span<const std::string_view>(lines), nullptr, &pool, 17);

    SyslogParser line_parser(2013);
    std::vector<ErrorRecord> by_line;
    for (const std::string_view line : lines) {
      auto rec = line_parser.ParseLine(line);
      if (rec.ok() && rec->has_value()) by_line.push_back(std::move(**rec));
    }
    if (auto rec = line_parser.FinishOpenIncident()) by_line.push_back(*rec);

    std::size_t incidents = 0;
    for (const ErrorRecord& rec : chunked) {
      incidents += rec.scope == LocScope::kSystem ? 1 : 0;
    }
    EXPECT_GT(incidents, 0u) << name;
    ASSERT_EQ(chunked.size(), by_line.size()) << name;
    for (std::size_t i = 0; i < chunked.size(); ++i) {
      ExpectSameRecord(chunked[i], by_line[i], i);
    }
    ExpectSameStats(chunked_parser.stats(), line_parser.stats());
    std::filesystem::remove_all(dir);
  }
}

TEST(ParallelParse, AnalyzeBitIdenticalAcrossThreadCounts) {
  const EmittedLogs logs = TestLogs(16, 0.10);
  const ScenarioConfig config = [] {
    ScenarioConfig c = SmallScenario(16);
    c.workload.target_app_runs = 400;
    return c;
  }();
  const Machine machine = MakeMachine(config);
  const LogSet logset{logs.torque, logs.alps, logs.syslog, logs.hwerr};

  LogDiverConfig serial_config;
  serial_config.threads = 1;
  const LogDiver serial(machine, serial_config);
  auto serial_result = serial.Analyze(logset);
  ASSERT_TRUE(serial_result.ok());

  LogDiverConfig parallel_config;
  parallel_config.threads = 4;
  parallel_config.parse_chunk_lines = 64;  // force many chunks
  const LogDiver parallel(machine, parallel_config);
  auto parallel_result = parallel.Analyze(logset);
  ASSERT_TRUE(parallel_result.ok());

  EXPECT_EQ(FingerprintReport(serial_result->metrics),
            FingerprintReport(parallel_result->metrics));
  EXPECT_EQ(FingerprintIngest(serial_result->ingest),
            FingerprintIngest(parallel_result->ingest));
  EXPECT_EQ(serial_result->classified.size(),
            parallel_result->classified.size());
  ExpectSameQuarantine(serial_result->quarantine, parallel_result->quarantine);
  ExpectSameStats(serial_result->torque_stats, parallel_result->torque_stats);
  ExpectSameStats(serial_result->alps_stats, parallel_result->alps_stats);
  ExpectSameStats(serial_result->syslog_stats, parallel_result->syslog_stats);
  ExpectSameStats(serial_result->hwerr_stats, parallel_result->hwerr_stats);
}

TEST(ParallelParse, AnalyzeBundleBitIdenticalAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir() + "/ld_parallel_bundle";
  std::filesystem::remove_all(dir);
  ScenarioConfig config = SmallScenario(17);
  config.workload.target_app_runs = 400;
  const Machine machine = MakeMachine(config);
  auto bundle = WriteBundle(machine, config, dir);
  ASSERT_TRUE(bundle.ok());

  LogDiverConfig serial_config;
  serial_config.threads = 1;
  const LogDiver serial(machine, serial_config);
  auto serial_result = serial.AnalyzeBundle(dir);
  ASSERT_TRUE(serial_result.ok());

  LogDiverConfig parallel_config;
  parallel_config.threads = 4;
  parallel_config.parse_chunk_lines = 64;
  const LogDiver parallel(machine, parallel_config);
  auto parallel_result = parallel.AnalyzeBundle(dir);
  ASSERT_TRUE(parallel_result.ok());

  EXPECT_EQ(FingerprintReport(serial_result->metrics),
            FingerprintReport(parallel_result->metrics));
  EXPECT_EQ(FingerprintIngest(serial_result->ingest),
            FingerprintIngest(parallel_result->ingest));
  ExpectSameQuarantine(serial_result->quarantine, parallel_result->quarantine);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ld
