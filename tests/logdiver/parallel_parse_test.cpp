// Parsing ahead on a pool must be bit-identical to parsing inline —
// same records, same stats, same quarantine entries in the same order —
// at any thread count, on clean and corrupted input, with every source
// spanning several parse-ahead blocks.
#include <gtest/gtest.h>

#include <filesystem>
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

/// Enough app runs and corrected errors that every source spans at
/// least three kParseAheadLines blocks.
ScenarioConfig TestConfig(std::uint64_t seed) {
  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = 6000;
  config.faults.corrected_mce_per_day = 120.0;
  return config;
}

EmittedLogs TestLogs(std::uint64_t seed, double corruption_rate) {
  const ScenarioConfig config = TestConfig(seed);
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  EXPECT_TRUE(campaign.ok());
  EmittedLogs logs = campaign->logs;
  for (const auto* lines : {&logs.torque, &logs.alps, &logs.syslog,
                            &logs.hwerr}) {
    EXPECT_GE(lines->size(), 3 * kParseAheadLines);
  }
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

/// Runs `parser_factory() -> parser` inline (no pool) and ahead on
/// pools of 1-4 threads over `lines` and asserts the outputs are
/// indistinguishable.
template <typename ParserFactory>
void ExpectAheadMatchesInline(ParserFactory&& parser_factory,
                              const std::vector<std::string>& lines) {
  const std::vector<std::string_view> views = Views(lines);

  auto sequential_parser = parser_factory();
  QuarantineSink sequential_sink((QuarantineConfig()));
  const auto sequential = sequential_parser.ParseLines(views, &sequential_sink);

  for (int threads = 1; threads <= 4; ++threads) {
    ThreadPool pool(threads);
    auto ahead_parser = parser_factory();
    QuarantineSink ahead_sink((QuarantineConfig()));
    const auto ahead = ahead_parser.ParseLines(views, &ahead_sink, &pool);

    ASSERT_EQ(sequential.size(), ahead.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      ExpectSameRecord(sequential[i], ahead[i], i);
    }
    ExpectSameStats(sequential_parser.stats(), ahead_parser.stats());
    EXPECT_EQ(sequential_sink.total(), ahead_sink.total());
    ExpectSameQuarantine(sequential_sink.entries(), ahead_sink.entries());
  }
}

TEST(ParallelParse, TorqueChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(11, 0.08);
  ExpectAheadMatchesInline([] { return TorqueParser(); }, logs.torque);
}

TEST(ParallelParse, AlpsChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(12, 0.08);
  ExpectAheadMatchesInline([] { return AlpsParser(); }, logs.alps);
}

TEST(ParallelParse, HwerrChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(13, 0.08);
  ExpectAheadMatchesInline([] { return HwerrParser(); }, logs.hwerr);
}

TEST(ParallelParse, SyslogChunkedMatchesSequentialOnDirtyInput) {
  const EmittedLogs logs = TestLogs(14, 0.08);
  ExpectAheadMatchesInline([] { return SyslogParser(2013); },
                                 logs.syslog);
}

TEST(ParallelParse, SyslogChunkedMatchesSequentialOnCleanInput) {
  const EmittedLogs logs = TestLogs(15, 0.0);
  ExpectAheadMatchesInline([] { return SyslogParser(2013); },
                                 logs.syslog);
}

int YearOf(TimePoint t) { return ToCalendar(t).year; }

/// Appends skipped kernel lines stamped `stamp` ("Dec 15 12:00:00")
/// until `lines` holds `size` lines: they move the lines that follow
/// onto block edges and, stamped in a neighbouring month, add no year
/// rollover of their own.
void PadTo(std::vector<std::string>& lines, std::size_t size,
           const std::string& stamp) {
  while (lines.size() < size) {
    lines.push_back(stamp + " c0-0c0s1n0 kernel: usb 1-1: new device");
  }
}

/// The 1-, 2- and 4-thread parses of `lines` (one thread parses inline).
template <typename Check>
void ForEachThreadCount(const std::vector<std::string>& lines, Check&& check) {
  const std::vector<std::string_view> views = Views(lines);
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    SyslogParser parser(2013);
    QuarantineSink sink((QuarantineConfig()));
    check(parser.ParseLines(views, &sink, &pool), sink, threads);
  }
}

TEST(ParallelParse, SyslogYearRolloverStitchesAcrossChunkBoundaries) {
  // Two December rollovers, each on a block edge: the last line of a
  // block is December, the first of the next is January, so the month
  // state must carry from one block to the next.
  std::vector<std::string> lines = {
      "Nov 20 10:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing"};
  PadTo(lines, kParseAheadLines - 1, "Dec 15 12:00:00");
  lines.push_back(
      "Dec 31 23:59:58 c0-0c0s0n1 kernel: Kernel panic - not syncing");
  lines.push_back(
      "Jan  1 00:00:02 c0-0c0s0n2 kernel: Kernel panic - not syncing");
  lines.push_back(
      "Jun 15 12:00:00 c0-0c0s0n3 kernel: Kernel panic - not syncing");
  PadTo(lines, 2 * kParseAheadLines - 1, "Dec 15 12:00:00");
  lines.push_back(
      "Dec 30 01:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing");
  lines.push_back(
      "Jan  2 03:00:00 c0-0c0s0n1 kernel: Kernel panic - not syncing");
  ASSERT_EQ(lines.size(), 2 * kParseAheadLines + 1);
  ForEachThreadCount(lines, [](const std::vector<ErrorRecord>& records,
                               const QuarantineSink&, int threads) {
    ASSERT_EQ(records.size(), 6u) << "threads=" << threads;
    const int expected_years[] = {2013, 2013, 2014, 2014, 2014, 2015};
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(YearOf(records[i].time), expected_years[i])
          << "threads=" << threads << " record " << i;
    }
  });
}

TEST(ParallelParse, SyslogRolloverCountsLinesThatFailAfterMonthValidation) {
  // The smw line fails ("smw event without component name") *after* its
  // month token validated, so the parser still advances its rollover
  // state on it.  The December evidence lives only in that failing line,
  // the last of its block; the January line after it, the first of the
  // next block, must land in the next year.
  std::vector<std::string> lines = {
      "Nov 20 10:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing"};
  PadTo(lines, kParseAheadLines - 1, "Nov 25 12:00:00");
  lines.push_back("Dec 31 23:59:00 smw critical voltage fault somewhere");
  lines.push_back(
      "Jan  1 00:10:00 c0-0c0s0n2 kernel: Kernel panic - not syncing");
  ForEachThreadCount(lines, [](const std::vector<ErrorRecord>& records,
                               const QuarantineSink& sink, int threads) {
    ASSERT_EQ(records.size(), 2u) << "threads=" << threads;
    EXPECT_EQ(YearOf(records[0].time), 2013) << "threads=" << threads;
    EXPECT_EQ(YearOf(records[1].time), 2014) << "threads=" << threads;
    ASSERT_EQ(sink.entries().size(), 1u);
    EXPECT_EQ(sink.entries()[0].line_number, kParseAheadLines);
  });
}

TEST(ParallelParse, SyslogLustrePairingSpansChunkBoundaries) {
  // The incident opens on the last line of the first block, a report
  // folds into it from the first line of the second, and its recovery
  // is the first line of the third.
  std::vector<std::string> lines;
  PadTo(lines, kParseAheadLines - 1, "Apr  1 09:00:00");
  lines.push_back("Apr  1 10:00:00 sonexion LustreError: ost12 failing over");
  lines.push_back("Apr  1 10:05:00 sonexion LustreError: ost12 still degraded");
  PadTo(lines, 2 * kParseAheadLines, "Apr  1 10:10:00");
  lines.push_back(
      "Apr  1 10:30:00 sonexion Lustre: ost12 recovered after failover");
  lines.push_back("Apr  2 08:00:00 sonexion LustreError: mdt0 unresponsive");
  ForEachThreadCount(lines, [](const std::vector<ErrorRecord>& records,
                               const QuarantineSink&, int threads) {
    // Incident 1 (two overlapping error lines merged) closed by the
    // recovery; incident 2 left open and default-closed at end of input.
    ASSERT_EQ(records.size(), 2u) << "threads=" << threads;
    ASSERT_TRUE(records[0].recovered.has_value());
    EXPECT_EQ(*records[0].recovered - records[0].time, Duration::Minutes(30))
        << "threads=" << threads;
    ASSERT_TRUE(records[1].recovered.has_value());
    EXPECT_EQ(*records[1].recovered - records[1].time, Duration::Minutes(30))
        << "threads=" << threads;  // kDefaultOpenIncidentSeconds
  });
}

TEST(ParallelParse, SyslogLineByLineMatchesChunkedOnScenarioSyslog) {
  // ParseLine line by line plus FinishOpenIncident is the same state
  // machine as ParseLines ahead on a pool: the same records in the same
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
    const std::string dir = ::testing::TempDir() + "ld_line_vs_ahead_" + name;
    std::filesystem::remove_all(dir);
    ASSERT_TRUE(WriteScenarioBundle(machine, config, *spec, dir).ok());
    auto bundle = LoadBundle(StreamInputs::FromBundleDir(dir), nullptr);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const std::vector<std::string_view>& lines = bundle->views.syslog;

    SyslogParser ahead_parser(2013);
    const auto ahead = ahead_parser.ParseLines(lines, nullptr, &pool);

    SyslogParser line_parser(2013);
    std::vector<ErrorRecord> by_line;
    for (const std::string_view line : lines) {
      auto rec = line_parser.ParseLine(line);
      if (rec.ok() && rec->has_value()) by_line.push_back(std::move(**rec));
    }
    if (auto rec = line_parser.FinishOpenIncident()) by_line.push_back(*rec);

    std::size_t incidents = 0;
    for (const ErrorRecord& rec : ahead) {
      incidents += rec.scope == LocScope::kSystem ? 1 : 0;
    }
    EXPECT_GT(incidents, 0u) << name;
    ASSERT_EQ(ahead.size(), by_line.size()) << name;
    for (std::size_t i = 0; i < ahead.size(); ++i) {
      ExpectSameRecord(ahead[i], by_line[i], i);
    }
    ExpectSameStats(ahead_parser.stats(), line_parser.stats());
    std::filesystem::remove_all(dir);
  }
}

TEST(ParallelParse, AnalyzeBitIdenticalAcrossThreadCounts) {
  const EmittedLogs logs = TestLogs(16, 0.10);
  const Machine machine = MakeMachine(TestConfig(16));
  const LogSet logset{logs.torque, logs.alps, logs.syslog, logs.hwerr};

  LogDiverConfig serial_config;
  serial_config.threads = 1;
  const LogDiver serial(machine, serial_config);
  auto serial_result = serial.Analyze(logset);
  ASSERT_TRUE(serial_result.ok());

  LogDiverConfig parallel_config;
  parallel_config.threads = 4;
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
  const ScenarioConfig config = TestConfig(17);
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
