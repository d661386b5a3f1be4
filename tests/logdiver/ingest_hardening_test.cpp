// Hardened-ingestion behavior: quarantine capture, error budgets with
// both degradation policies, record dedup, watermark-regression
// clamping, and the bounded-growth caps on streaming state.
#include <gtest/gtest.h>

#include <string>

#include "common/time.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/streaming.hpp"
#include "topology/machine.hpp"

namespace ld {
namespace {

std::string PlaceLine(ApId apid, std::int64_t t) {
  return TimePoint(t).ToIso() + " apsched[5]: placeApp apid=" +
         std::to_string(apid) + " jobid=1 user=u cmd=c nodect=1 nids=0";
}

std::string ExitLine(ApId apid, std::int64_t t) {
  return TimePoint(t).ToIso() + " apsys[5]: apid=" + std::to_string(apid) +
         " exited, status=0 signal=0";
}

std::string TorqueLine(char type, std::int64_t end) {
  std::string line = "04/03/2013 12:00:00;";
  line += type;
  line += ";100.bw;user=u queue=q ctime=1000 qtime=1000 start=2000";
  if (type == 'E') {
    line += " end=" + std::to_string(end) + " Exit_status=0";
  }
  return line;
}

class IngestHardeningTest : public ::testing::Test {
 protected:
  IngestHardeningTest() : machine_(Machine::Testbed(96, 24)) {}
  Machine machine_;
};

TEST_F(IngestHardeningTest, WatermarkRegressionClampedAndCounted) {
  StreamingAnalyzer analyzer(machine_, LogDiverConfig{});
  analyzer.Advance(TimePoint(10000));
  analyzer.Advance(TimePoint(5000));  // broken promise: clamped, counted
  analyzer.Advance(TimePoint(20000));
  analyzer.Advance(TimePoint(19999));
  EXPECT_EQ(analyzer.ingest_stats().watermark_regressions, 2u);
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.watermark_regressions, 2u);
  EXPECT_TRUE(summary.ingest_status.ok());
}

TEST_F(IngestHardeningTest, ReplayedPlacementsAndTerminationsDeduped) {
  StreamingAnalyzer analyzer(machine_, LogDiverConfig{});
  analyzer.AddAlpsLine(PlaceLine(7, 1364800000));
  analyzer.AddAlpsLine(PlaceLine(7, 1364800000));  // replayed placement
  analyzer.AddAlpsLine(ExitLine(7, 1364801000));
  analyzer.AddAlpsLine(ExitLine(7, 1364801000));   // replayed termination
  analyzer.AddAlpsLine(PlaceLine(7, 1364800000));  // replay after the end
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.duplicate_placements, 2u);
  EXPECT_EQ(summary.ingest.duplicate_terminations, 1u);
  EXPECT_EQ(summary.reconstruct_stats.orphan_terminations, 0u);
  EXPECT_EQ(summary.metrics.total_runs, 1u);
}

TEST_F(IngestHardeningTest, ReplayedTorqueRecordsDisclosedNotApplied) {
  StreamingAnalyzer analyzer(machine_, LogDiverConfig{});
  analyzer.AddTorqueLine(TorqueLine('S', 0));
  EXPECT_EQ(analyzer.ingest_stats().duplicate_job_records, 0u);
  analyzer.AddTorqueLine(TorqueLine('E', 3000));  // E over S: authoritative
  EXPECT_EQ(analyzer.ingest_stats().duplicate_job_records, 0u);
  analyzer.AddTorqueLine(TorqueLine('E', 3000));  // replayed E
  analyzer.AddTorqueLine(TorqueLine('S', 0));     // replayed S
  EXPECT_EQ(analyzer.ingest_stats().duplicate_job_records, 2u);
}

TEST_F(IngestHardeningTest, QuarantineCapturesRejectsWithReasons) {
  LogDiverConfig config;
  config.ingest.quarantine.max_line_bytes = 16;
  StreamingAnalyzer analyzer(machine_, config);
  analyzer.AddTorqueLine("garbage");
  analyzer.AddAlpsLine("garbage");
  analyzer.AddSyslogLine("definitely not a syslog line at all");
  analyzer.AddHwerrLine("garbage with quite a long tail to truncate");
  const auto& sink = analyzer.quarantine();
  EXPECT_EQ(sink.total(), 4u);
  ASSERT_EQ(sink.entries().size(), 4u);
  EXPECT_EQ(sink.entries()[0].source, LogSource::kTorque);
  EXPECT_EQ(sink.entries()[0].line_number, 1u);
  EXPECT_FALSE(sink.entries()[0].reason.empty());
  EXPECT_LE(sink.entries()[3].line.size(), 16u);  // capped capture
  EXPECT_EQ(sink.count(LogSource::kSyslog), 1u);
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.quarantined, 4u);
  EXPECT_FALSE(summary.ingest.clean());
}

TEST_F(IngestHardeningTest, QuarantineOverflowCountedNotStored) {
  LogDiverConfig config;
  config.ingest.quarantine.max_entries = 2;
  StreamingAnalyzer analyzer(machine_, config);
  for (int i = 0; i < 5; ++i) analyzer.AddTorqueLine("garbage");
  EXPECT_EQ(analyzer.quarantine().entries().size(), 2u);
  EXPECT_EQ(analyzer.quarantine().total(), 5u);
  EXPECT_EQ(analyzer.quarantine().overflow(), 3u);
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.quarantined, 5u);
  EXPECT_EQ(summary.ingest.quarantine_overflow, 3u);
}

TEST_F(IngestHardeningTest, FailFastClosesDirtySource) {
  LogDiverConfig config;
  config.ingest.policy = DegradationPolicy::kFailFast;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;
  StreamingAnalyzer analyzer(machine_, config);
  for (int i = 0; i < 3; ++i) {
    analyzer.AddSyslogLine("definitely not a syslog line at all");
  }
  EXPECT_FALSE(analyzer.ingest_status().ok());
  // The source is closed: even a well-formed line is discarded (counted).
  analyzer.AddSyslogLine(
      "Apr  3 12:00:00 c0-0c0s1n1 Machine check events logged, corrected");
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.budget_exhausted_sources, 1u);
  EXPECT_EQ(summary.ingest.lines_dropped_after_budget, 1u);
  EXPECT_FALSE(summary.ingest_status.ok());
  EXPECT_NE(summary.ingest_status.ToString().find("error budget"),
            std::string::npos);
  // Other sources keep flowing.
  StreamingAnalyzer fresh(machine_, config);
  for (int i = 0; i < 3; ++i) fresh.AddSyslogLine("garbage line here x");
  fresh.AddAlpsLine(PlaceLine(9, 1364800000));
  fresh.AddAlpsLine(ExitLine(9, 1364801000));
  EXPECT_EQ(fresh.Finalize().metrics.total_runs, 1u);
}

TEST_F(IngestHardeningTest, QuarantineAndContinueKeepsAnalyzing) {
  LogDiverConfig config;
  config.ingest.policy = DegradationPolicy::kQuarantineAndContinue;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;
  StreamingAnalyzer analyzer(machine_, config);
  for (int i = 0; i < 3; ++i) {
    analyzer.AddAlpsLine("definitely not an alps line");
  }
  analyzer.AddAlpsLine(PlaceLine(9, 1364800000));
  analyzer.AddAlpsLine(ExitLine(9, 1364801000));
  const auto summary = analyzer.Finalize();
  EXPECT_TRUE(summary.ingest_status.ok());
  EXPECT_EQ(summary.ingest.budget_exhausted_sources, 1u);
  EXPECT_EQ(summary.ingest.lines_dropped_after_budget, 0u);
  EXPECT_EQ(summary.metrics.total_runs, 1u);  // the clean tail still counts
}

TEST_F(IngestHardeningTest, PendingRunsEvictedAtCap) {
  LogDiverConfig config;
  config.ingest.max_pending_runs = 4;
  StreamingAnalyzer analyzer(machine_, config);
  for (int i = 0; i < 10; ++i) {
    const std::int64_t t = 1364800000 + i * 60;
    analyzer.AddAlpsLine(PlaceLine(100 + i, t));
    analyzer.AddAlpsLine(ExitLine(100 + i, t + 30));
  }
  const auto summary = analyzer.Finalize();
  // Force-classified early, but never lost: all ten runs are reported.
  EXPECT_EQ(summary.ingest.evicted_pending_runs, 6u);
  EXPECT_EQ(summary.metrics.total_runs, 10u);
}

TEST_F(IngestHardeningTest, TupleBufferEvictedAtCap) {
  LogDiverConfig config;
  config.ingest.max_buffered_tuples = 4;
  StreamingAnalyzer analyzer(machine_, config);
  const std::string cname =
      machine_.node(machine_.nodes_of_type(NodeType::kXE).front())
          .cname.ToString();
  for (int i = 0; i < 10; ++i) {
    const std::int64_t t = 1364800000 + i * 3600;  // 1 h apart: 10 tuples
    analyzer.AddHwerrLine(std::to_string(t) + "|machine_check|" + cname +
                          "|fatal|bank=4");
  }
  analyzer.Advance(TimePoint(1364800000 + 20 * 3600));
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.ingest.evicted_tuples, 6u);
  // The evicted tuples were already folded into the aggregates.
  EXPECT_EQ(summary.coalesce_stats.tuples, 10u);
}

TEST_F(IngestHardeningTest, BatchFailFastAborts) {
  LogDiverConfig config;
  config.ingest.policy = DegradationPolicy::kFailFast;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;
  const LogDiver diver(machine_, config);
  LogSet logs;
  for (int i = 0; i < 4; ++i) logs.syslog.push_back("garbage line here x");
  const auto result = diver.Analyze(logs);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("error budget"),
            std::string::npos);
}

TEST_F(IngestHardeningTest, BatchQuarantineContinues) {
  LogDiverConfig config;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;
  const LogDiver diver(machine_, config);
  LogSet logs;
  for (int i = 0; i < 4; ++i) logs.syslog.push_back("garbage line here x");
  logs.alps.push_back(PlaceLine(9, 1364800000));
  logs.alps.push_back(ExitLine(9, 1364801000));
  const auto result = diver.Analyze(logs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->ingest.quarantined, 4u);
  EXPECT_EQ(result->ingest.budget_exhausted_sources, 1u);
  ASSERT_EQ(result->quarantine.size(), 4u);
  EXPECT_EQ(result->quarantine[0].source, LogSource::kSyslog);
  EXPECT_EQ(result->metrics.total_runs, 1u);
  EXPECT_EQ(result->metrics.ingest.quarantined, 4u);
}

TEST_F(IngestHardeningTest, CleanStreamLeavesCountersZero) {
  StreamingAnalyzer analyzer(machine_, LogDiverConfig{});
  analyzer.AddTorqueLine(TorqueLine('S', 0));
  analyzer.AddAlpsLine(PlaceLine(9, 1364800000));
  analyzer.AddAlpsLine(ExitLine(9, 1364801000));
  analyzer.Advance(TimePoint(1364802000));
  const auto summary = analyzer.Finalize();
  EXPECT_TRUE(summary.ingest.clean());
  EXPECT_TRUE(summary.ingest_status.ok());
  EXPECT_EQ(summary.metrics.total_runs, 1u);
}

}  // namespace
}  // namespace ld
