#include "logdiver/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/scoring.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

/// A (time, source, line) stream merged across all four logs, the way a
/// tailer would deliver them.
struct TimedLine {
  TimePoint time;
  int source;  // 0 torque, 1 alps, 2 syslog, 3 hwerr
  std::string line;
};

TimePoint SyslogLineTime(const std::string& line, int year) {
  auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15), year);
  return t.ok() ? *t : TimePoint(0);
}

std::vector<TimedLine> MergeStreams(const EmittedLogs& logs, int year) {
  std::vector<TimedLine> merged;
  TorqueParser torque;
  for (const std::string& line : logs.torque) {
    auto rec = torque.ParseLine(line);
    if (rec.ok() && rec->has_value()) {
      merged.push_back({(*rec)->time, 0, line});
    }
  }
  AlpsParser alps;
  for (const std::string& line : logs.alps) {
    auto rec = alps.ParseLine(line);
    if (rec.ok() && rec->has_value()) {
      merged.push_back({(*rec)->time, 1, line});
    }
  }
  for (const std::string& line : logs.syslog) {
    merged.push_back({SyslogLineTime(line, year), 2, line});
  }
  HwerrParser hwerr;
  for (const std::string& line : logs.hwerr) {
    auto rec = hwerr.ParseLine(line);
    if (rec.ok() && rec->has_value()) {
      merged.push_back({(*rec)->time, 3, line});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TimedLine& a, const TimedLine& b) {
                     return a.time < b.time;
                   });
  return merged;
}

class StreamingTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    config_ = new ScenarioConfig(SmallScenario(404));
    machine_ = new Machine(MakeMachine(*config_));
    auto campaign = RunCampaign(*machine_, *config_);
    ASSERT_TRUE(campaign.ok());
    campaign_ = new Campaign(std::move(*campaign));

    LogDiver diver(*machine_, LogDiverConfig{});
    auto batch = diver.Analyze(LogSet{campaign_->logs.torque,
                                      campaign_->logs.alps,
                                      campaign_->logs.syslog,
                                      campaign_->logs.hwerr});
    ASSERT_TRUE(batch.ok());
    batch_ = new AnalysisResult(std::move(*batch));
  }

  static void TearDownTestSuite() {
    delete batch_;
    delete campaign_;
    delete machine_;
    delete config_;
    batch_ = nullptr;
    campaign_ = nullptr;
    machine_ = nullptr;
    config_ = nullptr;
  }

  /// Streams the whole campaign chronologically, advancing the watermark
  /// every `advance_every` lines; returns the summary and the peak state.
  AnalysisSummary Stream(std::size_t advance_every,
                         StreamingAnalyzer::StateSize* peak = nullptr) {
    StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
    const auto merged = MergeStreams(campaign_->logs, 2013);
    StreamingAnalyzer::StateSize max_size;
    std::size_t since_advance = 0;
    for (const TimedLine& item : merged) {
      switch (item.source) {
        case 0: analyzer.AddTorqueLine(item.line); break;
        case 1: analyzer.AddAlpsLine(item.line); break;
        case 2: analyzer.AddSyslogLine(item.line); break;
        case 3: analyzer.AddHwerrLine(item.line); break;
      }
      if (++since_advance >= advance_every) {
        since_advance = 0;
        analyzer.Advance(item.time - Duration::Minutes(5));  // reorder slack
        const auto size = analyzer.state_size();
        max_size.open_jobs = std::max(max_size.open_jobs, size.open_jobs);
        max_size.open_runs = std::max(max_size.open_runs, size.open_runs);
        max_size.pending_runs =
            std::max(max_size.pending_runs, size.pending_runs);
        max_size.buffered_tuples =
            std::max(max_size.buffered_tuples, size.buffered_tuples);
      }
    }
    if (peak != nullptr) *peak = max_size;
    return analyzer.Finalize();
  }

  static ScenarioConfig* config_;
  static Machine* machine_;
  static Campaign* campaign_;
  static AnalysisResult* batch_;
};

ScenarioConfig* StreamingTest::config_ = nullptr;
Machine* StreamingTest::machine_ = nullptr;
Campaign* StreamingTest::campaign_ = nullptr;
AnalysisResult* StreamingTest::batch_ = nullptr;

TEST_F(StreamingTest, MatchesBatchHeadlineMetrics) {
  const auto summary = Stream(500);
  EXPECT_EQ(summary.reconstruct_stats.runs, batch_->runs.size());
  EXPECT_EQ(summary.metrics.total_runs, batch_->metrics.total_runs);
  EXPECT_DOUBLE_EQ(summary.metrics.system_failure_fraction,
                   batch_->metrics.system_failure_fraction);
  EXPECT_DOUBLE_EQ(summary.metrics.lost_node_hours_fraction,
                   batch_->metrics.lost_node_hours_fraction);
  EXPECT_NEAR(summary.metrics.total_node_hours,
              batch_->metrics.total_node_hours, 1e-6);
}

TEST_F(StreamingTest, MatchesBatchBreakdownTables) {
  const auto summary = Stream(1000);
  ASSERT_EQ(summary.metrics.outcomes.size(), batch_->metrics.outcomes.size());
  for (std::size_t i = 0; i < summary.metrics.outcomes.size(); ++i) {
    EXPECT_EQ(summary.metrics.outcomes[i].outcome,
              batch_->metrics.outcomes[i].outcome);
    EXPECT_EQ(summary.metrics.outcomes[i].runs,
              batch_->metrics.outcomes[i].runs);
  }
  ASSERT_EQ(summary.metrics.attribution.size(),
            batch_->metrics.attribution.size());
  for (std::size_t i = 0; i < summary.metrics.attribution.size(); ++i) {
    EXPECT_EQ(summary.metrics.attribution[i].cause,
              batch_->metrics.attribution[i].cause);
    EXPECT_EQ(summary.metrics.attribution[i].xe_failures +
                  summary.metrics.attribution[i].xk_failures,
              batch_->metrics.attribution[i].xe_failures +
                  batch_->metrics.attribution[i].xk_failures);
  }
}

TEST_F(StreamingTest, StateStaysBounded) {
  StreamingAnalyzer::StateSize peak;
  (void)Stream(200, &peak);
  // The campaign has thousands of runs; retained state must track the
  // *concurrency*, not the total volume.
  EXPECT_LT(peak.pending_runs, 600u);
  EXPECT_LT(peak.open_runs, 600u);
  EXPECT_LT(peak.buffered_tuples, 2500u);
}

TEST_F(StreamingTest, AdvanceFrequencyDoesNotChangeResults) {
  const auto coarse = Stream(5000);
  const auto fine = Stream(100);
  EXPECT_EQ(coarse.metrics.total_runs, fine.metrics.total_runs);
  EXPECT_DOUBLE_EQ(coarse.metrics.system_failure_fraction,
                   fine.metrics.system_failure_fraction);
}

TEST_F(StreamingTest, NoAdvanceStillFinalizesEverything) {
  // Never advancing the watermark degenerates to batch-at-Finalize.
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  for (const std::string& line : campaign_->logs.torque) {
    analyzer.AddTorqueLine(line);
  }
  for (const std::string& line : campaign_->logs.alps) {
    analyzer.AddAlpsLine(line);
  }
  for (const std::string& line : campaign_->logs.syslog) {
    analyzer.AddSyslogLine(line);
  }
  for (const std::string& line : campaign_->logs.hwerr) {
    analyzer.AddHwerrLine(line);
  }
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.metrics.total_runs, batch_->metrics.total_runs);
  EXPECT_DOUBLE_EQ(summary.metrics.system_failure_fraction,
                   batch_->metrics.system_failure_fraction);
}

TEST_F(StreamingTest, ScoresWellAgainstGroundTruth) {
  // Classification quality through the streaming path must match the
  // batch floor set in the end-to-end test.
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  const auto merged = MergeStreams(campaign_->logs, 2013);
  // Collect classifications via a parallel batch classify at the end by
  // re-running the streaming metrics only; quality is asserted via the
  // headline numbers against the batch result (scored separately).
  for (const TimedLine& item : merged) {
    switch (item.source) {
      case 0: analyzer.AddTorqueLine(item.line); break;
      case 1: analyzer.AddAlpsLine(item.line); break;
      case 2: analyzer.AddSyslogLine(item.line); break;
      case 3: analyzer.AddHwerrLine(item.line); break;
    }
  }
  const auto summary = analyzer.Finalize();
  const ScoreReport batch_score = ScoreClassification(
      batch_->runs, batch_->classified, campaign_->injection.truth);
  // System-failure counts agree with the (scored) batch pipeline.
  std::uint64_t stream_system = 0, batch_system = 0;
  for (const auto& row : summary.metrics.outcomes) {
    if (row.outcome == AppOutcome::kSystemFailure) stream_system = row.runs;
  }
  for (const auto& row : batch_->metrics.outcomes) {
    if (row.outcome == AppOutcome::kSystemFailure) batch_system = row.runs;
  }
  EXPECT_EQ(stream_system, batch_system);
  EXPECT_GT(batch_score.system_f1, 0.85);
}

TEST_F(StreamingTest, OrphanTerminationsCounted) {
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  analyzer.AddAlpsLine(
      "2013-04-01T03:10:05 apsys[5]: apid=999999 exited, status=0 signal=0");
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.reconstruct_stats.orphan_terminations, 1u);
  EXPECT_EQ(summary.metrics.total_runs, 0u);
}

TEST_F(StreamingTest, RunDyingInAHeldIncidentWaitsForItsRecovery) {
  // A run dies ten minutes into a two-hour Lustre outage.  A watermark
  // far past its finalize guard must not classify it while the syslog
  // parser still holds the incident open; once the recovery line closes
  // it, the incident explains the death.
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  analyzer.AddAlpsLine(
      "2013-04-01T01:00:00 apsched[5]: placeApp apid=7 jobid=1 user=u "
      "cmd=c nodect=1 nids=0");
  analyzer.AddSyslogLine(
      "Apr  1 02:00:00 sonexion LustreError: ost12 failing over");
  analyzer.AddAlpsLine(
      "2013-04-01T02:10:00 apsys[5]: apid=7 exited, status=1 signal=0");
  EXPECT_EQ(analyzer.Advance(TimePoint::FromCalendar(2013, 4, 1, 3, 30)), 0u);
  EXPECT_EQ(analyzer.state_size().pending_runs, 1u);
  analyzer.AddSyslogLine(
      "Apr  1 04:00:00 sonexion Lustre: ost12 recovered after failover");
  EXPECT_EQ(analyzer.Advance(TimePoint::FromCalendar(2013, 4, 1, 6, 0)), 1u);
  const auto summary = analyzer.Finalize();
  ASSERT_EQ(summary.metrics.outcomes.size(), 1u);
  EXPECT_EQ(summary.metrics.outcomes[0].outcome, AppOutcome::kSystemFailure);
}

TEST_F(StreamingTest, UnterminatedRunsSurfaceAsUnknown) {
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  analyzer.AddAlpsLine(
      "2013-04-01T02:10:05 apsched[5]: placeApp apid=7 jobid=1 user=u "
      "cmd=c nodect=1 nids=0");
  const auto summary = analyzer.Finalize();
  EXPECT_EQ(summary.reconstruct_stats.missing_termination, 1u);
  ASSERT_EQ(summary.metrics.outcomes.size(), 1u);
  EXPECT_EQ(summary.metrics.outcomes[0].outcome, AppOutcome::kUnknown);
}

TEST_F(StreamingTest, InternPoolDoesNotGrowPerJob) {
  // logdiverd tenants run this path for weeks, and the intern pool never
  // frees: job-unique strings (job names, commands, kill reasons) must
  // not reach it.
  // Only the user and queue vocabulary may grow the pool.
  constexpr int kJobs = 200;
  const char* const kUsers[] = {"intern-user-a", "intern-user-b"};
  const char* const kQueues[] = {"intern-queue-a", "intern-queue-b"};
  StreamingAnalyzer analyzer(*machine_, LogDiverConfig{});
  const std::size_t before = InternedCount();
  const std::int64_t base = 1364783400;  // 2013-04-01T02:30:00
  for (int i = 0; i < kJobs; ++i) {
    const std::string jobid = std::to_string(900000 + i);
    const std::string apid = std::to_string(700000 + i);
    const std::string user = kUsers[i % 2];
    const std::string job = "user=" + user + " queue=" + kQueues[i % 2] +
                            " jobname=intern-job-" + std::to_string(i);
    const std::int64_t start = base + 60 * i;
    const std::int64_t end = start + 600;
    const std::string epochs = " ctime=" + std::to_string(start - 30) +
                               " start=" + std::to_string(start);
    analyzer.AddTorqueLine("04/01/2013 02:30:00;S;" + jobid + ".bw;" + job +
                           epochs + " Resource_List.nodect=2");
    analyzer.AddAlpsLine(TimePoint(start).ToIso() +
                         " apsched[5]: placeApp apid=" + apid +
                         " jobid=" + jobid + " user=" + user +
                         " cmd=intern-cmd-" + std::to_string(i) +
                         ".exe nodect=2 nids=0-1");
    analyzer.AddAlpsLine(TimePoint(end).ToIso() + " apsys[5]: apid=" + apid +
                         (i % 2 ? " killed, reason=intern-reason-" +
                                      std::to_string(i) + " nid=1"
                                : std::string(" exited, status=0 signal=0")));
    analyzer.AddTorqueLine("04/01/2013 02:40:00;E;" + jobid + ".bw;" + job +
                           epochs + " end=" + std::to_string(end) +
                           " Exit_status=0 Resource_List.nodect=2");
  }
  const std::size_t grown = InternedCount() - before;
  const auto summary = analyzer.Finalize();
  // The lines were all applied: every job joined its run.
  EXPECT_EQ(summary.torque_stats.records, 2u * kJobs);
  EXPECT_EQ(summary.alps_stats.records, 2u * kJobs);
  EXPECT_EQ(summary.reconstruct_stats.runs, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(summary.reconstruct_stats.missing_job, 0u);
  EXPECT_LE(grown, 4u) << "the intern pool grew per job";
}

}  // namespace
}  // namespace ld
