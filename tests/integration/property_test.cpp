// Property and fuzz tests over the pipeline's robustness invariants.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/interval.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

/// A string_view per line (the parsers' ParseLines takes views).
std::vector<std::string_view> Views(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

// ---------------------------------------------------------------- parsers

/// Randomly mutates a line: truncation, character garbling, field
/// duplication, or total replacement with binary junk.
std::string Mutate(const std::string& line, Rng& rng) {
  switch (rng.UniformInt(5)) {
    case 0:  // truncate
      return line.substr(0, rng.UniformInt(line.size() + 1));
    case 1: {  // garble one character
      if (line.empty()) return line;
      std::string out = line;
      out[rng.UniformInt(out.size())] =
          static_cast<char>(rng.UniformInt(1, 255));
      return out;
    }
    case 2:  // duplicate the line onto itself
      return line + line;
    case 3: {  // binary junk
      std::string out;
      for (int i = 0; i < 40; ++i) {
        out += static_cast<char>(rng.UniformInt(1, 255));
      }
      return out;
    }
    default:  // swap two halves
      if (line.size() < 2) return line;
      return line.substr(line.size() / 2) + line.substr(0, line.size() / 2);
  }
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, ParsersNeverThrowAndAccountEveryLine) {
  const ScenarioConfig config = SmallScenario(17);
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());

  Rng rng(GetParam());
  auto fuzz = [&rng](std::vector<std::string> lines) {
    for (auto& line : lines) {
      if (rng.Bernoulli(0.3)) line = Mutate(line, rng);
    }
    return lines;
  };

  {
    TorqueParser parser;
    const auto lines = fuzz(campaign->logs.torque);
    EXPECT_NO_THROW(parser.ParseLines(Views(lines)));
    EXPECT_EQ(parser.stats().lines, lines.size());
    EXPECT_EQ(parser.stats().records + parser.stats().skipped +
                  parser.stats().malformed,
              parser.stats().lines);
  }
  {
    AlpsParser parser;
    const auto lines = fuzz(campaign->logs.alps);
    EXPECT_NO_THROW(parser.ParseLines(Views(lines)));
    EXPECT_EQ(parser.stats().records + parser.stats().skipped +
                  parser.stats().malformed,
              parser.stats().lines);
  }
  {
    SyslogParser parser(2013);
    const auto lines = fuzz(campaign->logs.syslog);
    EXPECT_NO_THROW(parser.ParseLines(Views(lines)));
    EXPECT_EQ(parser.stats().records + parser.stats().skipped +
                  parser.stats().malformed,
              parser.stats().lines);
  }
  {
    HwerrParser parser;
    const auto lines = fuzz(campaign->logs.hwerr);
    EXPECT_NO_THROW(parser.ParseLines(Views(lines)));
    EXPECT_EQ(parser.stats().records + parser.stats().skipped +
                  parser.stats().malformed,
              parser.stats().lines);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

/// Every line of the corrupted bundle must be accounted as a record,
/// skipped, or malformed — never thrown on, never silently vanished.
class CorruptorFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CorruptorFuzz, CorruptedBundlesNeverThrowAndAccountEveryLine) {
  const ScenarioConfig config = SmallScenario(17);
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());

  CorruptorConfig corruption;
  corruption.rate = 0.5;  // much dirtier than any plausible field bundle
  corruption.ops = LogCorruptor::AllOps();
  const LogCorruptor corruptor(corruption);
  const CorruptionLedger ledger =
      corruptor.CorruptBundle(campaign->logs, Rng(GetParam()));
  EXPECT_GT(ledger.total(), 0u);

  auto check = [](auto& parser, const std::vector<std::string>& lines) {
    EXPECT_NO_THROW(parser.ParseLines(Views(lines)));
    EXPECT_EQ(parser.stats().lines, lines.size());
    EXPECT_EQ(parser.stats().records + parser.stats().skipped +
                  parser.stats().malformed,
              parser.stats().lines);
  };
  TorqueParser torque;
  check(torque, campaign->logs.torque);
  AlpsParser alps;
  check(alps, campaign->logs.alps);
  SyslogParser syslog(2013);
  check(syslog, campaign->logs.syslog);
  HwerrParser hwerr;
  check(hwerr, campaign->logs.hwerr);

  // The full batch pipeline survives under the default
  // quarantine-and-continue policy and discloses every reject.
  LogDiver diver(machine, {});
  auto analysis = diver.Analyze(LogSet{campaign->logs.torque,
                                       campaign->logs.alps,
                                       campaign->logs.syslog,
                                       campaign->logs.hwerr});
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->ingest.quarantined,
            analysis->torque_stats.malformed + analysis->alps_stats.malformed +
                analysis->syslog_stats.malformed +
                analysis->hwerr_stats.malformed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptorFuzz, ::testing::Values(1, 2, 3, 5));

// ------------------------------------------- benign-corruption equivalence

/// Duplication and bounded reordering are *benign* for a streaming
/// consumer that sorts within its reorder slack: dedup absorbs the
/// replays, so the classification must equal the clean batch run's.
TEST(StreamingEquivalence, BenignCorruptionMatchesCleanBatch) {
  const ScenarioConfig config = SmallScenario(58);
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());

  LogDiver diver(machine, {});
  auto clean = diver.Analyze(LogSet{campaign->logs.torque,
                                    campaign->logs.alps,
                                    campaign->logs.syslog,
                                    campaign->logs.hwerr});
  ASSERT_TRUE(clean.ok());

  CorruptorConfig corruption;
  corruption.rate = 0.1;
  corruption.ops = {CorruptionOp::kDuplicate, CorruptionOp::kReorder};
  corruption.max_reorder_distance = 20;
  const LogCorruptor corruptor(corruption);
  const CorruptionLedger ledger =
      corruptor.CorruptBundle(campaign->logs, Rng(41));
  ASSERT_GT(ledger.total(CorruptionOp::kDuplicate), 0u);
  ASSERT_GT(ledger.total(CorruptionOp::kReorder), 0u);

  // Deliver the dirty bundle sorted by claimed time (the tailer's reorder
  // slack restores order; duplicates remain).
  struct TimedLine {
    TimePoint time;
    int source;
    std::string line;
  };
  std::vector<TimedLine> merged;
  {
    TorqueParser parser;
    for (const std::string& line : campaign->logs.torque) {
      auto rec = parser.ParseLine(line);
      if (rec.ok() && rec->has_value()) merged.push_back({(*rec)->time, 0, line});
    }
    AlpsParser alps;
    for (const std::string& line : campaign->logs.alps) {
      auto rec = alps.ParseLine(line);
      if (rec.ok() && rec->has_value()) merged.push_back({(*rec)->time, 1, line});
    }
    for (const std::string& line : campaign->logs.syslog) {
      auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15), 2013);
      merged.push_back({t.ok() ? *t : TimePoint(0), 2, line});
    }
    HwerrParser hwerr;
    for (const std::string& line : campaign->logs.hwerr) {
      auto rec = hwerr.ParseLine(line);
      if (rec.ok() && rec->has_value()) merged.push_back({(*rec)->time, 3, line});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TimedLine& a, const TimedLine& b) {
                     return a.time < b.time;
                   });

  StreamingAnalyzer analyzer(machine, LogDiverConfig{});
  for (const TimedLine& item : merged) {
    switch (item.source) {
      case 0: analyzer.AddTorqueLine(item.line); break;
      case 1: analyzer.AddAlpsLine(item.line); break;
      case 2: analyzer.AddSyslogLine(item.line); break;
      case 3: analyzer.AddHwerrLine(item.line); break;
    }
  }
  const auto summary = analyzer.Finalize();

  // Same classifications as the clean batch, and the replays disclosed.
  EXPECT_EQ(summary.metrics.total_runs, clean->metrics.total_runs);
  EXPECT_DOUBLE_EQ(summary.metrics.system_failure_fraction,
                   clean->metrics.system_failure_fraction);
  EXPECT_DOUBLE_EQ(summary.metrics.lost_node_hours_fraction,
                   clean->metrics.lost_node_hours_fraction);
  EXPECT_GT(summary.ingest.duplicate_placements +
                summary.ingest.duplicate_terminations +
                summary.ingest.duplicate_job_records,
            0u);
  EXPECT_TRUE(summary.ingest_status.ok());
}

// --------------------------------------------------------------- coalesce

TEST(CoalesceProperty, EventCountConserved) {
  const Machine machine = Machine::Testbed(96, 24);
  Rng rng(5);
  std::vector<ErrorRecord> records;
  for (int i = 0; i < 2000; ++i) {
    ErrorRecord rec;
    rec.time = TimePoint(rng.UniformInt(0, 100000));
    rec.category = static_cast<ErrorCategory>(rng.UniformInt(0, 8));
    rec.severity = static_cast<Severity>(rng.UniformInt(0, 2));
    rec.scope = LocScope::kNode;
    rec.location = Intern(
        machine
            .node(static_cast<NodeIndex>(rng.UniformInt(machine.node_count())))
            .cname.ToString());
    rec.source = rng.Bernoulli(0.5) ? LogSource::kSyslog : LogSource::kHwerr;
    records.push_back(rec);
  }
  CoalesceStats stats;
  const auto tuples = CoalesceEvents(machine, records, {}, &stats);
  std::uint64_t members = 0;
  for (const ErrorTuple& t : tuples) {
    members += t.count;
    EXPECT_LE(t.first, t.last);
    EXPECT_FALSE(t.nodes.empty());
  }
  EXPECT_EQ(members + stats.unresolved_locations, records.size());
  // Sorted output.
  for (std::size_t i = 1; i < tuples.size(); ++i) {
    EXPECT_LE(tuples[i - 1].first, tuples[i].first);
  }
}

// -------------------------------------------------------------- correlator

TEST(CorrelatorProperty, CleanExitsNeverBecomeFailures) {
  const Machine machine = Machine::Testbed(96, 24);
  Rng rng(9);
  std::vector<AppRun> runs;
  for (int i = 0; i < 500; ++i) {
    AppRun run;
    run.apid = static_cast<ApId>(i + 1);
    run.nodes = {static_cast<NodeIndex>(rng.UniformInt(96))};
    run.nodect = 1;
    run.start = TimePoint(rng.UniformInt(0, 50000));
    run.end = run.start + Duration(rng.UniformInt(10, 5000));
    run.has_termination = true;
    run.exit_code = 0;
    run.exit_signal = 0;
    runs.push_back(run);
  }
  // Saturate the machine with fatal tuples everywhere.
  std::vector<ErrorTuple> tuples;
  for (int i = 0; i < 300; ++i) {
    ErrorTuple t;
    t.id = static_cast<std::uint64_t>(i + 1);
    t.category = ErrorCategory::kMemoryUE;
    t.severity = Severity::kFatal;
    t.scope = LocScope::kNode;
    t.nodes = {static_cast<NodeIndex>(rng.UniformInt(96))};
    t.first = t.last = TimePoint(rng.UniformInt(0, 60000));
    t.count = 1;
    tuples.push_back(t);
  }
  const Correlator correlator(machine, {});
  for (const ClassifiedRun& cls : correlator.Classify(runs, tuples)) {
    EXPECT_EQ(cls.outcome, AppOutcome::kSuccess);
  }
}

TEST(CorrelatorProperty, ClassificationIsDeterministic) {
  const ScenarioConfig config = SmallScenario(31);
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());
  LogDiver diver(machine, {});
  LogSet logs{campaign->logs.torque, campaign->logs.alps,
              campaign->logs.syslog, campaign->logs.hwerr};
  auto a = diver.Analyze(logs);
  auto b = diver.Analyze(logs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->classified.size(), b->classified.size());
  for (std::size_t i = 0; i < a->classified.size(); ++i) {
    EXPECT_EQ(a->classified[i].outcome, b->classified[i].outcome);
    EXPECT_EQ(a->classified[i].cause, b->classified[i].cause);
    EXPECT_EQ(a->classified[i].tuple_id, b->classified[i].tuple_id);
  }
}

// ------------------------------------------------------------ interval set

TEST(IntervalSetProperty, MatchesNaiveImplementation) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    IntervalSet set;
    std::vector<bool> naive(2000, false);
    for (int i = 0; i < 60; ++i) {
      const std::int64_t a = rng.UniformInt(0, 1900);
      const std::int64_t b = a + rng.UniformInt(0, 99);
      set.Add(Interval{TimePoint(a), TimePoint(b)});
      for (std::int64_t t = a; t < b; ++t) naive[static_cast<std::size_t>(t)] = true;
    }
    std::int64_t naive_total = 0;
    for (bool covered : naive) naive_total += covered ? 1 : 0;
    EXPECT_EQ(set.TotalLength().seconds(), naive_total);
    for (std::int64_t t = 0; t < 2000; t += 7) {
      EXPECT_EQ(set.Contains(TimePoint(t)),
                naive[static_cast<std::size_t>(t)])
          << "t=" << t << " trial=" << trial;
    }
    // Disjointness and order of the stored intervals.
    const auto& ivs = set.intervals();
    for (std::size_t i = 1; i < ivs.size(); ++i) {
      EXPECT_LT(ivs[i - 1].end, ivs[i].start);
    }
  }
}

// ------------------------------------------------------- zero-fault sanity

TEST(PipelineProperty, FaultFreeCampaignHasNoSystemFailures) {
  ScenarioConfig config = SmallScenario(3);
  config.workload.target_app_runs = 1500;
  config.faults = FaultModelConfig{};
  config.faults.xe_fatal_per_node_hour = 0.0;
  config.faults.xk_fatal_per_node_hour = 0.0;
  config.faults.xe_app_fatal_per_hour = 0.0;
  config.faults.xk_app_fatal_per_hour = 0.0;
  config.faults.lustre_incidents_per_day = 0.0;
  config.faults.blade_faults_per_day = 0.0;
  config.faults.link_failures_per_day = 0.0;
  config.faults.corrected_mce_per_day = 0.0;
  config.faults.corrected_gpu_per_day = 0.0;
  config.faults.link_degrade_per_day = 0.0;

  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());
  EXPECT_TRUE(campaign->logs.syslog.empty());
  EXPECT_TRUE(campaign->logs.hwerr.empty());

  LogDiver diver(machine, {});
  LogSet logs{campaign->logs.torque, campaign->logs.alps,
              campaign->logs.syslog, campaign->logs.hwerr};
  auto analysis = diver.Analyze(logs);
  ASSERT_TRUE(analysis.ok());
  for (const OutcomeRow& row : analysis->metrics.outcomes) {
    EXPECT_NE(row.outcome, AppOutcome::kSystemFailure);
  }
  EXPECT_EQ(analysis->metrics.system_failure_fraction, 0.0);
}

}  // namespace
}  // namespace ld
