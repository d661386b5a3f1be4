#include "logdiver/resume.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/torque_parser.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

TEST(CrashPointTest, ArmRemainingDisarm) {
  DisarmCrashPoint();
  EXPECT_FALSE(CrashPointArmed());
  EXPECT_EQ(CrashPointRemaining(), 0u);

  ArmCrashPoint(5);
  EXPECT_TRUE(CrashPointArmed());
  EXPECT_EQ(CrashPointRemaining(), 5u);
  CrashPoint("test");  // 4 left — well short of triggering
  CrashPoint("test");
  EXPECT_EQ(CrashPointRemaining(), 3u);

  DisarmCrashPoint();
  EXPECT_FALSE(CrashPointArmed());
  CrashPoint("test");  // disarmed: a no-op, not a countdown
  EXPECT_EQ(CrashPointRemaining(), 0u);
}

TEST(CrashSupervisorTest, CleanChildRunsOnce) {
  const auto outcome =
      CrashSupervisor::Run([](int attempt) { return attempt == 0 ? 0 : 99; });
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.crashes, 0);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(CrashSupervisorTest, OrdinaryFailurePassesThroughUnretried) {
  // A tripped error budget (or any plain failure) must not be retried:
  // rerunning a deterministic failure is an infinite loop.
  const auto outcome = CrashSupervisor::Run([](int) { return 3; });
  EXPECT_EQ(outcome.exit_code, 3);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.crashes, 0);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(CrashSupervisorTest, CrashIsRestartedUntilClean) {
  // Crash (exit >= 128) twice, then succeed.
  const auto outcome = CrashSupervisor::Run(
      [](int attempt) { return attempt < 2 ? kCrashExitCode : 0; });
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.attempts, 3);
  EXPECT_EQ(outcome.crashes, 2);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(CrashSupervisorTest, HungChildIsKilledAndRetried) {
  // A child that stops making progress must not hang the supervisor:
  // the wall-clock deadline escalates to SIGKILL and the death is
  // handled like a crash — retried, and absorbed if the retry is clean.
  CrashSupervisor::Options options;
  options.timeout_ms = 200;
  const auto outcome = CrashSupervisor::Run(
      [](int attempt) -> int {
        if (attempt == 0) {
          ArmHangPoint(1);
          CrashPoint("test");  // parks forever; only SIGKILL ends it
        }
        return 0;
      },
      options);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_EQ(outcome.crashes, 1);
  EXPECT_EQ(outcome.hangs_killed, 1);
  EXPECT_FALSE(outcome.exhausted);
}

TEST(CrashSupervisorTest, FastChildNeverTripsTheTimeout) {
  CrashSupervisor::Options options;
  options.timeout_ms = 60000;
  const auto outcome = CrashSupervisor::Run([](int) { return 0; }, options);
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.hangs_killed, 0);
}

TEST(CrashSupervisorTest, ExhaustionAfterRestartBudget) {
  CrashSupervisor::Options options;
  options.max_restarts = 2;
  const auto outcome =
      CrashSupervisor::Run([](int) { return kCrashExitCode; }, options);
  EXPECT_TRUE(outcome.exhausted);
  EXPECT_EQ(outcome.exit_code, kCrashExitCode);
  EXPECT_EQ(outcome.attempts, 3);  // initial run + 2 restarts
  EXPECT_EQ(outcome.crashes, 3);
}

class ResumeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(909);
    config.workload.target_app_runs = 500;
    machine_ = new Machine(MakeMachine(config));
    // Process-unique path: ctest runs each TEST_F in its own process and
    // may run them concurrently; a shared bundle dir races remove_all
    // against another process's read.
    bundle_dir_ = new std::string(testing::TempDir() + "resume_test_bundle_" +
                                  std::to_string(::getpid()));
    std::filesystem::remove_all(*bundle_dir_);
    auto bundle = WriteBundle(*machine_, config, *bundle_dir_);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*bundle_dir_);
    delete bundle_dir_;
    delete machine_;
    bundle_dir_ = nullptr;
    machine_ = nullptr;
  }

  static Machine* machine_;
  static std::string* bundle_dir_;
};

Machine* ResumeTest::machine_ = nullptr;
std::string* ResumeTest::bundle_dir_ = nullptr;

TEST_F(ResumeTest, UninterruptedRunNeedsNoSnapshots) {
  ResumeOptions options;  // no snapshot dir
  auto result = RunResumableAnalysis(*machine_, LogDiverConfig{},
                                     StreamInputs::FromBundleDir(*bundle_dir_),
                                     options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->total_lines, 0u);
  EXPECT_GT(result->summary.reconstruct_stats.runs, 0u);
  EXPECT_EQ(result->snapshots_written, 0u);
  EXPECT_EQ(result->resumed_generation, 0u);
}

TEST_F(ResumeTest, CrashResumeReproducesBaselineBitForBit) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  auto baseline =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, {});
  ASSERT_TRUE(baseline.ok());
  const std::uint32_t want_report =
      FingerprintReport(baseline->summary.metrics);
  const std::uint32_t want_ingest =
      FingerprintIngest(baseline->summary.ingest);

  const std::string snap_dir = testing::TempDir() + "resume_test_snaps";
  std::filesystem::remove_all(snap_dir);
  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  options.snapshot_interval = baseline->total_lines / 7 + 1;

  const auto outcome = CrashSupervisor::Run([&](int attempt) -> int {
    if (attempt == 0) {
      ArmCrashPoint(baseline->total_lines / 2);
    } else {
      DisarmCrashPoint();
    }
    auto result =
        RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
    if (!result.ok()) return 2;
    if (attempt > 0 && result->resumed_generation == 0) return 3;
    return FingerprintReport(result->summary.metrics) == want_report &&
                   FingerprintIngest(result->summary.ingest) == want_ingest
               ? 0
               : 1;
  });
  EXPECT_EQ(outcome.exit_code, 0);
  EXPECT_EQ(outcome.crashes, 1);
  EXPECT_EQ(outcome.attempts, 2);
  EXPECT_FALSE(outcome.exhausted);
  std::filesystem::remove_all(snap_dir);
}

TEST_F(ResumeTest, SnapshotFromDifferentBundleIsRejected) {
  // Offsets past the end of the (smaller) input files prove the
  // snapshot belongs elsewhere; resuming must fail loudly, not replay
  // garbage.  The snapshot is stamped with the *correct* bundle
  // fingerprint so it reaches the offset check (a wrong fingerprint
  // would be skipped earlier — next test).
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  auto fingerprint = BundlePartitionFingerprint(inputs, 0);
  ASSERT_TRUE(fingerprint.ok());

  const std::string snap_dir = testing::TempDir() + "resume_test_wrong";
  std::filesystem::remove_all(snap_dir);
  SnapshotStore store(snap_dir);
  SnapshotWriter w;
  w.U32(1);  // resume-state version
  for (int s = 0; s < 4; ++s) w.U64(1u << 30);  // absurd offsets
  {
    StreamingAnalyzer empty(*machine_, LogDiverConfig{});
    empty.Snapshot(w);
  }
  ASSERT_TRUE(store.Write(w.bytes(), *fingerprint).ok());

  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  auto result =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  EXPECT_FALSE(result.ok());
  std::filesystem::remove_all(snap_dir);
}

TEST_F(ResumeTest, MismatchedFingerprintSnapshotIsSkippedNotLoaded) {
  // A structurally intact snapshot computed from *different* input is
  // as unusable as a torn one: the fingerprint gate skips it and the
  // analysis restarts from scratch instead of restoring foreign state.
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const std::string snap_dir = testing::TempDir() + "resume_test_foreign";
  std::filesystem::remove_all(snap_dir);
  SnapshotStore store(snap_dir);
  SnapshotWriter w;
  w.U32(1);  // resume-state version
  for (int s = 0; s < 4; ++s) w.U64(0);
  {
    StreamingAnalyzer empty(*machine_, LogDiverConfig{});
    empty.Snapshot(w);
  }
  ASSERT_TRUE(store.Write(w.bytes(), /*fingerprint=*/0xDEADBEEF).ok());

  auto baseline =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, {});
  ASSERT_TRUE(baseline.ok());

  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  auto result =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->resumed_generation, 0u);  // fresh start
  EXPECT_EQ(result->lines_skipped, 0u);
  EXPECT_EQ(FingerprintReport(result->summary.metrics),
            FingerprintReport(baseline->summary.metrics));
  std::filesystem::remove_all(snap_dir);
}

// --- replay order on damaged input ---------------------------------

TEST(ClaimedTrackerTest, ClaimFollowsTheParseOutcome) {
  ClaimedTracker tracker(2013);
  const auto claim = [&](LogSource source, std::string_view line) {
    return tracker.ParseAndClaim(source, line).claimed;
  };
  const std::string_view good =
      "1365000000|machine_check|c0-0c0s1n2|corrected|bank=4";
  const std::string_view skipped =
      "1365000500|future_category|c0-0c0s1n2|corrected|bank=4";
  const std::string_view malformed = "1365000900|machine_check";
  EXPECT_EQ(claim(LogSource::kHwerr, malformed), TimePoint());
  EXPECT_EQ(claim(LogSource::kHwerr, good), TimePoint(1365000000));
  // Skipped and malformed lines carry the last record's time.
  EXPECT_EQ(claim(LogSource::kHwerr, skipped), TimePoint(1365000000));
  EXPECT_EQ(claim(LogSource::kHwerr, malformed), TimePoint(1365000000));
  // The carry is per source.
  EXPECT_EQ(claim(LogSource::kAlps, malformed), TimePoint());
}

TEST(ClaimedTrackerTest, TheClaimCarriesTheOneParse) {
  ClaimedTracker tracker(2013);
  const std::string_view line =
      "1365000000|machine_check|c0-0c0s1n2|corrected|bank=4";
  ClaimedLine hwerr = tracker.ParseAndClaim(LogSource::kHwerr, line);
  const auto* parsed = std::get_if<HwerrParser::Parsed>(&hwerr.parsed);
  ASSERT_NE(parsed, nullptr);
  ASSERT_TRUE(parsed->ok());
  ASSERT_TRUE(parsed->value().has_value());
  EXPECT_EQ((*parsed)->value().time, hwerr.claimed);
  // A syslog claim reads only the stamp; the analyzer parses the line.
  const ClaimedLine syslog = tracker.ParseAndClaim(
      LogSource::kSyslog, "Apr  3 10:00:00 c0-0c0s1n2 kernel: hello");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(syslog.parsed));
  EXPECT_EQ(syslog.claimed.ToIso(), "2013-04-03T10:00:00");
}

// The merge order as it was before each line was parsed once: every
// line claimed up front with a throwaway ClaimedTracker, the earliest
// claimed head winning (strict `<` toward the lowest source).  Returns
// the source of each merged line, in order, and each line's claim.
struct OracleOrder {
  std::vector<LogSource> picks;
  std::vector<TimePoint> times;
};

OracleOrder ClaimAllMergeOrder(const LogSetView& lines, int base_year) {
  ClaimedTracker tracker(base_year);
  std::vector<TimePoint> claimed[kNumLogSources];
  for (std::size_t s = 0; s < kNumLogSources; ++s) {
    const auto source = static_cast<LogSource>(s);
    for (const std::string_view line : lines.lines(source)) {
      claimed[s].push_back(tracker.ParseAndClaim(source, line).claimed);
    }
  }
  OracleOrder order;
  std::size_t heads[kNumLogSources] = {};
  for (;;) {
    int pick = -1;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      if (heads[s] >= claimed[s].size()) continue;
      if (pick < 0 || claimed[s][heads[s]] < claimed[pick][heads[pick]]) {
        pick = static_cast<int>(s);
      }
    }
    if (pick < 0) break;
    order.picks.push_back(static_cast<LogSource>(pick));
    order.times.push_back(claimed[pick][heads[pick]]);
    ++heads[pick];
  }
  return order;
}

// The oracle replay: the ClaimAll merge order fed through Add*Line, the
// ReplaySchedule's advances keyed off the total line count.
std::uint64_t OracleReplay(const LogSetView& lines, int base_year,
                           const ReplaySchedule& schedule,
                           StreamingAnalyzer& analyzer) {
  const OracleOrder order = ClaimAllMergeOrder(lines, base_year);
  std::size_t heads[kNumLogSources] = {};
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < order.picks.size(); ++i) {
    const LogSource source = order.picks[i];
    const std::string_view line =
        lines.lines(source)[heads[static_cast<std::size_t>(source)]++];
    switch (source) {
      case LogSource::kTorque: analyzer.AddTorqueLine(line); break;
      case LogSource::kAlps: analyzer.AddAlpsLine(line); break;
      case LogSource::kSyslog: analyzer.AddSyslogLine(line); break;
      case LogSource::kHwerr: analyzer.AddHwerrLine(line); break;
    }
    ++total;
    if (schedule.advance_every != 0 && total % schedule.advance_every == 0) {
      analyzer.Advance(order.times[i] - schedule.reorder_slack);
    }
  }
  return total;
}

bool ParsesAsMalformed(LogSource source, std::string_view line) {
  switch (source) {
    case LogSource::kTorque: return !TorqueParser::Parse(line).ok();
    case LogSource::kAlps: return !AlpsParser::Parse(line).ok();
    case LogSource::kHwerr: return !HwerrParser::Parse(line).ok();
    case LogSource::kSyslog: return false;
  }
  return false;
}

std::vector<std::uint8_t> SummaryBytes(const AnalysisSummary& summary) {
  SnapshotWriter w;
  SaveAnalysisSummary(w, summary);
  return w.TakeBytes();
}

// A small bundle damaged by every LogCorruptor operator, so many source
// heads are malformed or skipped lines that claim a carried time.
class DamagedReplayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(4242);
    config.workload.target_app_runs = 400;
    machine_ = new Machine(MakeMachine(config));
    auto campaign = RunCampaign(*machine_, config);
    ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
    logs_ = new LogSet;
    logs_->torque = std::move(campaign->logs.torque);
    logs_->alps = std::move(campaign->logs.alps);
    logs_->syslog = std::move(campaign->logs.syslog);
    logs_->hwerr = std::move(campaign->logs.hwerr);
    CorruptorConfig corrupt;
    corrupt.rate = 0.05;
    corrupt.ops = LogCorruptor::AllOps();
    // Short reorder and skew distances keep the watermark near the
    // claims.  A line displaced far ahead pins the watermark in the
    // future, every later advance becomes a clamped regression, and a
    // resumed pass that claimed a line differently would not show.
    corrupt.max_reorder_distance = 3;
    corrupt.max_skew_seconds = 60;
    const CorruptionLedger ledger = LogCorruptor(corrupt).CorruptBundle(
        *logs_, Rng(4242).Fork("corruptor"));
    ASSERT_GT(ledger.total(CorruptionOp::kGarble), 0u);
    ASSERT_GT(ledger.total(CorruptionOp::kTruncate), 0u);

    bundle_dir_ = new std::string(testing::TempDir() + "resume_damaged_" +
                                  std::to_string(::getpid()));
    std::filesystem::remove_all(*bundle_dir_);
    std::filesystem::create_directories(*bundle_dir_);
    const std::pair<const char*, const std::vector<std::string>*> files[] = {
        {"torque.log", &logs_->torque},
        {"alps.log", &logs_->alps},
        {"syslog.log", &logs_->syslog},
        {"hwerr.log", &logs_->hwerr}};
    for (const auto& [name, lines] : files) {
      std::ofstream out(*bundle_dir_ + "/" + name, std::ios::binary);
      for (const std::string& line : *lines) out << line << '\n';
    }
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*bundle_dir_);
    delete bundle_dir_;
    delete logs_;
    delete machine_;
    bundle_dir_ = nullptr;
    logs_ = nullptr;
    machine_ = nullptr;
  }

  static Machine* machine_;
  static LogSet* logs_;
  static std::string* bundle_dir_;
};

Machine* DamagedReplayTest::machine_ = nullptr;
LogSet* DamagedReplayTest::logs_ = nullptr;
std::string* DamagedReplayTest::bundle_dir_ = nullptr;

TEST_F(DamagedReplayTest, ReplayLinesMatchesTheClaimAllOracle) {
  const LogSetView views(*logs_);
  std::uint64_t malformed = 0;
  for (const LogSource source :
       {LogSource::kTorque, LogSource::kAlps, LogSource::kHwerr}) {
    for (const std::string_view line : views.lines(source)) {
      malformed += ParsesAsMalformed(source, line) ? 1 : 0;
    }
  }
  ASSERT_GT(malformed, 20u);

  const LogDiverConfig config;
  for (const std::uint64_t advance_every : {500u, 37u}) {
    ReplaySchedule schedule;
    schedule.advance_every = advance_every;
    StreamingAnalyzer oracle(*machine_, config);
    StreamingAnalyzer replayed(*machine_, config);
    const std::uint64_t want_total =
        OracleReplay(views, config.syslog_base_year, schedule, oracle);
    EXPECT_EQ(ReplayLines(views, config, schedule, replayed), want_total);

    SnapshotWriter want_state;
    SnapshotWriter got_state;
    oracle.Snapshot(want_state);
    replayed.Snapshot(got_state);
    EXPECT_TRUE(want_state.bytes() == got_state.bytes())
        << "analyzer state diverged, advance_every=" << advance_every;

    const AnalysisSummary want = oracle.Finalize();
    const AnalysisSummary got = replayed.Finalize();
    EXPECT_GT(want.ingest.quarantined, 0u);
    EXPECT_TRUE(SummaryBytes(want) == SummaryBytes(got))
        << "summary diverged, advance_every=" << advance_every;
  }
}

TEST_F(DamagedReplayTest, CrashResumeOnMalformedHeadsIsBitIdentical) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  // Advancing on every line puts each merged line's claim into the
  // watermark, so a resumed pass that claimed any line differently from
  // the uninterrupted one shows in the summary (as a watermark
  // regression or a different finalization point).
  ResumeOptions uninterrupted;
  uninterrupted.schedule.advance_every = 1;
  auto baseline = RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs,
                                       uninterrupted);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<std::uint8_t> want = SummaryBytes(baseline->summary);

  // Snapshot points from the oracle's merge order: the heads a
  // snapshot at total T records are the per-source counts of the first
  // T merged lines.  Find one where a restored Torque/ALPS/hwerr head
  // sits on a malformed line, so the resumed pass must rebuild that
  // source's carried claim from the skipped prefix.
  const std::uint64_t interval = 97;
  const LogSetView views(*logs_);
  const OracleOrder order = ClaimAllMergeOrder(views, 2013);
  ASSERT_EQ(order.picks.size(), baseline->total_lines);
  std::uint64_t malformed_head_at = 0;
  std::size_t heads[kNumLogSources] = {};
  for (std::uint64_t total = 1; total <= order.picks.size(); ++total) {
    ++heads[static_cast<std::size_t>(order.picks[total - 1])];
    if (total % interval != 0 || total < order.picks.size() / 3) continue;
    for (std::size_t s = 0; s < kNumLogSources; ++s) {
      const auto source = static_cast<LogSource>(s);
      if (heads[s] < views.lines(source).size() &&
          ParsesAsMalformed(source, views.lines(source)[heads[s]])) {
        malformed_head_at = total;
      }
    }
    if (malformed_head_at != 0) break;
  }
  ASSERT_NE(malformed_head_at, 0u);

  // Crash points count every boundary: one per merged line plus one
  // after each snapshot write.  Crash right after the malformed-head
  // snapshot lands, mid-interval after it, and early and late in the
  // pass; each resume restores the newest snapshot before the crash.
  const auto boundaries = [&](std::uint64_t lines) {
    return lines + lines / interval;
  };
  const std::uint64_t n = baseline->total_lines;
  const std::uint64_t crash_points[] = {
      boundaries(malformed_head_at), boundaries(malformed_head_at) + 40,
      boundaries(interval) + 3, boundaries(n - n % interval) - 1};
  const std::uint64_t want_skipped[] = {malformed_head_at, malformed_head_at,
                                        interval, n - n % interval - interval};
  for (std::size_t c = 0; c < std::size(crash_points); ++c) {
    const std::string snap_dir = testing::TempDir() + "resume_damaged_snaps_" +
                                 std::to_string(::getpid());
    std::filesystem::remove_all(snap_dir);
    ResumeOptions options = uninterrupted;
    options.snapshot_dir = snap_dir;
    options.snapshot_interval = interval;
    const auto outcome = CrashSupervisor::Run([&](int attempt) -> int {
      if (attempt == 0) {
        ArmCrashPoint(crash_points[c]);
      } else {
        DisarmCrashPoint();
      }
      auto result =
          RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
      if (!result.ok()) return 2;
      if (attempt > 0 && result->lines_skipped != want_skipped[c]) return 3;
      if (result->total_lines != n) return 4;
      return SummaryBytes(result->summary) == want ? 0 : 1;
    });
    EXPECT_EQ(outcome.exit_code, 0) << "crash point " << crash_points[c];
    EXPECT_EQ(outcome.crashes, 1) << "crash point " << crash_points[c];
    EXPECT_EQ(outcome.attempts, 2) << "crash point " << crash_points[c];
    std::filesystem::remove_all(snap_dir);
  }
}

}  // namespace
}  // namespace ld
