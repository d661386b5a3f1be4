#include "logdiver/resume.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "common/crashpoint.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/claims.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/syslog_parser.hpp"
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
  w.U32(2);  // resume-state version
  for (int s = 0; s < 4; ++s) w.U64(1u << 30);  // absurd offsets
  for (int s = 0; s < 4; ++s) w.Time(TimePoint());  // claim carries
  {
    StreamingAnalyzer empty(*machine_, LogDiverConfig{});
    w(empty);
  }
  ASSERT_TRUE(store.Write(w.bytes(), *fingerprint).ok());

  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  auto result =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  EXPECT_FALSE(result.ok());
  std::filesystem::remove_all(snap_dir);
}

TEST_F(ResumeTest, UndecodableNewestSnapshotFallsBackOneGeneration) {
  // The newest generation passes its CRC but claims 2^32-1 scale points:
  // the resume rejects it before anything is sized by the count,
  // restores the generation before, and still reproduces the baseline.
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  auto baseline =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, {});
  ASSERT_TRUE(baseline.ok());
  const std::string snap_dir = testing::TempDir() + "resume_test_bad_count";
  std::filesystem::remove_all(snap_dir);
  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  options.snapshot_interval = baseline->total_lines / 5 + 1;
  ASSERT_TRUE(
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options).ok());
  SnapshotStore store(snap_dir);
  const std::vector<std::uint64_t> gens = store.Generations();
  ASSERT_EQ(gens.size(), 2u);
  std::uint64_t fingerprint = 0;
  auto payload = ReadSnapshotFile(store.PathFor(gens[1]), &fingerprint);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  // The XE curve's count and first bucket: u32 8, then lo = hi = 1.
  const std::vector<std::uint8_t> xe = {8, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0};
  const auto at = std::search(payload->begin(), payload->end(), xe.begin(),
                              xe.end());
  ASSERT_NE(at, payload->end());
  std::fill_n(at, 4, 0xFF);
  ASSERT_TRUE(WriteDurableFile(store.PathFor(gens[1]), kSnapshotFormat,
                               *payload, fingerprint)
                  .ok());

  auto result =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->resumed_generation, gens[0]);
  EXPECT_EQ(result->snapshots_rejected, 1u);
  EXPECT_EQ(FingerprintReport(result->summary.metrics),
            FingerprintReport(baseline->summary.metrics));
  std::filesystem::remove_all(snap_dir);
}

TEST_F(ResumeTest, VersionOneSnapshotFailsWithTheVersionMessage) {
  // Resume payload v1 rebuilt each claim carry from the covered prefix;
  // v2 stores the carries.  A v1 directory fails loudly.
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  auto fingerprint = BundlePartitionFingerprint(inputs, 0);
  ASSERT_TRUE(fingerprint.ok());
  const std::string snap_dir = testing::TempDir() + "resume_test_v1";
  std::filesystem::remove_all(snap_dir);
  SnapshotStore store(snap_dir);
  SnapshotWriter w;
  w.U32(1);  // resume-state version
  for (int s = 0; s < 4; ++s) w.U64(0);
  {
    StreamingAnalyzer empty(*machine_, LogDiverConfig{});
    w(empty);
  }
  ASSERT_TRUE(store.Write(w.bytes(), *fingerprint).ok());

  ResumeOptions options;
  options.snapshot_dir = snap_dir;
  auto result =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(result.status().message(),
            "snapshot resume-state version 1, this build speaks 2");
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
  w.U32(2);  // resume-state version
  for (int s = 0; s < 4; ++s) w.U64(0);
  for (int s = 0; s < 4; ++s) w.Time(TimePoint());  // claim carries
  {
    StreamingAnalyzer empty(*machine_, LogDiverConfig{});
    w(empty);
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
  // A syslog claim reads the stamp its parse holds; the parse holds the
  // pre-record the analyzer's syslog parser dates.
  const ClaimedLine syslog = tracker.ParseAndClaim(
      LogSource::kSyslog,
      "Apr  3 10:00:00 c0-0c0s1n2 kernel: Machine check events logged");
  const auto* pre = std::get_if<SyslogParser::Parsed>(&syslog.parsed);
  ASSERT_NE(pre, nullptr);
  ASSERT_TRUE(pre->claim.has_value());
  ASSERT_TRUE(pre->pre.ok());
  ASSERT_TRUE(pre->pre->has_value());
  EXPECT_EQ((*pre->pre)->rec.category, ErrorCategory::kMachineCheck);
  EXPECT_EQ((*pre->pre)->stamp.day, 3);
  EXPECT_EQ(pre->month_seen, 4);
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

/// True for a Torque/ALPS/hwerr line whose parse holds a record, the
/// only kind of line whose record time becomes its source's carried
/// claim (a syslog line claims its stamp).
bool HoldsRecord(LogSource source, std::string_view line) {
  const LineParse parsed = ClaimedTracker::Parse(source, line);
  return std::visit(
      [](const auto& p) {
        using P = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<P, std::monostate> ||
                      std::is_same_v<P, SyslogParser::Parsed>) {
          return false;
        } else {
          return p.ok() && p->has_value();
        }
      },
      parsed);
}

std::vector<std::uint8_t> SummaryBytes(const AnalysisSummary& summary) {
  SnapshotWriter w;
  w(summary);
  return w.TakeBytes();
}

void WriteLogSet(const LogSet& logs, const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::pair<const char*, const std::vector<std::string>*> files[] = {
      {"torque.log", &logs.torque},
      {"alps.log", &logs.alps},
      {"syslog.log", &logs.syslog},
      {"hwerr.log", &logs.hwerr}};
  for (const auto& [name, lines] : files) {
    std::ofstream out(dir + "/" + name, std::ios::binary);
    for (const std::string& line : *lines) out << line << '\n';
  }
}

/// The first merged-line count, in the oracle's merge order, at which
/// `want(source, lines, head)` holds for some Torque/ALPS/hwerr source
/// whose next unconsumed line is `head`; 0 when it never does.
std::uint64_t FindCut(
    const LogSetView& views, const OracleOrder& order,
    const std::function<bool(LogSource, std::span<const std::string_view>,
                             std::size_t)>& want) {
  std::size_t heads[kNumLogSources] = {};
  for (std::uint64_t total = 1; total <= order.picks.size(); ++total) {
    ++heads[static_cast<std::size_t>(order.picks[total - 1])];
    for (const LogSource source :
         {LogSource::kTorque, LogSource::kAlps, LogSource::kHwerr}) {
      if (want(source, views.lines(source),
               heads[static_cast<std::size_t>(source)])) {
        return total;
      }
    }
  }
  return 0;
}

/// Crashes a pass over `bundle_dir` right after its one snapshot at
/// `cut` merged lines lands, resumes from that snapshot, and expects
/// the uninterrupted pass's summary bytes.  Advancing on every line
/// puts each merged line's claim into the watermark, so a resumed pass
/// that claimed any line differently shows in the summary.
void ExpectResumeAtCutIsBitIdentical(const Machine& machine,
                                     const std::string& bundle_dir,
                                     std::uint64_t cut, int threads) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(bundle_dir);
  LogDiverConfig config;
  config.threads = threads;
  ResumeOptions options;
  options.schedule.advance_every = 1;
  auto baseline = RunResumableAnalysis(machine, config, inputs, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<std::uint8_t> want = SummaryBytes(baseline->summary);

  const std::string snap_dir =
      testing::TempDir() + "resume_cut_snaps_" + std::to_string(::getpid());
  std::filesystem::remove_all(snap_dir);
  options.snapshot_dir = snap_dir;
  const auto outcome = CrashSupervisor::Run([&](int attempt) -> int {
    if (attempt == 0) {
      // One crash point per merged line, one after each snapshot write.
      ArmCrashPoint(cut + 1);
      options.snapshot_interval = cut;
    } else {
      // The resumed pass only needs to load the snapshot.
      DisarmCrashPoint();
      options.snapshot_interval = 0;
    }
    auto result = RunResumableAnalysis(machine, config, inputs, options);
    if (!result.ok()) return 2;
    if (attempt > 0 && result->lines_skipped != cut) return 3;
    if (result->total_lines != baseline->total_lines) return 4;
    return SummaryBytes(result->summary) == want ? 0 : 1;
  });
  EXPECT_EQ(outcome.exit_code, 0) << "cut " << cut << ", threads " << threads;
  EXPECT_EQ(outcome.crashes, 1) << "cut " << cut << ", threads " << threads;
  EXPECT_EQ(outcome.attempts, 2) << "cut " << cut << ", threads " << threads;
  std::filesystem::remove_all(snap_dir);
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
    WriteLogSet(*logs_, *bundle_dir_);
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
    want_state(oracle);
    got_state(replayed);
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

TEST_F(DamagedReplayTest, ResumeAtACutEndingInARunOfRecordlessLines) {
  // The covered prefix of some source ends in malformed or skipped
  // lines, the run goes on past the cut, and a record comes before it:
  // the resumed head claims the carry from the record behind the run.
  const LogSetView views(*logs_);
  const OracleOrder order = ClaimAllMergeOrder(views, 2013);
  const std::uint64_t cut = FindCut(
      views, order,
      [](LogSource source, std::span<const std::string_view> lines,
         std::size_t head) {
        if (head < 3 || head >= lines.size()) return false;
        for (std::size_t i = head - 2; i <= head; ++i) {
          if (HoldsRecord(source, lines[i])) return false;
        }
        for (std::size_t i = 0; i + 2 < head; ++i) {
          if (HoldsRecord(source, lines[i])) return true;
        }
        return false;
      });
  ASSERT_NE(cut, 0u);
  ExpectResumeAtCutIsBitIdentical(*machine_, *bundle_dir_, cut, 1);
}

TEST_F(DamagedReplayTest, ResumeAtACutWhereASourceHasNoRecordYet) {
  // hwerr.log opens with lines that hold no record (malformed, skipped,
  // malformed): a cut inside that run leaves the resumed hwerr carry at
  // the epoch, as a pass that never stopped has it there.
  LogSet logs = *logs_;
  logs.hwerr.insert(logs.hwerr.begin(),
                    {"1365000900|machine_check",
                     "1365000500|future_category|c0-0c0s1n2|corrected|bank=4",
                     "not a hardware error line"});
  const std::string dir = testing::TempDir() + "resume_recordless_" +
                          std::to_string(::getpid());
  WriteLogSet(logs, dir);
  const LogSetView views(logs);
  const OracleOrder order = ClaimAllMergeOrder(views, 2013);
  const std::uint64_t cut = FindCut(
      views, order,
      [](LogSource source, std::span<const std::string_view> lines,
         std::size_t head) {
        if (head < 2 || head >= lines.size()) return false;
        for (std::size_t i = 0; i <= head; ++i) {
          if (HoldsRecord(source, lines[i])) return false;
        }
        return true;
      });
  ASSERT_NE(cut, 0u);
  ExpectResumeAtCutIsBitIdentical(*machine_, dir, cut, 1);
  std::filesystem::remove_all(dir);
}

/// Every generation in `snap_dir`, oldest first.
std::vector<std::vector<std::uint8_t>> ReadGenerations(
    const std::string& snap_dir) {
  std::vector<std::vector<std::uint8_t>> generations;
  const SnapshotStore store(snap_dir);
  for (const std::uint64_t generation : store.Generations()) {
    std::ifstream in(store.PathFor(generation), std::ios::binary);
    generations.emplace_back(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  }
  return generations;
}

TEST_F(DamagedReplayTest, ResumeAtACutBeforeAYearCrossingSyslogStamp) {
  // A syslog stamp whose day runs past the year's end (day 370 would
  // fall in the next year) is malformed: the line is quarantined and
  // its claim keeps the carry from the line before.  Cut while that line
  // is the unread syslog head, the resumed pass must write every
  // snapshot generation and the summary as the uninterrupted one does.
  LogSet logs = *logs_;
  const std::size_t at = logs.syslog.size() / 4;
  ClaimedTracker tracker(2013);
  TimePoint before;
  for (std::size_t i = 0; i < at; ++i) {
    before = tracker.ParseAndClaim(LogSource::kSyslog, logs.syslog[i]).claimed;
  }
  static constexpr const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr",
                                            "May", "Jun", "Jul", "Aug",
                                            "Sep", "Oct", "Nov", "Dec"};
  const CalendarTime calendar = ToCalendar(before);
  logs.syslog.insert(logs.syslog.begin() + static_cast<std::ptrdiff_t>(at),
                     std::string(kMonths[calendar.month - 1]) +
                         " 370 10:00:00 c0-0c0s0n1 kernel: stray stamp");
  EXPECT_FALSE(SyslogParser(2013).ParseLine(logs.syslog[at]).ok());
  EXPECT_EQ(tracker.ParseAndClaim(LogSource::kSyslog, logs.syslog[at]).claimed,
            before);

  const std::string dir = testing::TempDir() + "resume_year_crossing_" +
                          std::to_string(::getpid());
  WriteLogSet(logs, dir);
  const LogSetView views(logs);
  const OracleOrder order = ClaimAllMergeOrder(views, 2013);
  std::uint64_t cut = 0;
  std::size_t syslog_head = 0;
  while (syslog_head < at) {
    syslog_head += order.picks[cut++] == LogSource::kSyslog ? 1 : 0;
  }
  ASSERT_GT(cut, 0u);

  // The uninterrupted pass and a pass that crashes right after its
  // first snapshot lands write every generation at the same lines; each
  // one, and the summary, must be the same bytes.
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);
  ResumeOptions options;
  options.schedule.advance_every = 1;
  options.snapshot_interval = cut;
  options.keep_generations = 1000;
  options.snapshot_dir = dir + "_uninterrupted";
  std::filesystem::remove_all(options.snapshot_dir);
  auto baseline =
      RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  const std::vector<std::uint8_t> want = SummaryBytes(baseline->summary);
  const auto want_generations = ReadGenerations(options.snapshot_dir);
  ASSERT_GE(want_generations.size(), 2u);
  std::filesystem::remove_all(options.snapshot_dir);

  options.snapshot_dir = dir + "_resumed";
  std::filesystem::remove_all(options.snapshot_dir);
  const auto outcome = CrashSupervisor::Run([&](int attempt) -> int {
    if (attempt == 0) {
      // One crash point per merged line, one after each snapshot write.
      ArmCrashPoint(cut + 1);
    } else {
      DisarmCrashPoint();
    }
    auto result =
        RunResumableAnalysis(*machine_, LogDiverConfig{}, inputs, options);
    if (!result.ok()) return 2;
    if (attempt > 0 && result->lines_skipped != cut) return 3;
    if (SummaryBytes(result->summary) != want) return 1;
    return ReadGenerations(options.snapshot_dir) == want_generations ? 0 : 4;
  });
  EXPECT_EQ(outcome.exit_code, 0) << "cut " << cut;
  EXPECT_EQ(outcome.crashes, 1) << "cut " << cut;
  EXPECT_EQ(outcome.attempts, 2) << "cut " << cut;
  std::filesystem::remove_all(options.snapshot_dir);
  std::filesystem::remove_all(dir);
}

// --- parse-ahead replay ---------------------------------------------

// The replay loop parses every source's lines a block ahead on a pool
// of more than one thread.  Every output byte must be the inline path's
// (one thread): summaries, every snapshot generation, line totals,
// fail-fast trips, early returns and resumes at block edges.
class ReplayParseAheadTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Enough runs for a snapshot at the default interval and several
    // parse-ahead blocks of ALPS and Torque lines.  The error processes
    // are scaled as `ldbench generate --noise-x 4 --incident-x 4` scales
    // them, so syslog spans several blocks too, and the campaign crosses
    // New Year, so its stamps roll over a year.
    ScenarioConfig config = SmallScenario(2323);
    config.workload.target_app_runs = 9000;
    config.workload.epoch = TimePoint::FromCalendar(2013, 12, 15);
    config.faults.corrected_mce_per_day *= 4;
    config.faults.link_degrade_per_day *= 4;
    config.faults.lustre_incidents_per_day *= 4;
    machine_ = new Machine(MakeMachine(config));
    auto campaign = RunCampaign(*machine_, config);
    ASSERT_TRUE(campaign.ok()) << campaign.status().ToString();
    clean_ = new LogSet;
    clean_->torque = std::move(campaign->logs.torque);
    clean_->alps = std::move(campaign->logs.alps);
    clean_->syslog = std::move(campaign->logs.syslog);
    clean_->hwerr = std::move(campaign->logs.hwerr);
    ASSERT_GT(clean_->alps.size(), 4 * kParseAheadLines);
    ASSERT_GT(clean_->torque.size(), 2 * kParseAheadLines);
    ASSERT_GT(clean_->syslog.size(), 4 * kParseAheadLines);
    damaged_ = new LogSet(*clean_);
    CorruptorConfig corrupt;
    corrupt.rate = 0.03;
    corrupt.ops = LogCorruptor::AllOps();
    corrupt.max_reorder_distance = 3;
    corrupt.max_skew_seconds = 60;
    LogCorruptor(corrupt).CorruptBundle(*damaged_,
                                        Rng(2323).Fork("corruptor"));
    const std::string base =
        testing::TempDir() + "parse_ahead_" + std::to_string(::getpid());
    clean_dir_ = new std::string(base + "_clean");
    damaged_dir_ = new std::string(base + "_damaged");
    WriteLogSet(*clean_, *clean_dir_);
    WriteLogSet(*damaged_, *damaged_dir_);
  }

  static void TearDownTestSuite() {
    std::filesystem::remove_all(*clean_dir_);
    std::filesystem::remove_all(*damaged_dir_);
    delete clean_dir_;
    delete damaged_dir_;
    delete clean_;
    delete damaged_;
    delete machine_;
  }

  struct Pass {
    std::vector<std::uint8_t> summary;
    std::vector<std::vector<std::uint8_t>> generations;
    std::uint64_t total_lines = 0;
  };

  /// A fresh snapshotted pass at `threads`, keeping every generation.
  static Pass RunPass(const std::string& bundle_dir, int threads,
                      std::uint64_t interval) {
    const std::string snap_dir = testing::TempDir() + "parse_ahead_snaps_" +
                                 std::to_string(::getpid());
    std::filesystem::remove_all(snap_dir);
    LogDiverConfig config;
    config.threads = threads;
    ResumeOptions options;
    options.snapshot_dir = snap_dir;
    options.snapshot_interval = interval;
    options.keep_generations = 1000;
    Pass pass;
    auto result = RunResumableAnalysis(
        *machine_, config, StreamInputs::FromBundleDir(bundle_dir), options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return pass;
    pass.summary = SummaryBytes(result->summary);
    pass.total_lines = result->total_lines;
    const SnapshotStore store(snap_dir);
    for (const std::uint64_t generation : store.Generations()) {
      std::ifstream in(store.PathFor(generation), std::ios::binary);
      pass.generations.emplace_back(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
    }
    std::filesystem::remove_all(snap_dir);
    return pass;
  }

  static Machine* machine_;
  static LogSet* clean_;
  static LogSet* damaged_;
  static std::string* clean_dir_;
  static std::string* damaged_dir_;
};

Machine* ReplayParseAheadTest::machine_ = nullptr;
LogSet* ReplayParseAheadTest::clean_ = nullptr;
LogSet* ReplayParseAheadTest::damaged_ = nullptr;
std::string* ReplayParseAheadTest::clean_dir_ = nullptr;
std::string* ReplayParseAheadTest::damaged_dir_ = nullptr;

TEST_F(ReplayParseAheadTest, EveryThreadCountWritesTheInlineBytes) {
  for (const std::string* dir : {clean_dir_, damaged_dir_}) {
    for (const std::uint64_t interval :
         {ResumeOptions().snapshot_interval, std::uint64_t{777}}) {
      const Pass inline_pass = RunPass(*dir, 1, interval);
      ASSERT_FALSE(inline_pass.generations.empty());
      for (const int threads : {2, 4}) {
        const Pass pass = RunPass(*dir, threads, interval);
        const std::string where = *dir + " interval " +
                                  std::to_string(interval) + " threads " +
                                  std::to_string(threads);
        EXPECT_EQ(pass.total_lines, inline_pass.total_lines) << where;
        EXPECT_TRUE(pass.summary == inline_pass.summary) << where;
        ASSERT_EQ(pass.generations.size(), inline_pass.generations.size())
            << where;
        for (std::size_t g = 0; g < pass.generations.size(); ++g) {
          EXPECT_TRUE(pass.generations[g] == inline_pass.generations[g])
              << where << " generation " << g + 1;
        }
      }
    }
  }
}

TEST_F(ReplayParseAheadTest, ReplayLinesTotalsMatchTheInlinePath) {
  const LogDiverConfig config;
  for (const LogSet* logs : {clean_, damaged_}) {
    const LogSetView views(*logs);
    StreamingAnalyzer inline_analyzer(*machine_, config);
    const std::uint64_t want_total =
        ReplayLines(views, config, ReplaySchedule{}, inline_analyzer);
    const std::vector<std::uint8_t> want =
        SummaryBytes(inline_analyzer.Finalize());
    for (const int threads : {2, 4}) {
      ThreadPool pool(threads);
      StreamingAnalyzer analyzer(*machine_, config);
      EXPECT_EQ(ReplayLines(views, config, ReplaySchedule{}, analyzer, &pool),
                want_total)
          << "threads " << threads;
      EXPECT_TRUE(SummaryBytes(analyzer.Finalize()) == want)
          << "threads " << threads;
    }
  }
}

TEST_F(ReplayParseAheadTest, FailFastTripWithBlocksInFlightMatchesInline) {
  // A tight fail-fast budget trips mid-stream, while parse-ahead blocks
  // of the tripped source are still in flight; the analyzer drops the
  // rest of that source the same way on every path.
  const auto run = [&](int threads) {
    LogDiverConfig config;
    config.threads = threads;
    config.ingest.policy = DegradationPolicy::kFailFast;
    config.ingest.budget.min_malformed = 5;
    config.ingest.budget.max_malformed_fraction = 0.001;
    return RunResumableAnalysis(*machine_, config,
                                StreamInputs::FromBundleDir(*damaged_dir_),
                                ResumeOptions{});
  };
  auto inline_pass = run(1);
  ASSERT_TRUE(inline_pass.ok()) << inline_pass.status().ToString();
  ASSERT_FALSE(inline_pass->summary.ingest_status.ok());
  ASSERT_GT(inline_pass->summary.ingest.lines_dropped_after_budget,
            kParseAheadLines);
  for (const int threads : {2, 4}) {
    auto pass = run(threads);
    ASSERT_TRUE(pass.ok()) << pass.status().ToString();
    EXPECT_EQ(pass->summary.ingest_status.ToString(),
              inline_pass->summary.ingest_status.ToString());
    EXPECT_TRUE(SummaryBytes(pass->summary) ==
                SummaryBytes(inline_pass->summary))
        << "threads " << threads;
  }
}

TEST_F(ReplayParseAheadTest, FailedSnapshotWriteDrainsInFlightBlocks) {
  // The snapshot directory cannot be created (its parent is a file), so
  // the first snapshot write fails and the replay returns early with
  // two blocks per source still parsing; they must finish before their
  // buffers die (the sanitizer builds catch a use after free here).
  const std::string file = testing::TempDir() + "parse_ahead_not_a_dir_" +
                           std::to_string(::getpid());
  { std::ofstream(file) << "x"; }
  LogDiverConfig config;
  config.threads = 4;
  for (const std::uint64_t interval :
       {std::uint64_t{1}, kParseAheadLines + 500}) {
    ResumeOptions options;
    options.snapshot_dir = file + "/snaps";
    options.snapshot_interval = interval;
    auto result = RunResumableAnalysis(
        *machine_, config, StreamInputs::FromBundleDir(*clean_dir_), options);
    EXPECT_FALSE(result.ok()) << "interval " << interval;
  }
  std::filesystem::remove(file);
}

TEST_F(ReplayParseAheadTest, SyslogEdgeCasesAtBlockEdgesMatchInline) {
  // The fixture's syslog crosses New Year.  Add a Lustre incident whose
  // error line and recovery line sit in different parse-ahead blocks,
  // and, around another block edge, stamps that do not parse: day 370,
  // too few fields, and a clock running past the 15-byte claim prefix
  // (the prefix claims; the line is malformed).
  LogSet logs = *clean_;
  std::vector<std::string>& syslog = logs.syslog;
  const auto crossing = std::adjacent_find(
      syslog.begin(), syslog.end(), [](const auto& a, const auto& b) {
        return a.starts_with("Dec") && b.starts_with("Jan");
      });
  ASSERT_NE(crossing, syslog.end());

  const std::size_t lustre_edge = 2 * kParseAheadLines;
  const std::string lustre_stamp = syslog[lustre_edge - 2].substr(0, 15);
  syslog.insert(
      syslog.begin() + static_cast<std::ptrdiff_t>(lustre_edge - 1),
      {lustre_stamp +
           " sonexion LustreError: 11-0: snx11003-OST0042: operation "
           "ost_write failed: service unavailable",
       lustre_stamp + " sonexion Lustre: snx11003-OST0042: service recovered"});

  const std::size_t stamp_edge = 3 * kParseAheadLines;
  const std::string stamp = syslog[stamp_edge - 2].substr(0, 15);
  const std::vector<std::string> malformed = {
      stamp.substr(0, 3) + " 370 " + stamp.substr(7) +
          " c0-0c0s0n1 kernel: stray stamp",
      stamp + " c0-0c0s0n1",
      stamp + ".250 c0-0c0s0n1 kernel: Machine check events logged"};
  syslog.insert(syslog.begin() + static_cast<std::ptrdiff_t>(stamp_edge - 1),
                malformed.begin(), malformed.end());
  for (const std::string& line : malformed) {
    EXPECT_FALSE(SyslogParser(2013).ParseLine(line).ok()) << line;
  }
  ClaimedTracker tracker(2013);
  EXPECT_EQ(tracker.ParseAndClaim(LogSource::kSyslog, malformed[2]).claimed,
            SyslogParser::ParseSyslogTime(stamp, 2013).value());

  const std::string dir = testing::TempDir() + "parse_ahead_syslog_" +
                          std::to_string(::getpid());
  WriteLogSet(logs, dir);
  const Pass inline_pass = RunPass(dir, 1, 777);
  ASSERT_FALSE(inline_pass.generations.empty());
  for (const int threads : {2, 4}) {
    const Pass pass = RunPass(dir, threads, 777);
    EXPECT_EQ(pass.total_lines, inline_pass.total_lines) << threads;
    EXPECT_TRUE(pass.summary == inline_pass.summary) << threads;
    EXPECT_TRUE(pass.generations == inline_pass.generations) << threads;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ReplayParseAheadTest, SyslogClaimsReadTheStampPrefix) {
  // The claim rule, over every line of a corrupted syslog stream: a line
  // of at least 15 bytes claims ParseSyslogTime of those bytes, dated
  // from the carry, when they parse; any other line keeps the carry.
  std::vector<std::string> syslog = clean_->syslog;
  CorruptorConfig corrupt;
  corrupt.rate = 0.2;
  corrupt.ops = LogCorruptor::AllOps();
  corrupt.max_reorder_distance = 3;
  corrupt.max_skew_seconds = 40 * 86400;  // skews cross month ends
  LogCorruptor(corrupt).CorruptStream(StreamDialect::kSyslog, "syslog",
                                      syslog, Rng(2323).Fork("claims"));
  syslog.insert(syslog.begin() + 100,
                {"Dec 370 10:00:00 c0-0c0s0n1 kernel: stray stamp",
                 "Dec 20 10:00:00", "Dec 20 10:00:0", "",
                 "Dec 20 10:00:00.250 c0-0c0s0n1 kernel: Machine check"});

  ClaimedTracker tracker(2013);
  TimePoint carry;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < syslog.size(); ++i) {
    const std::string_view line = syslog[i];
    const TimePoint before = carry;
    if (line.size() >= 15) {
      auto t = SyslogParser::ParseSyslogTime(line.substr(0, 15), 2013, carry);
      if (t.ok()) carry = *t;
    }
    kept += carry == before ? 1 : 0;
    ASSERT_EQ(tracker
                  .Claim(LogSource::kSyslog, line,
                         ClaimedTracker::Parse(LogSource::kSyslog, line))
                  .claimed,
              carry)
        << "line " << i << ": " << line;
  }
  EXPECT_GT(kept, 5u);
  EXPECT_GT(carry, TimePoint::FromCalendar(2014, 1, 1));
}

TEST_F(ReplayParseAheadTest, CrashAtABlockBoundaryResumesBitIdentically) {
  // Cuts where the ALPS head sits one line before, on and one line after
  // a parse-ahead block boundary: the crashed pass is mid hand-off and
  // the resumed pass starts its blocks at the restored offset.
  const LogSetView views(*clean_);
  const OracleOrder order = ClaimAllMergeOrder(views, 2013);
  for (const std::size_t alps_head :
       {kParseAheadLines - 1, kParseAheadLines, kParseAheadLines + 1}) {
    const std::uint64_t cut = FindCut(
        views, order,
        [alps_head](LogSource source, std::span<const std::string_view>,
                    std::size_t head) {
          return source == LogSource::kAlps && head == alps_head;
        });
    ASSERT_NE(cut, 0u);
    ExpectResumeAtCutIsBitIdentical(*machine_, *clean_dir_, cut, 4);
  }
}

}  // namespace
}  // namespace ld
