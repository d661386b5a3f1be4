#include "logdiver/resume.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "common/crashpoint.hpp"
#include "logdiver/snapshot.hpp"
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

}  // namespace
}  // namespace ld
