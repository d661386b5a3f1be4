// Fleet subsystem tests: shard ownership, partial-snapshot records and
// the supervisor's happy path + validation edges.  The full worker-fault
// sweep lives in bench/fleet_campaign (ctest label `fleet`).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <set>
#include <string>

#include "common/obs/obs.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

TEST(ShardSpec, EveryIdIsOwnedByExactlyOneShard) {
  for (std::uint32_t count : {1u, 2u, 3u, 8u}) {
    for (std::uint64_t id = 0; id < 1000; ++id) {
      int owners = 0;
      for (std::uint32_t i = 0; i < count; ++i) {
        const ShardSpec spec{i, count};
        if (spec.OwnsRun(id)) ++owners;
      }
      EXPECT_EQ(owners, 1) << "id " << id << " count " << count;
    }
  }
}

TEST(ShardSpec, InactiveSpecOwnsEverything) {
  const ShardSpec spec;  // count <= 1: the serial analyzer
  EXPECT_FALSE(spec.active());
  EXPECT_TRUE(spec.OwnsRun(0));
  EXPECT_TRUE(spec.OwnsRun(12345));
  EXPECT_TRUE(spec.OwnsTuple(999));
}

class PartialFileTest : public ::testing::Test {
 protected:
  std::string Path(const std::string& name) const {
    return testing::TempDir() + "partial_test_" + name;
  }
  fleet::PartialAggregates Make() const {
    fleet::PartialAggregates p;
    p.header.shard_index = 2;
    p.header.shard_count = 4;
    p.header.fingerprint = 0xABCDEF0123456789ull;
    p.summary.reconstruct_stats.runs = 77;
    p.summary.reconstruct_stats.missing_termination = 3;
    p.summary.torque_stats.lines = 123;
    p.summary.coalesce_stats.tuples = 9;
    p.summary.ingest.quarantined = 5;
    return p;
  }
};

TEST_F(PartialFileTest, RoundTripsThroughDisk) {
  const std::string path = Path("roundtrip.ldsnap");
  const fleet::PartialAggregates p = Make();
  ASSERT_TRUE(fleet::WritePartialFile(path, p).ok());
  auto read = fleet::ReadPartialFile(path, {});
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->header.shard_index, 2u);
  EXPECT_EQ(read->header.shard_count, 4u);
  EXPECT_EQ(read->header.fingerprint, 0xABCDEF0123456789ull);
  EXPECT_EQ(read->summary.reconstruct_stats.runs, 77u);
  EXPECT_EQ(read->summary.reconstruct_stats.missing_termination, 3u);
  EXPECT_EQ(read->summary.torque_stats.lines, 123u);
  EXPECT_EQ(read->summary.coalesce_stats.tuples, 9u);
  EXPECT_EQ(read->summary.ingest.quarantined, 5u);

  // A v2 partial (per-field counters, no AnalysisSummary) is rejected.
  fleet::PartialAggregates stale = Make();
  stale.header.record_version = 2;
  ASSERT_TRUE(fleet::WritePartialFile(path, stale).ok());
  EXPECT_EQ(fleet::ReadPartialFile(path, {}).status().code(),
            StatusCode::kFailedPrecondition);
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, PayloadBytesArePinned) {
  // CRC-32 and size of a partial payload with a non-empty summary and
  // accumulator: the partial layout must not move a byte while
  // kPartialRecordVersion stays.
  fleet::PartialAggregates p = Make();
  p.summary.metrics.total_runs = 2;
  p.summary.metrics.outcomes = {{AppOutcome::kSystemFailure, 1, 0.5, 2.0,
                                 0.25}};
  p.summary.ingest_status = ParseError("alps: over the error budget");
  AppRun run;
  run.apid = 601;
  run.jobid = 5001;
  run.nodes = {0, 1};
  run.nodect = 2;
  run.start = TimePoint(1364774700);
  run.end = TimePoint(1364775600);
  run.has_termination = true;
  run.exit_code = 137;
  run.exit_signal = 9;
  run.job_submit = TimePoint(1364774600);
  run.job_start = TimePoint(1364774700);
  ClassifiedRun cls;
  cls.outcome = AppOutcome::kSystemFailure;
  cls.cause = ErrorCategory::kMemoryUE;
  cls.tuple_id = 1;
  p.metrics.AddRun(run, cls);
  run.apid = 602;
  run.jobid = 5002;
  run.node_type = NodeType::kXK;
  run.exit_code = 0;
  run.exit_signal = 0;
  cls.outcome = AppOutcome::kSuccess;
  cls.cause = ErrorCategory::kUnknown;
  cls.tuple_id = 0;
  p.metrics.AddRun(run, cls);
  ErrorTuple tuple;
  tuple.id = 1;
  tuple.category = ErrorCategory::kMemoryUE;
  tuple.severity = Severity::kFatal;
  tuple.location = Intern("c0-0c0s0n0");
  tuple.nodes = {0};
  tuple.first = TimePoint(1364775300);
  tuple.last = TimePoint(1364775300);
  tuple.count = 1;
  p.metrics.AddTuple(tuple);
  const std::string path = Path("pinned.ldsnap");
  ASSERT_TRUE(fleet::WritePartialFile(path, p).ok());
  auto payload = ReadSnapshotFile(path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(payload->size(), 1334u);
  EXPECT_EQ(Crc32(*payload), 1368067651u);
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, ImpossibleCountsRejectTheAttempt) {
  // A partial whose CRC is valid but whose count field says 2^32-1 (or
  // 2^64-1) elements fails ReadPartialFile, which rejects the attempt,
  // before anything is sized by the count.
  fleet::PartialAggregates p = Make();
  p.summary.metrics.outcomes = {{AppOutcome::kSystemFailure, 1, 1.0, 2.0,
                                 1.0}};
  AppRun run;
  run.apid = 601;
  run.jobid = 5001;
  run.nodes = {0, 1};
  run.nodect = 2;
  run.start = TimePoint(1364774700);
  run.end = TimePoint(1364775600);
  run.has_termination = true;
  ClassifiedRun cls;
  cls.outcome = AppOutcome::kSystemFailure;
  p.metrics.AddRun(run, cls);
  const std::string path = Path("bad_count.ldsnap");
  ASSERT_TRUE(fleet::WritePartialFile(path, p).ok());
  auto payload = ReadSnapshotFile(path);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  const auto find = [&payload](std::initializer_list<std::uint64_t> words,
                               int width, std::size_t from) {
    std::vector<std::uint8_t> pattern;
    for (const std::uint64_t v : words) {
      for (int i = 0; i < width; ++i) pattern.push_back((v >> (8 * i)) & 0xFF);
    }
    const auto at = std::search(payload->begin() + from, payload->end(),
                                pattern.begin(), pattern.end());
    EXPECT_NE(at, payload->end());
    return static_cast<std::size_t>(at - payload->begin());
  };
  // The payload header is 20 bytes; the summary's report then holds
  // total runs u64 and four f64 ahead of its outcome-row count.  The
  // accumulator follows the summary.
  SnapshotWriter summary;
  summary(p.summary);
  const std::size_t accumulator_at = 20 + summary.bytes().size();
  const struct {
    const char* field;
    std::size_t at;
    int width;
  } cases[] = {
      {"report row count", 20 + 40, 4},
      // The XE curve's count and first bucket.
      {"accumulator scale-point count", find({8, 1, 1}, 4, accumulator_at),
       4},
      // Job 5001's run failed: it is in both job sets.
      {"accumulator job-set count", find({1, 5001, 1, 5001}, 8, accumulator_at),
       8},
  };
  ASSERT_EQ((*payload)[20 + 40], 1);  // one outcome row
  for (const auto& c : cases) {
    ASSERT_LE(c.at + c.width, payload->size()) << c.field;
    std::vector<std::uint8_t> bad = *payload;
    std::fill_n(bad.begin() + static_cast<std::ptrdiff_t>(c.at), c.width,
                0xFF);
    ASSERT_TRUE(WriteDurableFile(path, kSnapshotFormat, bad,
                                 p.header.fingerprint)
                    .ok());
    auto read = fleet::ReadPartialFile(path, {});
    ASSERT_FALSE(read.ok()) << c.field;
    EXPECT_EQ(read.status().code(), StatusCode::kParseError)
        << c.field << ": " << read.status().ToString();
  }
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, TornPartialIsRejected) {
  const std::string path = Path("torn.ldsnap");
  ASSERT_TRUE(fleet::WritePartialFile(path, Make()).ok());
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(fleet::ReadPartialFile(path, {}).ok());
  std::filesystem::remove(path);
}

TEST_F(PartialFileTest, HeaderPayloadFingerprintDisagreementIsRejected) {
  // The fingerprint lives both in the file header (checked before
  // payload parsing) and the payload header; a file whose two stamps
  // disagree was assembled from mismatched pieces.
  const std::string path = Path("mixed.ldsnap");
  fleet::PartialAggregates p = Make();
  SnapshotWriter w;
  w(p);
  ASSERT_TRUE(WriteSnapshotFile(path, w.bytes(), /*fingerprint=*/42).ok());
  auto read = fleet::ReadPartialFile(path, {});
  EXPECT_FALSE(read.ok());
  std::filesystem::remove(path);
}

class FleetEndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config = SmallScenario(606);
    config.workload.target_app_runs = 400;
    machine_ = new Machine(MakeMachine(config));
    bundle_dir_ = new std::string(testing::TempDir() + "fleet_test_bundle_" +
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

  std::string TempFleetDir(const std::string& name) const {
    return *bundle_dir_ + "_" + name;
  }

  static Machine* machine_;
  static std::string* bundle_dir_;
};

Machine* FleetEndToEndTest::machine_ = nullptr;
std::string* FleetEndToEndTest::bundle_dir_ = nullptr;

TEST_F(FleetEndToEndTest, TwoShardsReproduceTheSerialReport) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const LogDiverConfig config;
  StreamingAnalyzer serial(*machine_, config);
  auto total = ReplayBundle(config, inputs, {}, serial);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  const AnalysisSummary summary = serial.Finalize();

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("partials");
  const fleet::ShardSupervisor supervisor(*machine_, config);
  auto result = supervisor.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  EXPECT_EQ(FingerprintReport(result->summary.metrics),
            FingerprintReport(summary.metrics));
  EXPECT_EQ(result->summary.reconstruct_stats.runs,
            summary.reconstruct_stats.runs);
  EXPECT_EQ(result->coverage.shards_merged, 2u);
  EXPECT_FALSE(result->coverage.degraded());
  ASSERT_EQ(result->shards.size(), 2u);
  EXPECT_TRUE(result->shards[0].completed);
  EXPECT_TRUE(result->shards[1].completed);
  EXPECT_EQ(result->shards[0].attempts, 1);
  std::filesystem::remove_all(options.partial_dir);
}

TEST_F(FleetEndToEndTest, CrashedShardIsRetriedAndAbsorbed) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const LogDiverConfig config;

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("crash_partials");
  fleet::FaultPlan plan;
  plan.fault = fleet::WorkerFault::kCrash;
  plan.after_lines = 100;
  options.faults[1] = plan;

  const fleet::ShardSupervisor supervisor(*machine_, config);
  auto result = supervisor.Run(inputs, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->coverage.degraded());
  EXPECT_EQ(result->shards[1].crashes, 1);
  EXPECT_EQ(result->shards[1].attempts, 2);
  std::filesystem::remove_all(options.partial_dir);
}

TEST_F(FleetEndToEndTest, FailFastAbortLeavesNoZombies) {
  // Shard 1 crashes on every attempt and exhausts its retries, tripping
  // the fail-fast abort while shard 0 is still parked in a hang.  The
  // abort path must SIGKILL *and reap* every running worker before Run
  // returns — an early return that skips the reap leaks zombies that
  // outlive the supervisor.
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("zombie_partials");
  options.max_attempts = 2;
  options.policy = DegradationPolicy::kFailFast;
  options.shard_timeout_ms = 60000;  // the hang outlives the whole test
  fleet::FaultPlan hang;
  hang.fault = fleet::WorkerFault::kHang;
  hang.after_lines = 50;
  hang.persistent = true;
  options.faults[0] = hang;
  fleet::FaultPlan crash;
  crash.fault = fleet::WorkerFault::kCrash;
  crash.after_lines = 50;
  crash.persistent = true;
  options.faults[1] = crash;

  const fleet::ShardSupervisor supervisor(*machine_, LogDiverConfig{});
  auto result = supervisor.Run(inputs, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);

  // No child of this process may remain, running or zombie.
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  std::filesystem::remove_all(options.partial_dir);
}

TEST_F(FleetEndToEndTest, OrdinaryWorkerFailureFailsTheFleetOnce) {
  // A worker whose ingest budget trips exits 3 — an ordinary failure
  // a retry cannot fix.  The fleet must fail on it after one attempt,
  // unretried, and reap shard 1, still parked in a hang, on the way out.
  const std::string dirty = TempFleetDir("dirty_bundle");
  std::filesystem::remove_all(dirty);
  std::filesystem::copy(*bundle_dir_, dirty);
  {
    std::ofstream syslog(dirty + "/syslog.log", std::ios::app);
    for (int i = 0; i < 5; ++i) syslog << "definitely not a syslog line\n";
  }
  LogDiverConfig config;
  config.ingest.policy = DegradationPolicy::kFailFast;
  config.ingest.budget.min_malformed = 2;
  config.ingest.budget.max_malformed_fraction = 0.0;

  fleet::FleetOptions options;
  options.shard_count = 2;
  options.partial_dir = TempFleetDir("ordinary_partials");
  options.shard_timeout_ms = 60000;  // the hang outlives the whole test
  fleet::FaultPlan hang;
  hang.fault = fleet::WorkerFault::kHang;
  hang.after_lines = 50;
  hang.persistent = true;
  options.faults[1] = hang;

  const std::uint64_t spawned_before =
      obs::Registry::Get().GetCounter(obs::names::kFleetWorkersSpawnedTotal)
          .Value();
  const std::uint64_t retries_before =
      obs::Registry::Get().GetCounter(obs::names::kFleetRetriesTotal).Value();
  const fleet::ShardSupervisor supervisor(*machine_, config);
  auto result = supervisor.Run(StreamInputs::FromBundleDir(dirty), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("shard 0 failed ordinarily "
                                           "(exit 3)"),
            std::string::npos)
      << result.status().ToString();
#if !defined(LOGDIVER_OBS_DISABLED)
  EXPECT_EQ(obs::Registry::Get()
                .GetCounter(obs::names::kFleetWorkersSpawnedTotal)
                .Value(),
            spawned_before + 2);
  EXPECT_EQ(
      obs::Registry::Get().GetCounter(obs::names::kFleetRetriesTotal).Value(),
      retries_before);
#endif
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
  std::filesystem::remove_all(options.partial_dir);
  std::filesystem::remove_all(dirty);
}

TEST_F(FleetEndToEndTest, InvalidOptionsAreRejectedUpFront) {
  const StreamInputs inputs = StreamInputs::FromBundleDir(*bundle_dir_);
  const fleet::ShardSupervisor supervisor(*machine_, LogDiverConfig{});

  fleet::FleetOptions no_dir;
  no_dir.partial_dir.clear();
  EXPECT_EQ(supervisor.Run(inputs, no_dir).status().code(),
            StatusCode::kInvalidArgument);

  fleet::FleetOptions zero_shards;
  zero_shards.shard_count = 0;
  zero_shards.partial_dir = TempFleetDir("zero");
  EXPECT_EQ(supervisor.Run(inputs, zero_shards).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ld
