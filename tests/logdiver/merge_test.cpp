// Merge-algebra property tests: the accumulators behind the fleet's
// partial aggregates must merge associatively and order-deterministically,
// and disjoint shard partials must merge to the serial accumulator's
// *exact* snapshot bytes — bit-identity is what lets bench/fleet_campaign
// compare a faulted fleet against the serial analyzer at all.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "logdiver/coalesce.hpp"
#include "logdiver/metrics.hpp"
#include "logdiver/quarantine.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

constexpr std::int64_t kT0 = 1364774400;  // 2013-04-01

std::vector<std::uint8_t> Bytes(const MetricsAccumulator& acc) {
  SnapshotWriter w;
  w(acc);
  return w.bytes();
}

/// A varied synthetic workload: outcomes, node types, scales, queue
/// waits and duplicate jobs all drawn from one seeded stream.
struct Workload {
  std::vector<AppRun> runs;
  std::vector<ClassifiedRun> classified;
  std::vector<ErrorTuple> tuples;
};

Workload MakeWorkload(std::uint64_t seed, std::size_t n_runs,
                      std::size_t n_tuples) {
  Rng rng(seed);
  Workload w;
  for (std::size_t i = 0; i < n_runs; ++i) {
    AppRun run;
    run.apid = 1000 + i;
    run.jobid = 1 + rng.UniformInt(n_runs / 2 + 1);  // duplicate jobs
    run.nodect = 1u << rng.UniformInt(12);
    run.node_type = rng.Bernoulli(0.7) ? NodeType::kXE : NodeType::kXK;
    run.start = TimePoint(kT0 + static_cast<std::int64_t>(
                                    rng.UniformInt(90 * 86400)));
    run.end = run.start + Duration(1 + rng.UniformInt(36000));
    run.has_termination = rng.Bernoulli(0.95);
    run.job_submit = run.start - Duration(rng.UniformInt(7200));
    run.job_start = run.start;
    w.runs.push_back(run);

    ClassifiedRun cls;
    cls.run_index = static_cast<std::uint32_t>(i);
    const std::uint64_t o = rng.UniformInt(5);
    cls.outcome = static_cast<AppOutcome>(o);
    if (cls.outcome == AppOutcome::kSystemFailure) {
      cls.cause = static_cast<ErrorCategory>(1 + rng.UniformInt(4));
    }
    w.classified.push_back(cls);
  }
  for (std::size_t i = 0; i < n_tuples; ++i) {
    ErrorTuple tuple;
    tuple.id = i + 1;
    tuple.category = static_cast<ErrorCategory>(1 + rng.UniformInt(6));
    tuple.severity = rng.Bernoulli(0.3) ? Severity::kFatal
                                        : Severity::kCorrected;
    tuple.count = 1 + rng.UniformInt(40);
    tuple.first = TimePoint(kT0 + static_cast<std::int64_t>(
                                      rng.UniformInt(90 * 86400)));
    tuple.last = tuple.first + Duration(rng.UniformInt(60));
    w.tuples.push_back(tuple);
  }
  return w;
}

void Accumulate(MetricsAccumulator& acc, const Workload& w, const ShardSpec& s) {
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    if (s.OwnsRun(w.runs[i].apid)) acc.AddRun(w.runs[i], w.classified[i]);
  }
  for (const ErrorTuple& tuple : w.tuples) {
    if (s.OwnsTuple(tuple.id)) acc.AddTuple(tuple);
  }
}

TEST(MergeAlgebra, ShardPartialsMergeToSerialBytes) {
  const Workload w = MakeWorkload(17, 400, 120);
  MetricsAccumulator serial;
  Accumulate(serial, w, ShardSpec{});
  const std::vector<std::uint8_t> want = Bytes(serial);

  for (std::uint32_t count : {2u, 3u, 5u, 8u}) {
    MetricsAccumulator merged;
    for (std::uint32_t i = 0; i < count; ++i) {
      MetricsAccumulator shard;
      Accumulate(shard, w, ShardSpec{i, count});
      merged.MergeFrom(shard);
    }
    EXPECT_EQ(Bytes(merged), want) << "shard count " << count;
  }
}

TEST(MergeAlgebra, MergeIsAssociative) {
  const Workload w = MakeWorkload(23, 300, 90);
  MetricsAccumulator a, b, c;
  Accumulate(a, w, ShardSpec{0, 3});
  Accumulate(b, w, ShardSpec{1, 3});
  Accumulate(c, w, ShardSpec{2, 3});

  MetricsAccumulator left = a;  // (a + b) + c
  left.MergeFrom(b);
  left.MergeFrom(c);

  MetricsAccumulator bc = b;  // a + (b + c)
  bc.MergeFrom(c);
  MetricsAccumulator right = a;
  right.MergeFrom(bc);

  EXPECT_EQ(Bytes(left), Bytes(right));
}

TEST(MergeAlgebra, MergeOrderDoesNotChangeTheBytes) {
  // The canonical order is ascending shard index, but the algebra is
  // commutative — any order must land on the same bytes, so the
  // canonical order is a convention, not a correctness requirement.
  const Workload w = MakeWorkload(29, 300, 90);
  std::vector<MetricsAccumulator> shards;
  for (std::uint32_t i = 0; i < 4; ++i) {
    MetricsAccumulator shard;
    Accumulate(shard, w, ShardSpec{i, 4});
    shards.push_back(std::move(shard));
  }
  MetricsAccumulator forward, reversed;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    forward.MergeFrom(shards[i]);
    reversed.MergeFrom(shards[shards.size() - 1 - i]);
  }
  EXPECT_EQ(Bytes(forward), Bytes(reversed));
}

TEST(MergeAlgebra, EmptyAccumulatorIsTheMergeIdentity) {
  const Workload w = MakeWorkload(31, 100, 30);
  MetricsAccumulator acc;
  Accumulate(acc, w, ShardSpec{});
  const std::vector<std::uint8_t> want = Bytes(acc);

  MetricsAccumulator left;  // empty + acc
  left.MergeFrom(acc);
  EXPECT_EQ(Bytes(left), want);

  acc.MergeFrom(MetricsAccumulator{});  // acc + empty
  EXPECT_EQ(Bytes(acc), want);
}

TEST(MergeAlgebra, InsertionOrderDoesNotChangeTheBytes) {
  // The min-apid queue-wait rule (and every other tally) must make the
  // accumulator a pure function of the run *set*, not the run order —
  // shard workers see their runs in bundle order, merges replay them in
  // shard order.
  const Workload w = MakeWorkload(37, 200, 0);
  MetricsAccumulator in_order;
  Accumulate(in_order, w, ShardSpec{});

  std::vector<std::size_t> perm(w.runs.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  Rng rng(41);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformInt(i)]);
  }
  MetricsAccumulator shuffled;
  for (std::size_t i : perm) shuffled.AddRun(w.runs[i], w.classified[i]);

  EXPECT_EQ(Bytes(in_order), Bytes(shuffled));
}

// --- end to end: dirty bundle, real pipeline -------------------------

TEST(MergeAlgebra, DirtyBundleShardsMergeToSerialSnapshotBytes) {
  // The full pipeline over a generated bundle with injected garbage
  // lines (quarantine live on every worker): shard-filtered analyzer
  // accumulators must merge to the serial accumulator's exact bytes.
  ScenarioConfig config = SmallScenario(4242);
  config.workload.target_app_runs = 250;
  const Machine machine = MakeMachine(config);
  const std::string dir = testing::TempDir() + "merge_test_bundle_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  auto bundle = WriteBundle(machine, config, dir);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  {
    std::ofstream f(dir + "/syslog.log", std::ios::app);
    f << "not a syslog line at all\n";
    f << "2013-04-91T99:99:99 nonsense from nowhere\n";
  }
  const StreamInputs inputs = StreamInputs::FromBundleDir(dir);

  const LogDiverConfig serial_config;
  StreamingAnalyzer serial(machine, serial_config);
  auto total = ReplayBundle(serial_config, inputs, {}, serial);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  const AnalysisSummary summary = serial.Finalize();
  ASSERT_GT(summary.ingest.quarantined, 0u);  // the dirt registered
  const std::vector<std::uint8_t> want = Bytes(serial.metrics_accumulator());

  for (std::uint32_t count : {2u, 5u}) {
    MetricsAccumulator merged(serial_config.metrics);
    for (std::uint32_t i = 0; i < count; ++i) {
      LogDiverConfig shard_config = serial_config;
      shard_config.shard = ShardSpec{i, count};
      StreamingAnalyzer analyzer(machine, shard_config);
      ASSERT_TRUE(ReplayBundle(shard_config, inputs, {}, analyzer).ok());
      analyzer.Finalize();
      merged.MergeFrom(analyzer.metrics_accumulator());
    }
    EXPECT_EQ(Bytes(merged), want) << "shard count " << count;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ld
