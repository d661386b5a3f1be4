// The analysis stage's parallel invariant: Classify and the bootstrap
// CIs must be bit-identical at any thread count, and the CSR tuple
// index must agree with a straightforward map-of-vectors reference on
// randomized tuple sets (out-of-range nodes, system incidents with
// out-of-order recovery windows, time ties included).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <unordered_map>
#include <vector>

#include "analysis/bootstrap.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

void ExpectSameClassification(const std::vector<ClassifiedRun>& a,
                              const std::vector<ClassifiedRun>& b,
                              const char* label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].run_index, b[i].run_index) << label << " run " << i;
    EXPECT_EQ(a[i].outcome, b[i].outcome) << label << " run " << i;
    EXPECT_EQ(a[i].cause, b[i].cause) << label << " run " << i;
    EXPECT_EQ(a[i].tuple_id, b[i].tuple_id) << label << " run " << i;
  }
}

TEST(ParallelAnalysis, ClassifyBitIdenticalAcrossThreadCounts) {
  // Dirty bundle: corruption perturbs the run/tuple population, so this
  // is not a hand-picked easy case.
  ScenarioConfig config = SmallScenario(21);
  config.workload.target_app_runs = 500;
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());
  EmittedLogs logs = campaign->logs;
  CorruptorConfig cc;
  cc.rate = 0.05;
  cc.ops = LogCorruptor::AllOps();
  LogCorruptor(cc).CorruptBundle(logs, Rng(21).Fork("corruptor"));

  LogDiverConfig serial_config;
  serial_config.threads = 1;
  const LogDiver diver(machine, serial_config);
  auto result = diver.Analyze(LogSet{logs.torque, logs.alps, logs.syslog,
                                     logs.hwerr});
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->runs.size(), 100u);

  const Correlator correlator(machine, LogDiverConfig().correlator);
  const auto serial = correlator.Classify(result->runs, result->tuples);
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    const auto parallel =
        correlator.Classify(result->runs, result->tuples, &pool);
    ExpectSameClassification(serial, parallel,
                             threads == 2 ? "2 threads" : "4 threads");
  }
}

// Reference correlator: the pre-CSR data structure (a map of per-node
// tuple lists) driving the same decision tree.  Classify must agree
// with it on every randomized input.
std::vector<ClassifiedRun> ReferenceClassify(
    const std::vector<AppRun>& runs, const std::vector<ErrorTuple>& tuples,
    const CorrelatorConfig& config) {
  std::vector<std::uint32_t> fatal;
  for (std::uint32_t i = 0; i < tuples.size(); ++i) {
    if (tuples[i].severity == Severity::kFatal) fatal.push_back(i);
  }
  std::sort(fatal.begin(), fatal.end(),
            [&tuples](std::uint32_t a, std::uint32_t b) {
              if (tuples[a].first != tuples[b].first) {
                return tuples[a].first < tuples[b].first;
              }
              return a < b;
            });
  std::unordered_map<NodeIndex, std::vector<std::uint32_t>> per_node;
  std::vector<std::uint32_t> system;
  for (std::uint32_t idx : fatal) {
    const ErrorTuple& t = tuples[idx];
    if (t.scope == LocScope::kSystem) {
      system.push_back(idx);
    } else {
      for (NodeIndex n : t.nodes) per_node[n].push_back(idx);
    }
  }

  Duration max_before = config.attribution_before;
  for (const auto& [cat, window] : config.category_before) {
    max_before = std::max(max_before, window);
  }

  auto find_node_cause = [&](const std::vector<NodeIndex>& nodes,
                             TimePoint death) -> const ErrorTuple* {
    const ErrorTuple* best = nullptr;
    std::int64_t best_gap = 0;
    for (NodeIndex n : nodes) {
      const auto it = per_node.find(n);
      if (it == per_node.end()) continue;
      for (std::uint32_t idx : it->second) {
        const ErrorTuple& t = tuples[idx];
        if (t.first < death - max_before) continue;
        if (t.first > death + config.attribution_after) continue;
        if (t.first < death - config.BeforeWindow(t.category)) continue;
        const std::int64_t gap = std::llabs((t.first - death).seconds());
        if (best == nullptr || gap < best_gap) {
          best = &t;
          best_gap = gap;
        }
      }
    }
    return best;
  };

  auto find_system_cause = [&](TimePoint death) -> const ErrorTuple* {
    for (std::uint32_t idx : system) {
      const ErrorTuple& t = tuples[idx];
      if (t.ImpactWindow().Inflate(config.incident_slack).Contains(death)) {
        return &t;
      }
    }
    return nullptr;
  };

  std::vector<ClassifiedRun> out;
  out.reserve(runs.size());
  for (std::uint32_t i = 0; i < runs.size(); ++i) {
    const AppRun& run = runs[i];
    ClassifiedRun cls;
    cls.run_index = i;
    if (!run.has_termination) {
      cls.outcome = AppOutcome::kUnknown;
    } else if (run.exit_code == 0 && run.exit_signal == 0) {
      cls.outcome = AppOutcome::kSuccess;
    } else if (run.killed_node_failure) {
      cls.outcome = AppOutcome::kSystemFailure;
      const ErrorTuple* cause =
          run.failed_nid != kInvalidNode
              ? find_node_cause({run.failed_nid}, run.end)
              : nullptr;
      if (cause == nullptr) cause = find_node_cause(run.nodes, run.end);
      if (cause == nullptr) cause = find_system_cause(run.end);
      if (cause != nullptr) {
        cls.cause = cause->category;
        cls.tuple_id = cause->id;
      }
    } else if (run.walltime_limit.seconds() > 0 && run.exit_signal == 15 &&
               run.end - run.job_start + config.walltime_tolerance >=
                   run.walltime_limit) {
      cls.outcome = AppOutcome::kWalltime;
    } else {
      const ErrorTuple* cause = find_node_cause(run.nodes, run.end);
      if (cause == nullptr) cause = find_system_cause(run.end);
      if (cause != nullptr) {
        cls.outcome = AppOutcome::kSystemFailure;
        cls.cause = cause->category;
        cls.tuple_id = cause->id;
      } else {
        cls.outcome = AppOutcome::kUserFailure;
      }
    }
    out.push_back(cls);
  }
  return out;
}

TEST(ParallelAnalysis, ClassifyMatchesReferenceOnRandomizedTuples) {
  const Machine machine = Machine::Testbed(96, 24);
  const std::uint32_t node_count = machine.node_count();
  for (std::uint64_t seed : {101u, 102u, 103u, 104u}) {
    Rng rng(seed);
    std::vector<ErrorTuple> tuples;
    for (int i = 0; i < 400; ++i) {
      ErrorTuple t;
      t.id = static_cast<std::uint64_t>(i) + 1;
      t.category = static_cast<ErrorCategory>(rng.UniformInt(0, 8));
      t.severity = static_cast<Severity>(rng.UniformInt(0, 2));
      // Coarse time grid so first-event ties are common.
      t.first = TimePoint(rng.UniformInt(0, 200) * 50);
      t.last = t.first + Duration(rng.UniformInt(0, 120));
      if (rng.Bernoulli(0.1)) {
        t.scope = LocScope::kSystem;
        if (rng.Bernoulli(0.7)) {
          // Recovery windows deliberately NOT ordered like start times:
          // an early incident can outlast a later one.
          t.recovered = t.first + Duration(rng.UniformInt(60, 4000));
        }
      } else {
        t.scope = LocScope::kNode;
        const int fanout = static_cast<int>(rng.UniformInt(1, 3));
        for (int n = 0; n < fanout; ++n) {
          // ~5% out-of-range nodes: the index must drop them, never
          // crash or misfile them.
          t.nodes.push_back(static_cast<NodeIndex>(
              rng.Bernoulli(0.05) ? node_count + rng.UniformInt(1, 50)
                                  : rng.UniformInt(0, node_count - 1)));
        }
      }
      tuples.push_back(std::move(t));
    }
    std::vector<AppRun> runs;
    for (int i = 0; i < 600; ++i) {
      AppRun run;
      run.apid = static_cast<ApId>(i) + 1;
      const int width = static_cast<int>(rng.UniformInt(1, 4));
      for (int n = 0; n < width; ++n) {
        run.nodes.push_back(
            static_cast<NodeIndex>(rng.UniformInt(0, node_count - 1)));
      }
      run.nodect = static_cast<std::uint32_t>(run.nodes.size());
      run.start = TimePoint(rng.UniformInt(0, 5000));
      run.end = run.start + Duration(rng.UniformInt(1, 5000));
      run.job_start = run.start;
      run.has_termination = rng.Bernoulli(0.95);
      run.exit_code = static_cast<int>(rng.UniformInt(0, 2));
      run.exit_signal =
          rng.Bernoulli(0.2) ? 15 : static_cast<int>(rng.UniformInt(0, 11));
      run.walltime_limit = Duration(rng.UniformInt(0, 4000));
      if (rng.Bernoulli(0.1)) {
        run.killed_node_failure = true;
        run.failed_nid = rng.Bernoulli(0.5)
                             ? run.nodes[0]
                             : kInvalidNode;
      }
      runs.push_back(std::move(run));
    }

    const CorrelatorConfig config;
    const Correlator correlator(machine, config);
    const auto expected = ReferenceClassify(runs, tuples, config);
    const auto serial = correlator.Classify(runs, tuples);
    ExpectSameClassification(expected, serial, "vs reference (serial)");
    ThreadPool pool(4);
    const auto parallel = correlator.Classify(runs, tuples, &pool);
    ExpectSameClassification(expected, parallel, "vs reference (4 threads)");
  }
}

TEST(ParallelAnalysis, BootstrapBitIdenticalAcrossThreadCounts) {
  Rng data_rng(7);
  std::vector<double> num, den;
  for (int i = 0; i < 500; ++i) {
    den.push_back(data_rng.UniformDouble(0.1, 100.0));
    num.push_back(data_rng.Bernoulli(0.1) ? den.back() : 0.0);
  }

  Rng serial_rng(42);
  const auto serial = BootstrapRatioCi(num, den, 300, serial_rng);
  ASSERT_TRUE(serial.ok());
  const std::uint64_t next_after_serial = serial_rng.NextU64();
  for (int threads : {2, 4}) {
    ThreadPool pool(threads);
    Rng parallel_rng(42);
    const auto parallel = BootstrapRatioCi(num, den, 300, parallel_rng, &pool);
    ASSERT_TRUE(parallel.ok()) << threads;
    // Bit-exact, not approximately equal.
    EXPECT_EQ(serial->point, parallel->point) << threads;
    EXPECT_EQ(serial->lo, parallel->lo) << threads;
    EXPECT_EQ(serial->hi, parallel->hi) << threads;
    // The caller-visible rng advanced identically (exactly one draw).
    EXPECT_EQ(next_after_serial, parallel_rng.NextU64()) << threads;
  }
}

TEST(ParallelAnalysis, BootstrapDegenerateDataGivesExactCi) {
  // Every pair is (1, 2), so every resample's ratio is exactly 0.5 no
  // matter which indices each replicate draws — the CI must collapse to
  // the point estimate, serial or pooled.
  const std::vector<double> num(50, 1.0), den(50, 2.0);
  Rng rng(9);
  ThreadPool pool(3);
  const auto ci = BootstrapRatioCi(num, den, 101, rng, &pool);
  ASSERT_TRUE(ci.ok());
  EXPECT_EQ(ci->point, 0.5);
  EXPECT_EQ(ci->lo, 0.5);
  EXPECT_EQ(ci->hi, 0.5);
}

TEST(ParallelAnalysis, InternedFieldsRoundTripThroughSnapshot) {
  // Snapshots store resolved strings, not symbol ids; a loaded record's
  // symbols must compare equal to freshly interned ones.
  AppRun run;
  run.apid = 5;
  run.jobid = 6;
  run.user = Intern("snapshot-user");
  run.queue = Intern("snapshot-queue");
  run.nodes = {1, 2};
  run.nodect = 2;
  ErrorTuple tuple;
  tuple.id = 11;
  tuple.category = ErrorCategory::kMemoryUE;
  tuple.location = Intern("c0-0c0s1n2");
  TorqueRecord rec;
  rec.jobid = 6;
  rec.user = Intern("snapshot-user");
  rec.queue = Intern("snapshot-queue");

  SnapshotWriter w;
  SaveAppRun(w, run);
  SaveErrorTuple(w, tuple);
  SaveTorqueRecord(w, rec);

  SnapshotReader r(w.bytes());
  AppRun run2;
  ErrorTuple tuple2;
  TorqueRecord rec2;
  LoadAppRun(r, run2);
  LoadErrorTuple(r, tuple2);
  LoadTorqueRecord(r, rec2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(run2.user, run.user);
  EXPECT_EQ(run2.queue, "snapshot-queue");
  EXPECT_EQ(tuple2.location, tuple.location);
  EXPECT_EQ(rec2.user, rec.user);
}

}  // namespace
}  // namespace ld
