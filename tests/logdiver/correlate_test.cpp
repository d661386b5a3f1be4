#include "logdiver/correlate.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

class CorrelateTest : public ::testing::Test {
 protected:
  CorrelateTest() : machine_(Machine::Testbed(96, 24)) {}

  AppRun Run(ApId apid, std::vector<NodeIndex> nodes, std::int64_t start,
             std::int64_t end, int code, int signal) {
    AppRun run;
    run.apid = apid;
    run.jobid = apid;  // 1:1 for these tests
    run.nodes = std::move(nodes);
    run.nodect = static_cast<std::uint32_t>(run.nodes.size());
    run.start = TimePoint(start);
    run.end = TimePoint(end);
    run.has_termination = true;
    run.exit_code = code;
    run.exit_signal = signal;
    run.job_start = TimePoint(start);
    run.walltime_limit = Duration::Hours(10);
    return run;
  }

  ErrorTuple Tuple(std::uint64_t id, ErrorCategory cat, Severity sev,
                   NodeSet nodes, std::int64_t t) {
    ErrorTuple tuple;
    tuple.id = id;
    tuple.category = cat;
    tuple.severity = sev;
    tuple.scope = LocScope::kNode;
    tuple.nodes = nodes;
    tuple.first = TimePoint(t);
    tuple.last = TimePoint(t);
    tuple.count = 1;
    return tuple;
  }

  std::vector<ClassifiedRun> Classify(const std::vector<AppRun>& runs,
                                      const std::vector<ErrorTuple>& tuples) {
    Correlator correlator(machine_, CorrelatorConfig{});
    return correlator.Classify(runs, tuples);
  }

  Machine machine_;
};

TEST_F(CorrelateTest, CleanExitIsSuccess) {
  const auto out = Classify({Run(1, {0}, 0, 100, 0, 0)}, {});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].outcome, AppOutcome::kSuccess);
}

TEST_F(CorrelateTest, NoTerminationIsUnknown) {
  AppRun run = Run(1, {0}, 0, 100, 0, 0);
  run.has_termination = false;
  const auto out = Classify({run}, {});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUnknown);
}

TEST_F(CorrelateTest, AbnormalExitWithoutEvidenceIsUserFailure) {
  const auto out = Classify({Run(1, {0}, 0, 100, 139, 11)}, {});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, FatalTupleOnNodeAtDeathAttributes) {
  const auto out = Classify(
      {Run(1, {0, 1}, 0, 1000, 1, 0)},
      {Tuple(7, ErrorCategory::kMemoryUE, Severity::kFatal, {1}, 990)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(out[0].cause, ErrorCategory::kMemoryUE);
  EXPECT_EQ(out[0].tuple_id, 7u);
}

TEST_F(CorrelateTest, FatalTupleOnOtherNodeDoesNotAttribute) {
  const auto out = Classify(
      {Run(1, {0, 1}, 0, 1000, 1, 0)},
      {Tuple(7, ErrorCategory::kMemoryUE, Severity::kFatal, {50}, 990)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, CorrectedTupleNeverAttributes) {
  const auto out = Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(7, ErrorCategory::kMachineCheck, Severity::kCorrected, {0}, 995)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, TupleOutsideTimeWindowDoesNotAttribute) {
  // Death at t=1000; error 10 minutes earlier is outside the 300s window.
  const auto out = Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(7, ErrorCategory::kMemoryUE, Severity::kFatal, {0}, 400)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, ClosestTupleWins) {
  const auto out = Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(1, ErrorCategory::kMemoryUE, Severity::kFatal, {0}, 800),
       Tuple(2, ErrorCategory::kKernelSoftware, Severity::kFatal, {0}, 995)});
  EXPECT_EQ(out[0].cause, ErrorCategory::kKernelSoftware);
  EXPECT_EQ(out[0].tuple_id, 2u);
}

TEST_F(CorrelateTest, PerCategoryWindowOverridesDefault) {
  // Memory errors get a 30-minute window; a UE 10 minutes before death
  // attributes, while a kernel panic the same distance away does not.
  CorrelatorConfig config;
  config.category_before = {{ErrorCategory::kMemoryUE, Duration::Minutes(30)}};
  Correlator correlator(machine_, config);

  const auto ue = correlator.Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(1, ErrorCategory::kMemoryUE, Severity::kFatal, {0}, 400)});
  EXPECT_EQ(ue[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(ue[0].cause, ErrorCategory::kMemoryUE);

  const auto panic = correlator.Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(1, ErrorCategory::kKernelSoftware, Severity::kFatal, {0}, 400)});
  EXPECT_EQ(panic[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, NarrowedCategoryWindowExcludes) {
  // Heartbeat faults kill within seconds; an old heartbeat tuple inside
  // the default window must not be blamed when narrowed.
  CorrelatorConfig config;
  config.category_before = {
      {ErrorCategory::kNodeHeartbeat, Duration::Seconds(30)}};
  Correlator correlator(machine_, config);
  const auto out = correlator.Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {Tuple(1, ErrorCategory::kNodeHeartbeat, Severity::kFatal, {0}, 800)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, NodeFailureKillIsSystemEvenWithoutEvidence) {
  AppRun run = Run(1, {0}, 0, 1000, 137, 9);
  run.killed_node_failure = true;
  run.failed_nid = 0;
  const auto out = Classify({run}, {});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(out[0].cause, ErrorCategory::kUnknown);  // the detection gap
  EXPECT_EQ(out[0].tuple_id, 0u);
}

TEST_F(CorrelateTest, NodeFailureKillPrefersFailedNid) {
  AppRun run = Run(1, {0, 1}, 0, 1000, 137, 9);
  run.killed_node_failure = true;
  run.failed_nid = 1;
  const auto out = Classify(
      {run},
      {Tuple(1, ErrorCategory::kMachineCheck, Severity::kFatal, {0}, 999),
       Tuple(2, ErrorCategory::kNodeHeartbeat, Severity::kFatal, {1}, 985)});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(out[0].cause, ErrorCategory::kNodeHeartbeat);
}

TEST_F(CorrelateTest, WalltimeKillDetected) {
  AppRun run = Run(1, {0}, 0, 36000, 143, 15);
  run.walltime_limit = Duration(36000);
  const auto out = Classify({run}, {});
  EXPECT_EQ(out[0].outcome, AppOutcome::kWalltime);
}

TEST_F(CorrelateTest, SigtermWellBeforeLimitIsNotWalltime) {
  AppRun run = Run(1, {0}, 0, 5000, 143, 15);
  run.walltime_limit = Duration(36000);
  const auto out = Classify({run}, {});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, SystemIncidentCoversDeath) {
  ErrorTuple lustre;
  lustre.id = 3;
  lustre.category = ErrorCategory::kLustre;
  lustre.severity = Severity::kFatal;
  lustre.scope = LocScope::kSystem;
  lustre.first = TimePoint(900);
  lustre.last = TimePoint(900);
  lustre.recovered = TimePoint(1800);
  const auto out = Classify({Run(1, {0}, 0, 1000, 5, 0)}, {lustre});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(out[0].cause, ErrorCategory::kLustre);
}

TEST_F(CorrelateTest, SystemIncidentBeforeRunDoesNotAttribute) {
  ErrorTuple lustre;
  lustre.id = 3;
  lustre.category = ErrorCategory::kLustre;
  lustre.severity = Severity::kFatal;
  lustre.scope = LocScope::kSystem;
  lustre.first = TimePoint(100);
  lustre.last = TimePoint(100);
  lustre.recovered = TimePoint(200);
  // Run dies at 5000, far outside the incident + slack.
  const auto out = Classify({Run(1, {0}, 4000, 5000, 5, 0)}, {lustre});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST_F(CorrelateTest, NodeScopeBeatsSystemScope) {
  ErrorTuple lustre;
  lustre.id = 3;
  lustre.category = ErrorCategory::kLustre;
  lustre.severity = Severity::kFatal;
  lustre.scope = LocScope::kSystem;
  lustre.first = TimePoint(900);
  lustre.last = TimePoint(900);
  lustre.recovered = TimePoint(1800);
  const auto out = Classify(
      {Run(1, {0}, 0, 1000, 1, 0)},
      {lustre,
       Tuple(9, ErrorCategory::kMemoryUE, Severity::kFatal, {0}, 995)});
  EXPECT_EQ(out[0].cause, ErrorCategory::kMemoryUE);
}

TEST_F(CorrelateTest, ManyRunsClassifiedIndependently) {
  std::vector<AppRun> runs;
  for (int i = 0; i < 50; ++i) {
    runs.push_back(Run(static_cast<ApId>(i + 1),
                       {static_cast<NodeIndex>(i % 96)}, i * 100,
                       i * 100 + 90, i % 2 == 0 ? 0 : 1, 0));
  }
  const auto out = Classify(runs, {});
  ASSERT_EQ(out.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(out[i].outcome, i % 2 == 0 ? AppOutcome::kSuccess
                                         : AppOutcome::kUserFailure);
    EXPECT_EQ(out[i].run_index, static_cast<std::uint32_t>(i));
  }
}

}  // namespace
}  // namespace ld
