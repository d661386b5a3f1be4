#include "analysis/baselines.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

AppRun MakeRun(ApId apid, std::vector<NodeIndex> nodes, std::int64_t start,
               std::int64_t end, int code, int signal) {
  AppRun run;
  run.apid = apid;
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

ErrorTuple MakeTuple(std::uint64_t id, Severity sev, NodeSet nodes,
                     std::int64_t t) {
  ErrorTuple tuple;
  tuple.id = id;
  tuple.category = ErrorCategory::kMemoryUE;
  tuple.severity = sev;
  tuple.scope = LocScope::kNode;
  tuple.nodes = nodes;
  tuple.first = TimePoint(t);
  tuple.last = TimePoint(t);
  tuple.count = 1;
  return tuple;
}

TEST(Baselines, NamesAreDistinct) {
  EXPECT_STRNE(BaselineModeName(BaselineMode::kExitOnlyConservative),
               BaselineModeName(BaselineMode::kExitOnlyPessimistic));
  EXPECT_STRNE(BaselineModeName(BaselineMode::kTemporalOnly),
               BaselineModeName(BaselineMode::kSpatialOnly));
}

TEST(Baselines, AllAgreeOnCleanExits) {
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 100, 0, 0)};
  for (BaselineMode mode :
       {BaselineMode::kExitOnlyConservative, BaselineMode::kExitOnlyPessimistic,
        BaselineMode::kTemporalOnly, BaselineMode::kSpatialOnly}) {
    const auto out = ClassifyBaseline(mode, runs, {}, CorrelatorConfig{});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].outcome, AppOutcome::kSuccess)
        << BaselineModeName(mode);
  }
}

TEST(Baselines, ExitOnlyModesDisagreeOnAbnormalExit) {
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 100, 139, 11)};
  const auto conservative =
      ClassifyBaseline(BaselineMode::kExitOnlyConservative, runs, {},
                       CorrelatorConfig{});
  const auto pessimistic = ClassifyBaseline(
      BaselineMode::kExitOnlyPessimistic, runs, {}, CorrelatorConfig{});
  EXPECT_EQ(conservative[0].outcome, AppOutcome::kUserFailure);
  EXPECT_EQ(pessimistic[0].outcome, AppOutcome::kSystemFailure);
}

TEST(Baselines, TemporalOnlyBlamesRemoteErrors) {
  // Error on node 50, run on node 0: LogDiver would not attribute, the
  // temporal baseline does.
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 1000, 1, 0)};
  const std::vector<ErrorTuple> tuples = {
      MakeTuple(1, Severity::kFatal, {50}, 990)};
  const auto out = ClassifyBaseline(BaselineMode::kTemporalOnly, runs, tuples,
                                    CorrelatorConfig{});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(out[0].tuple_id, 1u);
}

TEST(Baselines, TemporalOnlyRespectsWindow) {
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 5000, 1, 0)};
  const std::vector<ErrorTuple> tuples = {
      MakeTuple(1, Severity::kFatal, {50}, 100)};
  const auto out = ClassifyBaseline(BaselineMode::kTemporalOnly, runs, tuples,
                                    CorrelatorConfig{});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST(Baselines, SpatialOnlyBlamesNoiseFloor) {
  // A corrected event on the run's node during its window is enough for
  // the spatial baseline — exactly its weakness.
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 1000, 1, 0)};
  const std::vector<ErrorTuple> tuples = {
      MakeTuple(1, Severity::kCorrected, {0}, 500)};
  const auto out = ClassifyBaseline(BaselineMode::kSpatialOnly, runs, tuples,
                                    CorrelatorConfig{});
  EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure);
}

TEST(Baselines, SpatialOnlyRequiresNodeOverlap) {
  const std::vector<AppRun> runs = {MakeRun(1, {0}, 0, 1000, 1, 0)};
  const std::vector<ErrorTuple> tuples = {
      MakeTuple(1, Severity::kFatal, {3}, 500)};
  const auto out = ClassifyBaseline(BaselineMode::kSpatialOnly, runs, tuples,
                                    CorrelatorConfig{});
  EXPECT_EQ(out[0].outcome, AppOutcome::kUserFailure);
}

TEST(Baselines, NodeFailureKillsAlwaysSystem) {
  AppRun run = MakeRun(1, {0}, 0, 1000, 137, 9);
  run.killed_node_failure = true;
  for (BaselineMode mode :
       {BaselineMode::kExitOnlyConservative, BaselineMode::kTemporalOnly,
        BaselineMode::kSpatialOnly}) {
    const auto out = ClassifyBaseline(mode, {run}, {}, CorrelatorConfig{});
    EXPECT_EQ(out[0].outcome, AppOutcome::kSystemFailure)
        << BaselineModeName(mode);
  }
}

TEST(Baselines, WalltimeStillRecognized) {
  AppRun run = MakeRun(1, {0}, 0, 36000, 143, 15);
  run.walltime_limit = Duration(36000);
  const auto out = ClassifyBaseline(BaselineMode::kExitOnlyPessimistic, {run},
                                    {}, CorrelatorConfig{});
  EXPECT_EQ(out[0].outcome, AppOutcome::kWalltime);
}

}  // namespace
}  // namespace ld
