#include "logdiver/reconstruct.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

AlpsRecord Place(ApId apid, JobId jobid, std::vector<NodeIndex> nids,
                 std::int64_t t) {
  AlpsRecord rec;
  rec.kind = AlpsRecord::Kind::kPlace;
  rec.time = TimePoint(t);
  rec.apid = apid;
  rec.jobid = jobid;
  rec.nids = std::move(nids);
  rec.nodect = static_cast<std::uint32_t>(rec.nids.size());
  rec.user = Intern("u1");
  return rec;
}

AlpsRecord Exit(ApId apid, int code, int signal, std::int64_t t) {
  AlpsRecord rec;
  rec.kind = AlpsRecord::Kind::kExit;
  rec.time = TimePoint(t);
  rec.apid = apid;
  rec.exit_code = code;
  rec.exit_signal = signal;
  return rec;
}

AlpsRecord Kill(ApId apid, NodeIndex nid, std::int64_t t) {
  AlpsRecord rec;
  rec.kind = AlpsRecord::Kind::kKill;
  rec.time = TimePoint(t);
  rec.apid = apid;
  rec.node_failure = true;
  rec.failed_nid = nid;
  return rec;
}

TorqueRecord JobEnd(JobId jobid, std::int64_t start, std::int64_t end,
                    int exit_status, std::int64_t walltime_limit) {
  TorqueRecord rec;
  rec.kind = TorqueRecord::Kind::kEnd;
  rec.jobid = jobid;
  rec.queue = Intern("normal");
  rec.user = Intern("u1");
  rec.submit = TimePoint(start - 10);
  rec.start = TimePoint(start);
  rec.end = TimePoint(end);
  rec.time = rec.end;
  rec.exit_status = exit_status;
  rec.walltime_limit = Duration(walltime_limit);
  return rec;
}

class ReconstructTest : public ::testing::Test {
 protected:
  ReconstructTest() : machine_(Machine::Testbed(96, 24)) {}
  Machine machine_;
};

TEST_F(ReconstructTest, JoinsPlacementExitAndJob) {
  const std::vector<AlpsRecord> alps = {Place(1, 10, {0, 1}, 1000),
                                        Exit(1, 0, 0, 2000)};
  const std::vector<TorqueRecord> torque = {JobEnd(10, 900, 2100, 0, 7200)};
  ReconstructStats stats;
  const auto runs = ReconstructRuns(machine_, alps, torque, &stats);
  ASSERT_EQ(runs.size(), 1u);
  const AppRun& run = runs[0];
  EXPECT_EQ(run.apid, 1u);
  EXPECT_EQ(run.jobid, 10u);
  EXPECT_EQ(run.start, TimePoint(1000));
  EXPECT_EQ(run.end, TimePoint(2000));
  EXPECT_TRUE(run.has_termination);
  EXPECT_EQ(run.exit_code, 0);
  EXPECT_EQ(run.queue, "normal");
  EXPECT_EQ(run.walltime_limit.seconds(), 7200);
  EXPECT_EQ(run.job_start, TimePoint(900));
  EXPECT_EQ(run.node_type, NodeType::kXE);
  EXPECT_EQ(stats.runs, 1u);
  EXPECT_EQ(stats.missing_job, 0u);
}

TEST_F(ReconstructTest, NodeFailureKill) {
  const std::vector<AlpsRecord> alps = {Place(2, 11, {5}, 1000),
                                        Kill(2, 5, 1500)};
  const std::vector<TorqueRecord> torque = {JobEnd(11, 900, 1600, -11, 3600)};
  const auto runs = ReconstructRuns(machine_, alps, torque, nullptr);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].killed_node_failure);
  EXPECT_EQ(runs[0].failed_nid, 5u);
  EXPECT_EQ(runs[0].exit_signal, 9);
}

TEST_F(ReconstructTest, XkTypeInference) {
  // Testbed: XE nodes are 0..95, XK nodes 96..119.
  const std::vector<AlpsRecord> alps = {Place(3, 12, {96, 97}, 100),
                                        Exit(3, 0, 0, 200)};
  const auto runs = ReconstructRuns(machine_, alps, {}, nullptr);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].node_type, NodeType::kXK);
}

TEST_F(ReconstructTest, MissingTerminationCounted) {
  const std::vector<AlpsRecord> alps = {Place(4, 13, {0}, 100)};
  ReconstructStats stats;
  const auto runs = ReconstructRuns(machine_, alps, {}, &stats);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].has_termination);
  EXPECT_EQ(stats.missing_termination, 1u);
  EXPECT_EQ(stats.missing_job, 1u);
}

TEST_F(ReconstructTest, OrphanTerminationCounted) {
  const std::vector<AlpsRecord> alps = {Exit(99, 0, 0, 100)};
  ReconstructStats stats;
  const auto runs = ReconstructRuns(machine_, alps, {}, &stats);
  EXPECT_TRUE(runs.empty());
  EXPECT_EQ(stats.orphan_terminations, 1u);
}

TEST_F(ReconstructTest, MixedNodeTypesCounted) {
  const std::vector<AlpsRecord> alps = {Place(5, 14, {0, 96}, 100),
                                        Exit(5, 0, 0, 200)};
  ReconstructStats stats;
  const auto runs = ReconstructRuns(machine_, alps, {}, &stats);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(stats.mixed_node_types, 1u);
}

TEST_F(ReconstructTest, FallsBackToStartRecordForRunningJobs) {
  TorqueRecord start;
  start.kind = TorqueRecord::Kind::kStart;
  start.jobid = 15;
  start.queue = Intern("debug");
  start.start = TimePoint(50);
  start.time = start.start;
  start.walltime_limit = Duration(1800);
  const std::vector<AlpsRecord> alps = {Place(6, 15, {1}, 100),
                                        Exit(6, 1, 0, 200)};
  const auto runs = ReconstructRuns(machine_, alps, {start}, nullptr);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].queue, "debug");
  EXPECT_EQ(runs[0].walltime_limit.seconds(), 1800);
}

TEST_F(ReconstructTest, OutputSortedByStart) {
  const std::vector<AlpsRecord> alps = {
      Place(8, 16, {0}, 500), Exit(8, 0, 0, 600),
      Place(7, 16, {1}, 100), Exit(7, 0, 0, 200)};
  const auto runs = ReconstructRuns(machine_, alps, {}, nullptr);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].apid, 7u);
  EXPECT_EQ(runs[1].apid, 8u);
}

TEST_F(ReconstructTest, NodesOutsideMachineTolerated) {
  const std::vector<AlpsRecord> alps = {Place(9, 17, {999999}, 100),
                                        Exit(9, 0, 0, 200)};
  const auto runs = ReconstructRuns(machine_, alps, {}, nullptr);
  ASSERT_EQ(runs.size(), 1u);  // still a run; type defaults to XE
}

}  // namespace
}  // namespace ld
