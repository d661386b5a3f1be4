#include "simlog/emitters.hpp"

#include <gtest/gtest.h>

#include "logdiver/alps_parser.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {
namespace {

constexpr std::int64_t kT0 = 1364774400;  // 2013-04-01

Job MakeJob() {
  Job job;
  job.jobid = 77;
  job.user_name = "u0042";
  job.queue = "normal";
  job.job_name = "run_e77";
  job.node_type = NodeType::kXE;
  job.nodes = {3, 4, 5, 9};
  job.submit = TimePoint(kT0);
  job.start = TimePoint(kT0 + 60);
  job.end = TimePoint(kT0 + 3660);
  job.walltime_limit = Duration::Hours(2);
  job.exit_status = 0;
  return job;
}

Application MakeApp() {
  Application app;
  app.apid = 100123;
  app.jobid = 77;
  app.start = TimePoint(kT0 + 90);
  app.end = TimePoint(kT0 + 3600);
  return app;
}

TEST(Emitters, TorqueTimestampFormat) {
  EXPECT_EQ(TorqueTimestamp(TimePoint(kT0)), "04/01/2013 00:00:00");
}

TEST(Emitters, CompressNids) {
  EXPECT_EQ(CompressNids({3, 4, 5, 9}), "3-5,9");
  EXPECT_EQ(CompressNids({7}), "7");
  EXPECT_EQ(CompressNids({5, 3, 4}), "3-5");  // sorts first
  EXPECT_EQ(CompressNids({1, 3, 5}), "1,3,5");
  EXPECT_EQ(CompressNids({}), "");
}

TEST(Emitters, TorqueRoundTripThroughParser) {
  const Job job = MakeJob();
  TorqueParser parser;
  auto s = parser.ParseLine(RenderTorqueStart(job));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(s->has_value());
  EXPECT_EQ((*s)->kind, TorqueRecord::Kind::kStart);
  EXPECT_EQ((*s)->jobid, 77u);
  EXPECT_EQ((*s)->start, job.start);
  EXPECT_EQ((*s)->nodect, 4u);
  EXPECT_EQ((*s)->walltime_limit.seconds(), 7200);

  auto e = parser.ParseLine(RenderTorqueEnd(job));
  ASSERT_TRUE(e.ok());
  ASSERT_TRUE(e->has_value());
  EXPECT_EQ((*e)->kind, TorqueRecord::Kind::kEnd);
  EXPECT_EQ((*e)->end, job.end);
  EXPECT_EQ((*e)->exit_status, 0);
  EXPECT_EQ((*e)->user, "u0042");
}

TEST(Emitters, AlpsRoundTripThroughParser) {
  const Job job = MakeJob();
  const Application app = MakeApp();
  AlpsParser parser;

  auto place = parser.ParseLine(RenderAlpsPlace(job, app));
  ASSERT_TRUE(place.ok());
  ASSERT_TRUE(place->has_value());
  EXPECT_EQ((*place)->apid, 100123u);
  EXPECT_EQ((*place)->jobid, 77u);
  EXPECT_EQ((*place)->nids, (std::vector<NodeIndex>{3, 4, 5, 9}));
  EXPECT_EQ((*place)->time, app.start);

  Application failed = app;
  failed.exit_code = 139;
  failed.exit_signal = 11;
  auto exit = parser.ParseLine(RenderAlpsExit(failed));
  ASSERT_TRUE(exit.ok());
  ASSERT_TRUE(exit->has_value());
  EXPECT_EQ((*exit)->exit_code, 139);
  EXPECT_EQ((*exit)->exit_signal, 11);

  auto kill = parser.ParseLine(RenderAlpsNodeFailureKill(app, 4));
  ASSERT_TRUE(kill.ok());
  ASSERT_TRUE(kill->has_value());
  EXPECT_EQ((*kill)->kind, AlpsRecord::Kind::kKill);
  EXPECT_EQ((*kill)->failed_nid, 4u);
}

class SyslogRoundTrip
    : public ::testing::TestWithParam<std::tuple<ErrorCategory, Severity>> {
 protected:
  SyslogRoundTrip() : machine_(Machine::Testbed(96, 24)) {}
  Machine machine_;
};

TEST_P(SyslogRoundTrip, EmittedLineParsesBackToSameCategory) {
  const auto [category, severity] = GetParam();
  ErrorEvent event;
  event.event_id = 1;
  event.time = TimePoint(kT0 + 3600);
  event.category = category;
  event.severity = severity;
  event.scope = category == ErrorCategory::kLustre    ? Scope::kSystem
                : category == ErrorCategory::kBladeFault ? Scope::kBlade
                                                         : Scope::kNode;
  event.node = category == ErrorCategory::kLustre ? kInvalidNode : 5;
  event.detected = true;

  const std::string line = RenderSyslogLine(machine_, event, event.time);
  ASSERT_FALSE(line.empty());
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(line);
  ASSERT_TRUE(rec.ok()) << line;
  // A Lustre incident is held until its recovery line; end of stream
  // closes it.
  if (!rec->has_value()) *rec = parser.FinishOpenIncident();
  ASSERT_TRUE(rec->has_value()) << line;
  EXPECT_EQ((*rec)->category, category) << line;
  EXPECT_EQ((*rec)->severity, severity) << line;
  EXPECT_EQ((*rec)->time, event.time);
}

INSTANTIATE_TEST_SUITE_P(
    Categories, SyslogRoundTrip,
    ::testing::Values(
        std::make_tuple(ErrorCategory::kMachineCheck, Severity::kFatal),
        std::make_tuple(ErrorCategory::kMachineCheck, Severity::kCorrected),
        std::make_tuple(ErrorCategory::kMemoryUE, Severity::kFatal),
        std::make_tuple(ErrorCategory::kGpuDbe, Severity::kFatal),
        std::make_tuple(ErrorCategory::kGpuXid, Severity::kFatal),
        std::make_tuple(ErrorCategory::kGpuXid, Severity::kCorrected),
        std::make_tuple(ErrorCategory::kGeminiLink, Severity::kFatal),
        std::make_tuple(ErrorCategory::kGeminiLink, Severity::kDegraded),
        std::make_tuple(ErrorCategory::kGeminiLink, Severity::kCorrected),
        std::make_tuple(ErrorCategory::kLustre, Severity::kFatal),
        std::make_tuple(ErrorCategory::kNodeHeartbeat, Severity::kFatal),
        std::make_tuple(ErrorCategory::kBladeFault, Severity::kFatal),
        std::make_tuple(ErrorCategory::kKernelSoftware, Severity::kFatal)));

TEST(Emitters, SyslogLocationMatchesEventNode) {
  const Machine machine = Machine::Testbed(96, 24);
  ErrorEvent event;
  event.time = TimePoint(kT0);
  event.category = ErrorCategory::kNodeHeartbeat;
  event.severity = Severity::kFatal;
  event.scope = Scope::kNode;
  event.node = 17;
  const std::string line = RenderSyslogLine(machine, event, event.time);
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(line);
  ASSERT_TRUE(rec.ok() && rec->has_value());
  EXPECT_EQ((*rec)->location, machine.node(17).cname.ToString());
}

TEST(Emitters, HwerrOnlyForHardwareCategories) {
  const Machine machine = Machine::Testbed(96, 24);
  ErrorEvent hw;
  hw.time = TimePoint(kT0);
  hw.category = ErrorCategory::kMemoryUE;
  hw.severity = Severity::kFatal;
  hw.node = 3;
  EXPECT_FALSE(RenderHwerrLine(machine, hw, hw.time).empty());

  ErrorEvent sw = hw;
  sw.category = ErrorCategory::kKernelSoftware;
  EXPECT_TRUE(RenderHwerrLine(machine, sw, sw.time).empty());
  ErrorEvent lustre = hw;
  lustre.category = ErrorCategory::kLustre;
  lustre.node = kInvalidNode;
  EXPECT_TRUE(RenderHwerrLine(machine, lustre, lustre.time).empty());
}

TEST(Emitters, GroundTruthCsvShape) {
  Workload wl;
  Job job = MakeJob();
  wl.jobs.push_back(job);
  Application app = MakeApp();
  app.truth = AppOutcome::kSuccess;
  wl.apps.push_back(app);
  Application cancelled = MakeApp();
  cancelled.apid = 100124;
  cancelled.cancelled = true;
  wl.apps.push_back(cancelled);

  InjectionResult injection;
  TruthRecord rec;
  rec.apid = 100123;
  rec.outcome = AppOutcome::kSuccess;
  injection.truth.emplace(rec.apid, rec);

  const auto lines = RenderGroundTruthCsv(wl, injection);
  ASSERT_EQ(lines.size(), 2u);  // header + 1 live app
  EXPECT_EQ(lines[0], "apid,outcome,cause,event_id,cause_detected");
  EXPECT_EQ(lines[1], "100123,success,,0,0");
}

}  // namespace
}  // namespace ld
