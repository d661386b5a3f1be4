// Span tracer: Chrome trace_event JSON well-formedness, and span-count
// determinism across thread counts (spans follow sources and stages,
// not the schedule, so the same analysis must emit the same spans no
// matter how many workers ran it).
#include "common/obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "common/obs/json.hpp"
#include "common/obs/obs.hpp"
#include "logdiver/logdiver.hpp"
#include "simlog/scenario.hpp"

namespace ld::obs {
namespace {

class ObsTraceTest : public ::testing::Test {
 protected:
  void TearDown() override { Tracer::Get().Stop(); }
};

TEST_F(ObsTraceTest, SpansRecordOnlyWhileArmed) {
  { LD_OBS_SPAN("before_start"); }
  Tracer::Get().Start();
  { LD_OBS_SPAN("while_armed"); }
  Tracer::Get().Stop();
  { LD_OBS_SPAN("after_stop"); }
  ASSERT_EQ(Tracer::Get().event_count(), 1u);
  const std::string json = Tracer::Get().ToJson();
  EXPECT_NE(json.find("\"while_armed\""), std::string::npos);
  EXPECT_EQ(json.find("before_start"), std::string::npos);
  EXPECT_EQ(json.find("after_stop"), std::string::npos);
}

TEST_F(ObsTraceTest, DynamicNamesAndEscaping) {
  Tracer::Get().Start();
  const std::string tricky = "load/a\"b\\c\tfile";
  { LD_OBS_SPAN(tricky); }
  Tracer::Get().Stop();
  const std::string json = Tracer::Get().ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\t"), std::string::npos) << json;
}

TEST_F(ObsTraceTest, JsonHasTheChromeTraceShape) {
  Tracer::Get().Start();
  {
    LD_OBS_SPAN("outer");
    LD_OBS_SPAN("inner");
  }
  Tracer::Get().Stop();
  const std::string json = Tracer::Get().ToJson();
  ASSERT_TRUE(ValidateJson(json).ok()) << json;
  // Every complete event carries the fields chrome://tracing requires.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
}

TEST_F(ObsTraceTest, StartClearsPreviousEvents) {
  Tracer::Get().Start();
  { LD_OBS_SPAN("first_run"); }
  Tracer::Get().Stop();
  ASSERT_EQ(Tracer::Get().event_count(), 1u);
  Tracer::Get().Start();
  Tracer::Get().Stop();
  EXPECT_EQ(Tracer::Get().event_count(), 0u);
}

TEST_F(ObsTraceTest, SpanCountIsDeterministicAcrossThreadCounts) {
  // The analysis pipeline's spans follow sources, stages and fixed-size
  // classify chunks, never the schedule (that's the bit-identical-output
  // contract), so the set of spans must be identical at every thread
  // count too.
  ScenarioConfig config = SmallScenario(17);
  config.workload.target_app_runs = 300;
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  ASSERT_TRUE(campaign.ok());
  LogSet logs;
  logs.torque = campaign->logs.torque;
  logs.alps = campaign->logs.alps;
  logs.syslog = campaign->logs.syslog;
  logs.hwerr = campaign->logs.hwerr;

  std::vector<std::size_t> counts;
  for (const int threads : {1, 2, 4}) {
    Tracer::Get().Start();
    LogDiverConfig diver_config;
    diver_config.threads = threads;
    const LogDiver diver(machine, diver_config);
    auto analysis = diver.Analyze(logs);
    Tracer::Get().Stop();
    ASSERT_TRUE(analysis.ok());
    ASSERT_TRUE(ValidateJson(Tracer::Get().ToJson()).ok());
    counts.push_back(Tracer::Get().event_count());
  }
  EXPECT_GT(counts[0], 0u);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
}

}  // namespace
}  // namespace ld::obs
