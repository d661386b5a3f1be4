#include <gtest/gtest.h>

#include "logdiver/coalesce.hpp"

namespace ld {
namespace {

ErrorRecord Rec(std::int64_t t, ErrorCategory cat, Severity sev,
                LocScope scope, std::string loc) {
  ErrorRecord rec;
  rec.time = TimePoint(t);
  rec.category = cat;
  rec.severity = sev;
  rec.scope = scope;
  rec.location = Intern(loc);
  rec.source = LogSource::kSyslog;
  return rec;
}

class StreamingCoalesceTest : public ::testing::Test {
 protected:
  StreamingCoalesceTest()
      : machine_(Machine::Testbed(96, 24)),
        coalescer_(machine_, CoalesceConfig{}),
        node0_(machine_.node(0).cname.ToString()) {}
  Machine machine_;
  StreamingCoalescer coalescer_;
  std::string node0_;
};

TEST_F(StreamingCoalesceTest, FlushOnlyClosesExpiredWindows) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(5000, ErrorCategory::kMemoryUE, Severity::kFatal,
                     LocScope::kNode, node0_));
  // Watermark 2000: only the first tuple's window (1000 + 60s) closed.
  auto flushed = coalescer_.Flush(TimePoint(2000));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].category, ErrorCategory::kMachineCheck);
  EXPECT_EQ(coalescer_.open_tuples(), 1u);
  // Everything closes at FlushAll.
  auto rest = coalescer_.FlushAll();
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].category, ErrorCategory::kMemoryUE);
}

TEST_F(StreamingCoalesceTest, BurstMergesAcrossFlushBoundaryCorrectly) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kCorrected,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1030, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  // Watermark before window close: nothing flushes.
  EXPECT_TRUE(coalescer_.Flush(TimePoint(1080)).empty());
  auto flushed = coalescer_.Flush(TimePoint(1200));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].count, 2u);
  EXPECT_EQ(flushed[0].severity, Severity::kFatal);
}

TEST_F(StreamingCoalesceTest, DisplacedTupleSurfacesOnNextFlush) {
  // Two bursts on the same key separated by more than the window: the
  // second Add displaces the first tuple, which must still be returned.
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(5000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  auto flushed = coalescer_.Flush(TimePoint(5001));
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].first, TimePoint(1000));
  EXPECT_EQ(coalescer_.open_tuples(), 1u);
}

TEST_F(StreamingCoalesceTest, StatsTrackEventsAndTuples) {
  coalescer_.Add(Rec(1000, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1001, ErrorCategory::kMachineCheck, Severity::kFatal,
                     LocScope::kNode, node0_));
  coalescer_.Add(Rec(1002, ErrorCategory::kNodeHeartbeat, Severity::kFatal,
                     LocScope::kNode, "c99-9c9s9n9"));  // unresolved
  (void)coalescer_.FlushAll();
  EXPECT_EQ(coalescer_.stats().input_events, 3u);
  EXPECT_EQ(coalescer_.stats().tuples, 1u);
  EXPECT_EQ(coalescer_.stats().unresolved_locations, 1u);
}

}  // namespace
}  // namespace ld
