#include "logdiver/syslog_parser.hpp"

#include <gtest/gtest.h>

#include <string>

#include "logdiver/claims.hpp"

namespace ld {
namespace {

TEST(SyslogTime, ParsesClassicStamp) {
  auto t = SyslogParser::ParseSyslogTime("Apr  1 02:10:02", 2013);
  ASSERT_TRUE(t.ok());
  EXPECT_EQ(t->ToIso(), "2013-04-01T02:10:02");
}

TEST(SyslogTime, RejectsBadStamp) {
  EXPECT_FALSE(SyslogParser::ParseSyslogTime("Foo  1 02:10:02", 2013).ok());
  EXPECT_FALSE(SyslogParser::ParseSyslogTime("Apr", 2013).ok());
}

TEST(SyslogTime, ClockMustBeDigitsAndColons) {
  // The fixed-width HH:MM:SS fast path and the general digit-run path
  // agree: any non-digit where a digit belongs, or a missing ':',
  // rejects the stamp.
  for (const char* bad : {"Apr  1 0a:10:02", "Apr  1 02:1a:02",
                          "Apr  1 02:10:0\x80", "Apr  1 02-10:02",
                          "Apr  1 02:10-02", "Apr  1 02:10:",
                          "Apr  1 02::0:02"}) {
    EXPECT_FALSE(SyslogParser::ParseSyslogTime(bad, 2013).ok()) << bad;
  }
  auto narrow = SyslogParser::ParseSyslogTime("Apr  1 2:3:4", 2013);
  ASSERT_TRUE(narrow.ok());
  EXPECT_EQ(narrow->ToIso(), "2013-04-01T02:03:04");
}

TEST(SyslogTime, DayAndClockAreRangeChecked) {
  // One stamp grammar on the claim path and the line path: a day outside
  // 1-31 or a clock past 23:59:60 is malformed on both, and the claim
  // carry stays where the last good stamp left it.
  for (const char* bad : {"Apr  0 02:10:02", "Apr 32 02:10:02",
                          "Apr 370 10:00:00", "Apr -1 02:10:02",
                          "Apr  1 24:00:00", "Apr  1 23:60:00",
                          "Apr  1 23:59:61"}) {
    EXPECT_FALSE(SyslogParser::ParseSyslogTime(bad, 2013).ok()) << bad;
    const std::string line = std::string(bad) + " c0-0c0s0n1 kernel: stray";
    SyslogParser parser(2013);
    EXPECT_FALSE(parser.ParseLine(line).ok()) << bad;
    EXPECT_EQ(parser.stats().malformed, 1u) << bad;
    ClaimedTracker tracker(2013);
    const TimePoint before =
        tracker.ParseAndClaim(LogSource::kSyslog, "Apr  1 02:10:02 smw x")
            .claimed;
    EXPECT_EQ(tracker.ParseAndClaim(LogSource::kSyslog, line).claimed, before)
        << bad;
  }
  auto leap = SyslogParser::ParseSyslogTime("Jun 30 23:59:60", 2013);
  ASSERT_TRUE(leap.ok());
  EXPECT_EQ(leap->ToIso(), "2013-07-01T00:00:00");
}

TEST(SyslogParser, MachineCheckFatalOnNode) {
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(
      "Apr  1 02:10:02 c1-2c0s3n1 kernel: [Hardware Error]: Machine check: "
      "Processor context corrupt");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->category, ErrorCategory::kMachineCheck);
  EXPECT_EQ((*rec)->severity, Severity::kFatal);
  EXPECT_EQ((*rec)->scope, LocScope::kNode);
  EXPECT_EQ((*rec)->location, "c1-2c0s3n1");
}

TEST(SyslogParser, CorrectedMachineCheck) {
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(
      "Apr  1 02:10:02 c1-2c0s3n1 kernel: [Hardware Error]: Machine check "
      "events logged (corrected)");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->severity, Severity::kCorrected);
}

TEST(SyslogParser, GpuCategories) {
  SyslogParser parser(2013);
  auto dbe = parser.ParseLine(
      "Apr  1 02:10:02 c20-0c1s4n2 kernel: NVRM: Xid (0000:02:00): 48, "
      "Double Bit ECC Error");
  ASSERT_TRUE(dbe.ok() && dbe->has_value());
  EXPECT_EQ((*dbe)->category, ErrorCategory::kGpuDbe);
  EXPECT_EQ((*dbe)->severity, Severity::kFatal);

  auto xid = parser.ParseLine(
      "Apr  1 02:11:02 c20-0c1s4n2 kernel: NVRM: Xid (0000:02:00): 13, "
      "Graphics SM exception");
  ASSERT_TRUE(xid.ok() && xid->has_value());
  EXPECT_EQ((*xid)->category, ErrorCategory::kGpuXid);
  EXPECT_EQ((*xid)->severity, Severity::kFatal);

  auto retire = parser.ParseLine(
      "Apr  1 02:12:02 c20-0c1s4n2 kernel: NVRM: Xid (0000:02:00): 63, "
      "ECC page retirement");
  ASSERT_TRUE(retire.ok() && retire->has_value());
  EXPECT_EQ((*retire)->severity, Severity::kCorrected);
}

TEST(SyslogParser, SmwHeartbeatAndBlade) {
  SyslogParser parser(2013);
  auto hb = parser.ParseLine(
      "Apr  1 02:10:02 smw node_health: node c1-0c2s3n2 heartbeat fault, "
      "marking node down");
  ASSERT_TRUE(hb.ok() && hb->has_value());
  EXPECT_EQ((*hb)->category, ErrorCategory::kNodeHeartbeat);
  EXPECT_EQ((*hb)->scope, LocScope::kNode);
  EXPECT_EQ((*hb)->location, "c1-0c2s3n2");

  auto blade = parser.ParseLine(
      "Apr  1 02:10:03 smw hwerrd: blade c3-4c1s2 voltage fault, powering "
      "down blade");
  ASSERT_TRUE(blade.ok() && blade->has_value());
  EXPECT_EQ((*blade)->category, ErrorCategory::kBladeFault);
  EXPECT_EQ((*blade)->scope, LocScope::kBlade);
  EXPECT_EQ((*blade)->location, "c3-4c1s2");
}

TEST(SyslogParser, GeminiLinkSeverities) {
  SyslogParser parser(2013);
  auto fatal = parser.ParseLine(
      "Apr  1 02:10:02 smw netwatch: Gemini LCB c3-4c1s2g0l33 failed, "
      "failover unsuccessful");
  ASSERT_TRUE(fatal.ok() && fatal->has_value());
  EXPECT_EQ((*fatal)->category, ErrorCategory::kGeminiLink);
  EXPECT_EQ((*fatal)->severity, Severity::kFatal);
  EXPECT_EQ((*fatal)->scope, LocScope::kGemini);
  EXPECT_EQ((*fatal)->location, "c3-4c1s2g0");  // lane suffix stripped

  auto degraded = parser.ParseLine(
      "Apr  1 02:10:02 smw netwatch: Gemini LCB c3-4c1s2g1l12 failed, "
      "failover initiated");
  ASSERT_TRUE(degraded.ok() && degraded->has_value());
  EXPECT_EQ((*degraded)->severity, Severity::kDegraded);

  auto lane = parser.ParseLine(
      "Apr  1 02:10:02 smw netwatch: lane degrade on c3-4c1s2g0l12, "
      "recovered");
  ASSERT_TRUE(lane.ok() && lane->has_value());
  EXPECT_EQ((*lane)->severity, Severity::kCorrected);
}

TEST(SyslogParser, KernelPanic) {
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(
      "Apr  1 02:10:02 c0-0c0s0n0 kernel: Kernel panic - not syncing: "
      "Fatal exception");
  ASSERT_TRUE(rec.ok() && rec->has_value());
  EXPECT_EQ((*rec)->category, ErrorCategory::kKernelSoftware);
}

TEST(SyslogParser, SkipsUnknownMessages) {
  SyslogParser parser(2013);
  auto rec = parser.ParseLine(
      "Apr  1 02:10:02 c0-0c0s0n0 sshd: Accepted publickey for root");
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_value());
  EXPECT_EQ(parser.stats().skipped, 1u);
}

TEST(SyslogParser, YearRollover) {
  SyslogParser parser(2013);
  auto before = parser.ParseLine(
      "Dec 31 23:59:58 c0-0c0s0n0 kernel: Kernel panic - not syncing: x");
  auto after = parser.ParseLine(
      "Jan  1 00:00:03 c0-0c0s0n1 kernel: Kernel panic - not syncing: x");
  ASSERT_TRUE(before.ok() && before->has_value());
  ASSERT_TRUE(after.ok() && after->has_value());
  EXPECT_EQ(ToCalendar((*before)->time).year, 2013);
  EXPECT_EQ(ToCalendar((*after)->time).year, 2014);
  EXPECT_GT((*after)->time, (*before)->time);
}

TEST(SyslogParser, SkewedLineAfterRolloverKeepsOldYearOnce) {
  // A node with a lagging clock stamps a December line *after* the
  // stream already crossed into January.  The skewed line must render in
  // the old year, and — the regression — the next January line must not
  // re-trigger the rollover and advance the year a second time.
  SyslogParser parser(2013);
  const std::vector<std::string_view> lines = {
      "Dec 31 23:59:30 c0-0c0s0n0 kernel: Kernel panic - not syncing: a",
      "Jan  1 00:00:10 c0-0c0s0n1 kernel: Kernel panic - not syncing: b",
      "Dec 31 23:59:50 c0-0c0s0n2 kernel: Kernel panic - not syncing: c",
      "Jan  1 00:00:40 c0-0c0s0n3 kernel: Kernel panic - not syncing: d",
  };
  const auto records = parser.ParseLines(lines);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(ToCalendar(records[0].time).year, 2013);
  EXPECT_EQ(ToCalendar(records[1].time).year, 2014);
  EXPECT_EQ(ToCalendar(records[2].time).year, 2013);
  EXPECT_EQ(ToCalendar(records[3].time).year, 2014);
}

TEST(SyslogParser, NoSpuriousRolloverWithinYear) {
  SyslogParser parser(2013);
  (void)parser.ParseLine(
      "Apr  1 00:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing: x");
  auto later = parser.ParseLine(
      "Mar 30 00:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing: x");
  // A small backwards month step (log shuffling) must not bump the year.
  ASSERT_TRUE(later.ok() && later->has_value());
  EXPECT_EQ(ToCalendar((*later)->time).year, 2013);
}

TEST(SyslogParser, LustreIncidentPairing) {
  SyslogParser parser(2013);
  const std::vector<std::string_view> lines = {
      "Apr  1 02:00:00 sonexion LustreError: 11-0: snx11003-OST0042: "
      "operation ost_write failed: service unavailable",
      "Apr  1 02:15:00 sonexion Lustre: snx11003-OST0042: service recovered",
      "Apr  2 05:00:00 sonexion LustreError: 11-0: snx11003-OST0042: "
      "operation ost_write failed: service unavailable",
  };
  const auto records = parser.ParseLines(lines);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].category, ErrorCategory::kLustre);
  EXPECT_EQ(records[0].scope, LocScope::kSystem);
  ASSERT_TRUE(records[0].recovered.has_value());
  EXPECT_EQ((*records[0].recovered - records[0].time).seconds(), 900);
  // Open incident at end-of-stream gets the default window.
  ASSERT_TRUE(records[1].recovered.has_value());
  EXPECT_EQ((*records[1].recovered - records[1].time).seconds(), 1800);
}

TEST(SyslogParser, OverlappingLustreReportsMerge) {
  SyslogParser parser(2013);
  const std::vector<std::string_view> lines = {
      "Apr  1 02:00:00 sonexion LustreError: service unavailable",
      "Apr  1 02:01:00 sonexion LustreError: service unavailable",
      "Apr  1 02:10:00 sonexion Lustre: service recovered",
  };
  const auto records = parser.ParseLines(lines);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_TRUE(records[0].recovered.has_value());
}

TEST(SyslogParser, OpenIncidentSurvivesLongGaps) {
  // The line path holds the incident until its recovery line, however
  // long the outage; reports in between fold into it and other records
  // pass straight through.
  SyslogParser parser(2013);
  auto open = parser.ParseLine(
      "Apr  1 10:00:00 sonexion LustreError: ost12 failing over");
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->has_value());
  ASSERT_TRUE(parser.held_incident_start().has_value());
  const TimePoint start = *parser.held_incident_start();
  EXPECT_EQ(start.ToIso(), "2013-04-01T10:00:00");

  auto node = parser.ParseLine(
      "Apr  1 11:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing: x");
  ASSERT_TRUE(node.ok() && node->has_value());
  auto again = parser.ParseLine(
      "Apr  1 11:30:00 sonexion LustreError: ost12 still degraded");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->has_value());
  EXPECT_EQ(parser.held_incident_start(), start);

  auto closed = parser.ParseLine(
      "Apr  1 12:00:00 sonexion Lustre: ost12 recovered after failover");
  ASSERT_TRUE(closed.ok() && closed->has_value());
  EXPECT_EQ((*closed)->time, start);
  EXPECT_EQ((*closed)->severity, Severity::kFatal);
  EXPECT_EQ((*closed)->scope, LocScope::kSystem);
  ASSERT_TRUE((*closed)->recovered.has_value());
  EXPECT_EQ(*(*closed)->recovered - start, Duration::Hours(2));
  EXPECT_FALSE(parser.held_incident_start().has_value());
  EXPECT_FALSE(parser.FinishOpenIncident().has_value());
  // Every line that produced a record is counted, folded ones included.
  EXPECT_EQ(parser.stats().records, 4u);
}

TEST(SyslogParser, FinishOpenIncidentAppliesDefaultWindow) {
  SyslogParser parser(2013);
  auto open = parser.ParseLine(
      "Apr  1 02:00:00 sonexion LustreError: service unavailable");
  ASSERT_TRUE(open.ok());
  EXPECT_FALSE(open->has_value());
  const auto closed = parser.FinishOpenIncident();
  ASSERT_TRUE(closed.has_value());
  ASSERT_TRUE(closed->recovered.has_value());
  EXPECT_EQ((*closed->recovered - closed->time).seconds(), 1800);
  EXPECT_FALSE(parser.FinishOpenIncident().has_value());
}

TEST(SyslogParser, StrayRecoveryEmitsNothing) {
  SyslogParser parser(2013);
  auto stray = parser.ParseLine(
      "Apr  1 02:10:00 sonexion Lustre: service recovered");
  ASSERT_TRUE(stray.ok());
  EXPECT_FALSE(stray->has_value());
  EXPECT_FALSE(parser.held_incident_start().has_value());
}

TEST(SyslogTime, YearFollowsThePreviousTime) {
  const auto at = [](std::string_view stamp, TimePoint previous) {
    auto t = SyslogParser::ParseSyslogTime(stamp, 2013, previous);
    EXPECT_TRUE(t.ok()) << stamp;
    return t.ok() ? *t : TimePoint();
  };
  // No previous time: the base year.
  const TimePoint dec = at("Dec 31 23:59:30", TimePoint());
  EXPECT_EQ(dec.ToIso(), "2013-12-31T23:59:30");
  // December -> January rolls the year forward ...
  const TimePoint jan = at("Jan  1 00:00:10", dec);
  EXPECT_EQ(jan.ToIso(), "2014-01-01T00:00:10");
  // ... a stale-clock December line after it steps back one year ...
  const TimePoint stale = at("Dec 31 23:59:50", jan);
  EXPECT_EQ(stale.ToIso(), "2013-12-31T23:59:50");
  // ... and the next in-year line returns to the new year, once.
  EXPECT_EQ(at("Jan  1 00:00:40", stale).ToIso(), "2014-01-01T00:00:40");
  // A small backward month step stays in the year.
  EXPECT_EQ(at("Mar 30 00:00:00", at("Apr  1 00:00:00", jan)).ToIso(),
            "2014-03-30T00:00:00");
  EXPECT_FALSE(
      SyslogParser::ParseSyslogTime("Foo  1 02:10:02", 2013, jan).ok());
}

TEST(SyslogParser, MalformedCounted) {
  SyslogParser parser(2013);
  EXPECT_FALSE(parser.ParseLine("too short").ok());
  EXPECT_FALSE(parser.ParseLine(
      "Xyz  1 02:10:02 c0-0c0s0n0 kernel: Kernel panic - not syncing").ok());
  EXPECT_EQ(parser.stats().malformed, 2u);
}

}  // namespace
}  // namespace ld
