#include "logdiver/torque_parser.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

constexpr const char* kEndRecord =
    "04/01/2013 04:10:02;E;2273504.bw;user=u1234 group=users queue=normal "
    "jobname=run_e1 ctime=1364783402 qtime=1364783402 start=1364783500 "
    "end=1364790602 Exit_status=0 Resource_List.nodect=16 "
    "Resource_List.walltime=02:00:00 resources_used.walltime=01:58:22";

constexpr const char* kStartRecord =
    "04/01/2013 02:10:02;S;2273504.bw;user=u1234 group=users queue=high "
    "jobname=run_e1 ctime=1364783402 qtime=1364783402 etime=1364783402 "
    "start=1364783500 owner=u1234@bw Resource_List.nodect=16 "
    "Resource_List.walltime=02:00:00";

TEST(TorqueParser, ParsesEndRecord) {
  TorqueParser parser;
  auto rec = parser.ParseLine(kEndRecord);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  const TorqueRecord& r = **rec;
  EXPECT_EQ(r.kind, TorqueRecord::Kind::kEnd);
  EXPECT_EQ(r.jobid, 2273504u);
  EXPECT_EQ(r.user, "u1234");
  EXPECT_EQ(r.queue, "normal");
  EXPECT_EQ(r.submit.unix_seconds(), 1364783402);
  EXPECT_EQ(r.start.unix_seconds(), 1364783500);
  EXPECT_EQ(r.end.unix_seconds(), 1364790602);
  EXPECT_EQ(r.exit_status, 0);
  EXPECT_EQ(r.nodect, 16u);
  EXPECT_EQ(r.walltime_limit.seconds(), 7200);
  EXPECT_EQ(r.walltime_used.seconds(), 7102);
}

TEST(TorqueParser, ParsesStartRecord) {
  TorqueParser parser;
  auto rec = parser.ParseLine(kStartRecord);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->kind, TorqueRecord::Kind::kStart);
  EXPECT_EQ((*rec)->queue, "high");
  EXPECT_EQ((*rec)->time.unix_seconds(), 1364783500);
}

TEST(TorqueParser, NegativeExitStatus) {
  TorqueParser parser;
  const std::string line =
      "04/01/2013 04:10:02;E;7.bw;user=u1 queue=normal ctime=100 start=200 "
      "end=300 Exit_status=-11 Resource_List.nodect=4";
  auto rec = parser.ParseLine(line);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->exit_status, -11);
}

TEST(TorqueParser, SkipsOtherRecordTypes) {
  TorqueParser parser;
  auto rec = parser.ParseLine("04/01/2013 02:10:02;Q;1.bw;queue=normal");
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_value());
  EXPECT_EQ(parser.stats().skipped, 1u);
}

TEST(TorqueParser, CountsMalformed) {
  TorqueParser parser;
  EXPECT_FALSE(parser.ParseLine("garbage").ok());
  EXPECT_FALSE(parser.ParseLine("04/01/2013;E;x.bw;user=u").ok());  // bad jobid
  EXPECT_FALSE(
      parser.ParseLine("04/01/2013 00:00:00;E;5.bw;user=u").ok());  // no times
  EXPECT_EQ(parser.stats().malformed, 3u);
  EXPECT_EQ(parser.stats().lines, 3u);
}

TEST(TorqueParser, ParseLinesSkipsBadKeepsGood) {
  TorqueParser parser;
  const std::vector<std::string_view> lines = {kEndRecord, "corrupted line",
                                               kStartRecord};
  const auto records = parser.ParseLines(lines);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(parser.stats().records, 2u);
  EXPECT_EQ(parser.stats().malformed, 1u);
}

TEST(TorqueParser, JobidWithoutSuffix) {
  TorqueParser parser;
  const std::string line =
      "04/01/2013 04:10:02;E;42;user=u1 queue=q ctime=1 start=2 end=3 "
      "Exit_status=1";
  auto rec = parser.ParseLine(line);
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->jobid, 42u);
}

}  // namespace
}  // namespace ld
