#include "logdiver/alps_parser.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ld {
namespace {

TEST(ParseNidRanges, SinglesAndRanges) {
  auto nids = ParseNidRanges("3-5,9,12-13");
  ASSERT_TRUE(nids.ok());
  EXPECT_EQ(*nids, (std::vector<NodeIndex>{3, 4, 5, 9, 12, 13}));
}

TEST(ParseNidRanges, SingleValue) {
  auto nids = ParseNidRanges("7");
  ASSERT_TRUE(nids.ok());
  EXPECT_EQ(nids->size(), 1u);
}

TEST(ParseNidRanges, AcceptsWhatParseUintAccepts) {
  auto padded = ParseNidRanges("007,0010-0012");
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(*padded, (std::vector<NodeIndex>{7, 10, 11, 12}));
  // The largest 64-bit value is a one-nid list, truncated to NodeIndex
  // like every other value (a range loop ending there never terminated).
  auto top = ParseNidRanges("18446744073709551615");
  ASSERT_TRUE(top.ok());
  EXPECT_EQ(*top, (std::vector<NodeIndex>{kInvalidNode}));
  // A list of exactly the cap is still accepted.
  auto full = ParseNidRanges("0-1048575");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->size(), kMaxNidListNodes);
  EXPECT_EQ(full->back(), 1048575u);
}

TEST(ParseNidRanges, Rejections) {
  EXPECT_FALSE(ParseNidRanges("").ok());
  EXPECT_FALSE(ParseNidRanges("5-3").ok());        // inverted
  EXPECT_FALSE(ParseNidRanges("a-b").ok());
  EXPECT_FALSE(ParseNidRanges("1,,3").ok());
  EXPECT_FALSE(ParseNidRanges("0-9999999999").ok());  // absurd span
  // Every range is within the per-range span, but 40 of them expand to
  // 41,943,080 nids: the list as a whole is over the cap.
  std::string repeated = "0-1048576";
  for (int i = 1; i < 40; ++i) repeated += ",0-1048576";
  const auto over = ParseNidRanges(repeated);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().ToString(),
            "PARSE_ERROR: nid list expands to more than 1048576 nodes");
  EXPECT_FALSE(ParseNidRanges("0-1048575,1048576").ok());  // cap + 1
  // A list that is malformed anyway keeps its syntax reason.
  EXPECT_EQ(ParseNidRanges(repeated + ",x").status().ToString(),
            "PARSE_ERROR: bad unsigned integer: 'x'");
}

TEST(ParseNidRanges, RejectionReasonsAreStable) {
  // Quarantine entries record Status::ToString() as the reason, and
  // snapshots and cache entries carry it, so these strings are part of
  // the output.
  const struct {
    const char* text;
    const char* reason;
  } kCases[] = {
      {"", "PARSE_ERROR: empty nid list"},
      {" ", "PARSE_ERROR: empty nid list"},
      {"a-b", "PARSE_ERROR: bad unsigned integer: 'a'"},
      {"1,,3", "PARSE_ERROR: bad unsigned integer: ''"},
      {"5-3", "PARSE_ERROR: bad nid range: '5-3'"},
      {"3-", "PARSE_ERROR: bad unsigned integer: ''"},
      {"-3", "PARSE_ERROR: bad unsigned integer: ''"},
      {"1-2-3", "PARSE_ERROR: bad unsigned integer: '2-3'"},
      {"3 ,4", "PARSE_ERROR: bad unsigned integer: '3 '"},
      {"+3", "PARSE_ERROR: bad unsigned integer: '+3'"},
      {"1,", "PARSE_ERROR: bad unsigned integer: ''"},
      {"18446744073709551616",
       "PARSE_ERROR: bad unsigned integer: '18446744073709551616'"},
      {"0-9999999999", "PARSE_ERROR: bad nid range: '0-9999999999'"},
  };
  for (const auto& c : kCases) {
    const auto nids = ParseNidRanges(c.text);
    ASSERT_FALSE(nids.ok()) << "'" << c.text << "'";
    EXPECT_EQ(nids.status().ToString(), c.reason) << "'" << c.text << "'";
  }
}

TEST(AlpsParser, ParsesPlacement) {
  AlpsParser parser;
  auto rec = parser.ParseLine(
      "2013-04-01T02:10:05 apsched[5]: placeApp apid=100001 jobid=2273504 "
      "user=u1234 cmd=run_e1.exe nodect=4 nids=100-103");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  const AlpsRecord& r = **rec;
  EXPECT_EQ(r.kind, AlpsRecord::Kind::kPlace);
  EXPECT_EQ(r.apid, 100001u);
  EXPECT_EQ(r.jobid, 2273504u);
  EXPECT_EQ(r.user, "u1234");
  EXPECT_EQ(r.nodect, 4u);
  EXPECT_EQ(r.nids, (std::vector<NodeIndex>{100, 101, 102, 103}));
  EXPECT_EQ(r.time.ToIso(), "2013-04-01T02:10:05");
}

TEST(AlpsParser, UntrustedNodectDoesNotSizeTheList) {
  AlpsParser parser;
  auto rec = parser.ParseLine(
      "2013-04-01T02:10:05 apsched[5]: placeApp apid=1 jobid=2 user=u "
      "nodect=4294967295 nids=7");
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->nodect, 4294967295u);
  EXPECT_EQ((*rec)->nids, (std::vector<NodeIndex>{7}));
  EXPECT_LE((*rec)->nids.capacity(), kMaxNidListNodes);
}

TEST(AlpsParser, ParsesExit) {
  AlpsParser parser;
  auto rec = parser.ParseLine(
      "2013-04-01T03:10:05 apsys[5]: apid=100001 exited, status=139 signal=11");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->kind, AlpsRecord::Kind::kExit);
  EXPECT_EQ((*rec)->exit_code, 139);
  EXPECT_EQ((*rec)->exit_signal, 11);
}

TEST(AlpsParser, ParsesNodeFailureKill) {
  AlpsParser parser;
  auto rec = parser.ParseLine(
      "2013-04-01T03:10:05 apsys[5]: apid=100001 killed, "
      "reason=node_failure nid=105");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->kind, AlpsRecord::Kind::kKill);
  EXPECT_TRUE((*rec)->node_failure);
  EXPECT_EQ((*rec)->failed_nid, 105u);
}

TEST(AlpsParser, OtherKillReasonIsNotNodeFailure) {
  AlpsParser parser;
  for (const char* line :
       {"2013-04-01T03:10:05 apsys[5]: apid=100001 killed, "
        "reason=node_failure_x nid=105",
        "2013-04-01T03:10:05 apsys[5]: apid=100001 killed, nid=105"}) {
    auto rec = parser.ParseLine(line);
    ASSERT_TRUE(rec.ok()) << line;
    ASSERT_TRUE(rec->has_value()) << line;
    EXPECT_EQ((*rec)->kind, AlpsRecord::Kind::kKill) << line;
    EXPECT_FALSE((*rec)->node_failure) << line;
  }
}

TEST(AlpsParser, SkipsUnknownDaemonChatter) {
  AlpsParser parser;
  auto rec = parser.ParseLine(
      "2013-04-01T03:10:05 apinit[9]: heartbeat ok nid=12");
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_value());
  EXPECT_EQ(parser.stats().skipped, 1u);
}

TEST(AlpsParser, MalformedLines) {
  AlpsParser parser;
  EXPECT_FALSE(parser.ParseLine("").ok());
  EXPECT_FALSE(parser.ParseLine("not a timestamp apsys[5]: apid=1").ok());
  EXPECT_FALSE(
      parser.ParseLine("2013-04-01T03:10:05 apsys[5] no separator").ok());
  EXPECT_FALSE(parser
                   .ParseLine("2013-04-01T03:10:05 apsched[5]: placeApp "
                              "jobid=1 nids=1-2")
                   .ok());  // missing apid
  EXPECT_EQ(parser.stats().malformed, 4u);
}

TEST(AlpsParser, ParseLinesRoundtrip) {
  AlpsParser parser;
  const std::vector<std::string_view> lines = {
      "2013-04-01T02:10:05 apsched[5]: placeApp apid=1 jobid=2 user=u "
      "cmd=c nodect=1 nids=0",
      "junk",
      "2013-04-01T02:20:05 apsys[5]: apid=1 exited, status=0 signal=0",
  };
  const auto records = parser.ParseLines(lines);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(parser.stats().malformed, 1u);
}

}  // namespace
}  // namespace ld
