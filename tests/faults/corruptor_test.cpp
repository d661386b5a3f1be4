#include "faults/corruptor.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/time.hpp"
#include "logdiver/alps_parser.hpp"
#include "logdiver/hwerr_parser.hpp"
#include "logdiver/syslog_parser.hpp"
#include "logdiver/torque_parser.hpp"

namespace ld {
namespace {

/// A string_view per line (the parsers' ParseLines takes views).
std::vector<std::string_view> Views(const std::vector<std::string>& lines) {
  return {lines.begin(), lines.end()};
}

/// A small well-formed bundle shaped like simlog output.
struct Bundle {
  std::vector<std::string> torque;
  std::vector<std::string> alps;
  std::vector<std::string> syslog;
  std::vector<std::string> hwerr;
};

Bundle SampleBundle(int lines_per_stream = 50) {
  Bundle bundle;
  for (int i = 0; i < lines_per_stream; ++i) {
    const std::int64_t t = 1365000000 + i * 60;
    const TimePoint when(t);
    bundle.torque.push_back(
        "04/03/2013 12:00:00;E;" + std::to_string(100 + i) +
        ".bw;user=alice group=users queue=normal jobname=app ctime=" +
        std::to_string(t - 600) + " qtime=" + std::to_string(t - 600) +
        " start=" + std::to_string(t - 400) + " end=" + std::to_string(t) +
        " Exit_status=0 Resource_List.nodect=2 "
        "Resource_List.walltime=01:00:00");
    bundle.alps.push_back(when.ToIso() + " apsched[5]: placeApp apid=" +
                          std::to_string(5000 + i) +
                          " jobid=" + std::to_string(100 + i) +
                          " user=alice cmd=app.exe nodect=2 nids=8-9");
    bundle.syslog.push_back(when.ToSyslog() +
                            " c0-0c0s1n1 Machine check events logged, "
                            "corrected DIMM error");
    bundle.hwerr.push_back(std::to_string(t) +
                           "|machine_check|c0-0c0s1n1|corrected|bank=4");
  }
  return bundle;
}

CorruptorConfig AllOpsConfig(double rate) {
  CorruptorConfig config;
  config.rate = rate;
  config.ops = LogCorruptor::AllOps();
  return config;
}

TEST(LogCorruptor, ZeroRateIsIdentity) {
  Bundle bundle = SampleBundle();
  const Bundle original = bundle;
  const LogCorruptor corruptor(AllOpsConfig(0.0));
  const CorruptionLedger ledger = corruptor.CorruptBundle(bundle, Rng(1));
  EXPECT_EQ(ledger.total(), 0u);
  EXPECT_EQ(bundle.torque, original.torque);
  EXPECT_EQ(bundle.alps, original.alps);
  EXPECT_EQ(bundle.syslog, original.syslog);
  EXPECT_EQ(bundle.hwerr, original.hwerr);
}

TEST(LogCorruptor, EmptyOpSetIsIdentity) {
  Bundle bundle = SampleBundle();
  const Bundle original = bundle;
  CorruptorConfig config;
  config.rate = 1.0;  // rate without operators does nothing
  const LogCorruptor corruptor(config);
  const CorruptionLedger ledger = corruptor.CorruptBundle(bundle, Rng(1));
  EXPECT_EQ(ledger.total(), 0u);
  EXPECT_EQ(bundle.alps, original.alps);
}

TEST(LogCorruptor, DeterministicInSeed) {
  Bundle a = SampleBundle();
  Bundle b = SampleBundle();
  const LogCorruptor corruptor(AllOpsConfig(0.3));
  const CorruptionLedger la = corruptor.CorruptBundle(a, Rng(99));
  const CorruptionLedger lb = corruptor.CorruptBundle(b, Rng(99));
  EXPECT_EQ(a.torque, b.torque);
  EXPECT_EQ(a.alps, b.alps);
  EXPECT_EQ(a.syslog, b.syslog);
  EXPECT_EQ(a.hwerr, b.hwerr);
  EXPECT_EQ(la.total(), lb.total());

  Bundle c = SampleBundle();
  corruptor.CorruptBundle(c, Rng(100));
  EXPECT_NE(a.alps, c.alps);  // a different seed strikes elsewhere
}

TEST(LogCorruptor, LedgerCountsWhatHappened) {
  Bundle bundle = SampleBundle(200);
  const LogCorruptor corruptor(AllOpsConfig(0.2));
  const CorruptionLedger ledger = corruptor.CorruptBundle(bundle, Rng(7));

  EXPECT_GT(ledger.total(), 0u);
  for (std::size_t s = 0; s < kStreamDialectCount; ++s) {
    EXPECT_EQ(ledger.lines_in[s], 200u);
    // gap removes, duplicate adds; out = in - gap + dup.
    const auto gap =
        ledger.counts[s][static_cast<std::size_t>(CorruptionOp::kRotationGap)];
    const auto dup =
        ledger.counts[s][static_cast<std::size_t>(CorruptionOp::kDuplicate)];
    EXPECT_EQ(ledger.lines_out[s], 200u - gap + dup);
    EXPECT_GT(gap, 0u);
    EXPECT_GT(dup, 0u);
  }
  EXPECT_GT(ledger.total(CorruptionOp::kTruncate), 0u);
  EXPECT_GT(ledger.total(CorruptionOp::kGarble), 0u);
  EXPECT_GT(ledger.total(CorruptionOp::kTimeSkew), 0u);
  EXPECT_FALSE(ledger.Render().empty());
}

TEST(LogCorruptor, OperatorsAreIndependentSubstreams) {
  // Enabling truncation must not move where garbling strikes: ops draw
  // from independent forked substreams.
  Bundle garble_only = SampleBundle();
  CorruptorConfig config;
  config.rate = 0.3;
  config.ops = {CorruptionOp::kGarble};
  LogCorruptor(config).CorruptBundle(garble_only, Rng(5));

  Bundle both = SampleBundle();
  config.ops = {CorruptionOp::kTruncate, CorruptionOp::kGarble};
  LogCorruptor(config).CorruptBundle(both, Rng(5));

  // Lines the truncation pass left alone must carry identical garbling.
  int compared = 0;
  for (std::size_t i = 0; i < both.syslog.size(); ++i) {
    if (both.syslog[i].size() == garble_only.syslog[i].size()) {
      EXPECT_EQ(both.syslog[i], garble_only.syslog[i]);
      ++compared;
    }
  }
  EXPECT_GT(compared, 0);
}

TEST(LogCorruptor, SkewedLinesStillParse) {
  Bundle bundle = SampleBundle(100);
  CorruptorConfig config;
  config.rate = 1.0;  // skew every line
  config.ops = {CorruptionOp::kTimeSkew};
  config.max_skew_seconds = 600;
  const LogCorruptor corruptor(config);
  const CorruptionLedger ledger = corruptor.CorruptBundle(bundle, Rng(11));
  EXPECT_EQ(ledger.total(CorruptionOp::kTimeSkew), 400u);

  // Skew attacks semantics, not syntax: every stream parses clean, but
  // the claimed times moved.
  TorqueParser torque;
  torque.ParseLines(Views(bundle.torque));
  EXPECT_EQ(torque.stats().malformed, 0u);
  EXPECT_EQ(torque.stats().records, 100u);

  AlpsParser alps;
  const auto alps_records = alps.ParseLines(Views(bundle.alps));
  EXPECT_EQ(alps.stats().malformed, 0u);
  ASSERT_EQ(alps_records.size(), 100u);
  bool moved = false;
  for (std::size_t i = 0; i < alps_records.size(); ++i) {
    const TimePoint original(1365000000 + static_cast<std::int64_t>(i) * 60);
    if (alps_records[i].time != original) moved = true;
    EXPECT_LE(alps_records[i].time - original, Duration::Seconds(600));
    EXPECT_LE(original - alps_records[i].time, Duration::Seconds(600));
  }
  EXPECT_TRUE(moved);

  SyslogParser syslog(2013);
  syslog.ParseLines(Views(bundle.syslog));
  EXPECT_EQ(syslog.stats().malformed, 0u);

  HwerrParser hwerr;
  hwerr.ParseLines(Views(bundle.hwerr));
  EXPECT_EQ(hwerr.stats().malformed, 0u);
}

TEST(LogCorruptor, RotationGapDropsOneContiguousSegment) {
  Bundle bundle = SampleBundle(100);
  CorruptorConfig config;
  config.rate = 0.1;
  config.ops = {CorruptionOp::kRotationGap};
  const CorruptionLedger ledger =
      LogCorruptor(config).CorruptBundle(bundle, Rng(3));
  EXPECT_EQ(bundle.alps.size(), 90u);
  EXPECT_EQ(ledger.total(CorruptionOp::kRotationGap), 40u);  // 10 per stream
  // The survivors are an untouched subsequence of the original.
  const Bundle original = SampleBundle(100);
  auto it = original.alps.begin();
  for (const std::string& line : bundle.alps) {
    it = std::find(it, original.alps.end(), line);
    ASSERT_NE(it, original.alps.end());
    ++it;
  }
}

}  // namespace
}  // namespace ld
