#include "logdiver/hwerr_parser.hpp"

#include <gtest/gtest.h>

namespace ld {
namespace {

TEST(HwerrParser, ParsesRecord) {
  HwerrParser parser;
  auto rec = parser.ParseLine(
      "1364783402|machine_check|c1-2c0s3n1|fatal|bank=4 status=0x1a2b");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->time.unix_seconds(), 1364783402);
  EXPECT_EQ((*rec)->category, ErrorCategory::kMachineCheck);
  EXPECT_EQ((*rec)->severity, Severity::kFatal);
  EXPECT_EQ((*rec)->location, "c1-2c0s3n1");
  EXPECT_EQ((*rec)->scope, LocScope::kNode);
  EXPECT_EQ((*rec)->source, LogSource::kHwerr);
}

TEST(HwerrParser, CorrectedSeverity) {
  HwerrParser parser;
  auto rec = parser.ParseLine(
      "1364783402|machine_check|c0-0c0s0n0|corrected|bank=1 status=0x0");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->severity, Severity::kCorrected);
}

TEST(HwerrParser, BladeFaultNormalizedToBladePrefix) {
  HwerrParser parser;
  auto rec = parser.ParseLine(
      "1364783402|blade_fault|c3-4c1s2n1|fatal|voltage");
  ASSERT_TRUE(rec.ok());
  ASSERT_TRUE(rec->has_value());
  EXPECT_EQ((*rec)->scope, LocScope::kBlade);
  EXPECT_EQ((*rec)->location, "c3-4c1s2");
}

TEST(HwerrParser, SkipsUnknownCategories) {
  HwerrParser parser;
  auto rec = parser.ParseLine("1364783402|quantum_flux|c0-0c0s0n0|fatal|x");
  ASSERT_TRUE(rec.ok());
  EXPECT_FALSE(rec->has_value());
  EXPECT_EQ(parser.stats().skipped, 1u);
}

TEST(HwerrParser, MalformedLines) {
  HwerrParser parser;
  EXPECT_FALSE(parser.ParseLine("").ok());
  EXPECT_FALSE(parser.ParseLine("a|b|c").ok());
  EXPECT_FALSE(parser.ParseLine("xxx|machine_check|c0-0c0s0n0|fatal|d").ok());
  EXPECT_FALSE(
      parser.ParseLine("123|machine_check|c0-0c0s0n0|meltdown|d").ok());
  EXPECT_EQ(parser.stats().malformed, 4u);
}

TEST(HwerrParser, ParseLinesKeepsGood) {
  HwerrParser parser;
  const std::vector<std::string_view> lines = {
      "100|gpu_dbe|c9-9c0s0n3|fatal|ecc",
      "broken",
      "200|memory_ue|c0-0c0s0n0|fatal|row=4",
  };
  const auto records = parser.ParseLines(lines);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].category, ErrorCategory::kGpuDbe);
  EXPECT_EQ(records[1].category, ErrorCategory::kMemoryUE);
}

}  // namespace
}  // namespace ld
