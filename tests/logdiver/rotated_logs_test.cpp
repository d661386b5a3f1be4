#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "logdiver/logdiver.hpp"
#include "logdiver/syslog_parser.hpp"
#include "simlog/catalog.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

void WriteFile(const std::string& path, const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
}

/// The syslog family of `dir`, stitched by the bundle loader (torque and
/// alps are created empty when missing).
Result<std::vector<std::string>> ReadSyslogFamily(const std::string& dir) {
  for (const char* name : {"/torque.log", "/alps.log"}) {
    if (!std::filesystem::exists(dir + name)) WriteFile(dir + name, {});
  }
  LD_ASSIGN_OR_RETURN(const MappedBundle bundle,
                      LoadBundle(StreamInputs::FromBundleDir(dir), nullptr));
  return std::vector<std::string>(bundle.views.syslog.begin(),
                                  bundle.views.syslog.end());
}

TEST(RotatedLogs, ReadsOldestFirst) {
  const std::string dir = ::testing::TempDir() + "/ld_rotated_basic";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/syslog.log";
  WriteFile(base + ".2", {"oldest"});
  WriteFile(base + ".1", {"middle"});
  WriteFile(base, {"newest"});
  auto lines = ReadSyslogFamily(dir);
  ASSERT_TRUE(lines.ok());
  ASSERT_EQ(lines->size(), 3u);
  EXPECT_EQ((*lines)[0], "oldest");
  EXPECT_EQ((*lines)[1], "middle");
  EXPECT_EQ((*lines)[2], "newest");
  std::filesystem::remove_all(dir);
}

TEST(RotatedLogs, LoneFileReadsAsIs) {
  const std::string dir = ::testing::TempDir() + "/ld_rotated_lone";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteFile(dir + "/syslog.log", {"a", "b"});
  auto lines = ReadSyslogFamily(dir);
  ASSERT_TRUE(lines.ok());
  EXPECT_EQ(lines->size(), 2u);
  std::filesystem::remove_all(dir);
}

TEST(RotatedLogs, MissingBaseFails) {
  const std::string dir = ::testing::TempDir() + "/ld_rotated_missing";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  WriteFile(dir + "/syslog.log.1", {"orphaned rotation"});
  EXPECT_FALSE(ReadSyslogFamily(dir).ok());
  std::filesystem::remove_all(dir);
}

TEST(RotatedLogs, MissingMiddleSegmentFailsInsteadOfTruncating) {
  // base, base.1 and base.3 exist but base.2 is gone: reading must fail
  // loudly rather than silently dropping base.3 (the old scan stopped at
  // the first missing index and returned a truncated stream).
  const std::string dir = ::testing::TempDir() + "/ld_rotated_gap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/syslog.log";
  WriteFile(base + ".3", {"oldest"});
  WriteFile(base + ".1", {"middle"});
  WriteFile(base, {"newest"});
  auto lines = ReadSyslogFamily(dir);
  ASSERT_FALSE(lines.ok());
  EXPECT_NE(lines.status().ToString().find("rotation gap"), std::string::npos)
      << lines.status().ToString();
  EXPECT_NE(lines.status().ToString().find(".2"), std::string::npos)
      << lines.status().ToString();
  std::filesystem::remove_all(dir);
}

// A New Year's stream with a lagging node clock: SkewSyslogMidnights
// re-stamps lines whose time of day is under the skew back across the
// midnight, so December stamps reappear *after* January ones.
std::vector<std::string> SkewedNewYearLines() {
  const std::vector<std::string> lines = {
      "Dec 30 12:00:00 c0-0c0s0n0 kernel: Kernel panic - not syncing: a",
      "Dec 31 23:59:30 c0-0c0s0n1 kernel: Kernel panic - not syncing: b",
      "Jan  1 00:00:30 c0-0c0s0n2 kernel: Kernel panic - not syncing: c",
      "Jan  1 00:02:00 c0-0c0s0n3 kernel: Kernel panic - not syncing: d",
      "Jan  1 12:00:00 c0-0c0s0n4 kernel: Kernel panic - not syncing: e",
  };
  const TimePoint epoch = TimePoint::FromCalendar(2013, 12, 30, 0, 0, 0);
  return SkewSyslogMidnights(lines, /*skew_seconds=*/90, epoch);
}

TEST(RotatedLogs, SkewedMidnightSegmentsReadLikeWholeStream) {
  // Rotating daily across a clock-skewed New Year midnight must hand the
  // parser the exact same stream as the unrotated file — and parsing it
  // must put the skewed December stamp back in the old year without
  // advancing into the new year twice.
  const auto skewed = SkewedNewYearLines();
  ASSERT_EQ(skewed.size(), 5u);
  // The 00:00:30 line was re-stamped 90 s back, across the midnight.
  EXPECT_EQ(skewed[2].substr(0, 15), "Dec 31 23:59:00");

  const TimePoint epoch = TimePoint::FromCalendar(2013, 12, 30, 0, 0, 0);
  const auto segments = SplitSyslogByDays(skewed, epoch, /*rotate_days=*/1);
  ASSERT_GE(segments.size(), 2u);

  const std::string dir = ::testing::TempDir() + "/ld_rotated_skew";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/syslog.log";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::size_t suffix = segments.size() - 1 - i;
    WriteFile(suffix == 0 ? base : base + "." + std::to_string(suffix),
              segments[i]);
  }
  auto joined = ReadSyslogFamily(dir);
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(*joined, skewed);

  SyslogParser parser(2013);
  const std::vector<std::string_view> views(joined->begin(), joined->end());
  const auto records = parser.ParseLines(views);
  ASSERT_EQ(records.size(), 5u);
  const int years[] = {2013, 2013, 2013, 2014, 2014};
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(ToCalendar(records[i].time).year, years[i]) << "record " << i;
  }
  std::filesystem::remove_all(dir);
}

TEST(RotatedLogs, GapSpanningSkewedMidnightFailsLoudly) {
  // Lose the middle segment of a rotation that straddles the skewed
  // midnight: the reader must refuse the truncated stream rather than
  // silently dropping the December side.
  const auto skewed = SkewedNewYearLines();
  const TimePoint epoch = TimePoint::FromCalendar(2013, 12, 30, 0, 0, 0);
  const auto segments = SplitSyslogByDays(skewed, epoch, /*rotate_days=*/1);
  ASSERT_GE(segments.size(), 3u);

  const std::string dir = ::testing::TempDir() + "/ld_rotated_skew_gap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string base = dir + "/syslog.log";
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::size_t suffix = segments.size() - 1 - i;
    if (suffix == 1) continue;  // the segment holding the midnight
    WriteFile(suffix == 0 ? base : base + "." + std::to_string(suffix),
              segments[i]);
  }
  auto joined = ReadSyslogFamily(dir);
  ASSERT_FALSE(joined.ok());
  EXPECT_NE(joined.status().ToString().find("rotation gap"), std::string::npos)
      << joined.status().ToString();
  std::filesystem::remove_all(dir);
}

TEST(RotatedLogs, AnalyzeBundleHandlesRotatedBundle) {
  // Write a normal bundle, then split each source into two rotated
  // segments; analysis must give identical results.
  const std::string dir = ::testing::TempDir() + "/ld_rotated_bundle";
  std::filesystem::remove_all(dir);
  ScenarioConfig config = SmallScenario(77);
  config.workload.target_app_runs = 800;
  const Machine machine = MakeMachine(config);
  auto bundle = WriteBundle(machine, config, dir);
  ASSERT_TRUE(bundle.ok());

  LogDiver diver(machine, {});
  auto whole = diver.AnalyzeBundle(dir);
  ASSERT_TRUE(whole.ok());

  // Rotate: first half of each file becomes <name>.log.1.
  for (const char* name : {"torque.log", "alps.log", "syslog.log",
                           "hwerr.log"}) {
    const std::string path = dir + "/" + name;
    auto lines = ReadLines(path);
    ASSERT_TRUE(lines.ok());
    const std::size_t half = lines->size() / 2;
    WriteFile(path + ".1", {lines->begin(), lines->begin() +
                                                static_cast<std::ptrdiff_t>(
                                                    half)});
    WriteFile(path, {lines->begin() + static_cast<std::ptrdiff_t>(half),
                     lines->end()});
  }

  auto rotated = diver.AnalyzeBundle(dir);
  ASSERT_TRUE(rotated.ok());
  EXPECT_EQ(rotated->runs.size(), whole->runs.size());
  EXPECT_EQ(rotated->tuples.size(), whole->tuples.size());
  EXPECT_DOUBLE_EQ(rotated->metrics.system_failure_fraction,
                   whole->metrics.system_failure_fraction);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace ld
