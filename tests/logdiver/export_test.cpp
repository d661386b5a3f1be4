#include "logdiver/export.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "common/csv.hpp"

namespace ld {
namespace {

MetricsReport SampleReport() {
  MetricsReport report;
  report.total_runs = 100;
  report.total_node_hours = 5000.0;
  report.system_failure_fraction = 0.0153;
  report.lost_node_hours_fraction = 0.09;
  OutcomeRow outcome;
  outcome.outcome = AppOutcome::kSystemFailure;
  outcome.runs = 2;
  outcome.runs_share = 0.02;
  report.outcomes.push_back(outcome);
  ScalePoint p;
  p.lo = 16385;
  p.hi = 22640;
  p.runs = 300;
  p.system_failures = 49;
  p.failure_probability = WilsonInterval(49, 300);
  report.xe_scale.push_back(p);
  MonthlyPoint m;
  m.year = 2013;
  m.month = 4;
  m.runs = 50;
  report.monthly.push_back(m);
  QueueWaitRow w;
  w.lo = 1;
  w.hi = 1;
  w.jobs = 10;
  w.mean_wait_hours = 0.5;
  report.queue_waits.push_back(w);
  report.ingest.quarantined = 3;
  report.ingest.duplicate_placements = 2;
  return report;
}

TEST(ExportCsv, WritesAllSeries) {
  const std::string dir = ::testing::TempDir() + "/ld_export_test";
  std::filesystem::remove_all(dir);
  auto files = ExportMetricsCsv(SampleReport(), dir);
  ASSERT_TRUE(files.ok());
  EXPECT_EQ(*files, 10);
  for (const char* name :
       {"headline.csv", "outcomes.csv", "categories.csv", "attribution.csv",
        "xe_scale.csv", "xk_scale.csv", "monthly.csv", "detection_gap.csv",
        "queue_waits.csv", "ingest.csv"}) {
    EXPECT_TRUE(std::filesystem::exists(dir + "/" + name)) << name;
  }
  std::filesystem::remove_all(dir);
}

TEST(ExportCsv, FilesParseBackWithExpectedValues) {
  const std::string dir = ::testing::TempDir() + "/ld_export_test2";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(ExportMetricsCsv(SampleReport(), dir).ok());

  auto headline = CsvReader::ReadFile(dir + "/headline.csv", true);
  ASSERT_TRUE(headline.ok());
  bool found = false;
  for (const auto& row : headline->rows) {
    if (row[0] == "system_failure_fraction") {
      EXPECT_EQ(row[1].substr(0, 6), "0.0153");
      found = true;
    }
  }
  EXPECT_TRUE(found);

  auto scale = CsvReader::ReadFile(dir + "/xe_scale.csv", true);
  ASSERT_TRUE(scale.ok());
  ASSERT_EQ(scale->rows.size(), 1u);
  EXPECT_EQ(scale->rows[0][0], "16385");
  EXPECT_EQ(scale->rows[0][3], "49");

  auto waits = CsvReader::ReadFile(dir + "/queue_waits.csv", true);
  ASSERT_TRUE(waits.ok());
  ASSERT_EQ(waits->rows.size(), 1u);
  EXPECT_EQ(waits->rows[0][2], "10");

  auto ingest = CsvReader::ReadFile(dir + "/ingest.csv", true);
  ASSERT_TRUE(ingest.ok());
  bool saw_quarantined = false;
  for (const auto& row : ingest->rows) {
    if (row[0] == "quarantined") {
      EXPECT_EQ(row[1], "3");
      saw_quarantined = true;
    }
    if (row[0] == "duplicate_placements") {
      EXPECT_EQ(row[1], "2");
    }
  }
  EXPECT_TRUE(saw_quarantined);
  std::filesystem::remove_all(dir);
}

TEST(ExportCsv, FailsOnUnwritableDir) {
  EXPECT_FALSE(ExportMetricsCsv(SampleReport(), "/proc/definitely/not").ok());
}

}  // namespace
}  // namespace ld
