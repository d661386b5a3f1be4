#include "analysis/scoring.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace ld {
namespace {

AppRun MakeRun(ApId apid) {
  AppRun run;
  run.apid = apid;
  run.nodect = 1;
  run.has_termination = true;
  return run;
}

ClassifiedRun Cls(std::uint32_t idx, AppOutcome outcome,
                  ErrorCategory cause = ErrorCategory::kUnknown) {
  ClassifiedRun cls;
  cls.run_index = idx;
  cls.outcome = outcome;
  cls.cause = cause;
  return cls;
}

TruthRecord Truth(ApId apid, AppOutcome outcome,
                  ErrorCategory cause = ErrorCategory::kUnknown) {
  TruthRecord rec;
  rec.apid = apid;
  rec.outcome = outcome;
  rec.cause = cause;
  return rec;
}

TEST(Scoring, PerfectClassification) {
  const std::vector<AppRun> runs = {MakeRun(1), MakeRun(2)};
  const std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSuccess),
      Cls(1, AppOutcome::kSystemFailure, ErrorCategory::kLustre)};
  std::unordered_map<ApId, TruthRecord> truth;
  truth.emplace(1, Truth(1, AppOutcome::kSuccess));
  truth.emplace(2, Truth(2, AppOutcome::kSystemFailure, ErrorCategory::kLustre));
  const ScoreReport report = ScoreClassification(runs, classified, truth);
  EXPECT_EQ(report.scored_runs, 2u);
  EXPECT_DOUBLE_EQ(report.overall_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(report.system_precision, 1.0);
  EXPECT_DOUBLE_EQ(report.system_recall, 1.0);
  EXPECT_DOUBLE_EQ(report.system_f1, 1.0);
  EXPECT_DOUBLE_EQ(report.cause_accuracy, 1.0);
  EXPECT_DOUBLE_EQ(report.cause_unattributed, 0.0);
}

TEST(Scoring, FalsePositiveAndNegative) {
  const std::vector<AppRun> runs = {MakeRun(1), MakeRun(2), MakeRun(3),
                                    MakeRun(4)};
  const std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSystemFailure, ErrorCategory::kLustre),  // FP
      Cls(1, AppOutcome::kUserFailure),                            // FN
      Cls(2, AppOutcome::kSystemFailure, ErrorCategory::kMemoryUE),  // TP
      Cls(3, AppOutcome::kSuccess),                                 // TN
  };
  std::unordered_map<ApId, TruthRecord> truth;
  truth.emplace(1, Truth(1, AppOutcome::kUserFailure));
  truth.emplace(2, Truth(2, AppOutcome::kSystemFailure, ErrorCategory::kGpuDbe));
  truth.emplace(3, Truth(3, AppOutcome::kSystemFailure, ErrorCategory::kMemoryUE));
  truth.emplace(4, Truth(4, AppOutcome::kSuccess));
  const ScoreReport report = ScoreClassification(runs, classified, truth);
  EXPECT_DOUBLE_EQ(report.system_precision, 0.5);
  EXPECT_DOUBLE_EQ(report.system_recall, 0.5);
  EXPECT_DOUBLE_EQ(report.overall_accuracy, 0.5);
  // Confusion matrix entries.
  const auto ti = static_cast<std::size_t>(AppOutcome::kSystemFailure);
  const auto pi = static_cast<std::size_t>(AppOutcome::kUserFailure);
  EXPECT_EQ(report.confusion[ti][pi], 1u);
}

TEST(Scoring, CauseUnattributedCounted) {
  const std::vector<AppRun> runs = {MakeRun(1), MakeRun(2)};
  const std::vector<ClassifiedRun> classified = {
      Cls(0, AppOutcome::kSystemFailure, ErrorCategory::kUnknown),
      Cls(1, AppOutcome::kSystemFailure, ErrorCategory::kLustre)};
  std::unordered_map<ApId, TruthRecord> truth;
  truth.emplace(1, Truth(1, AppOutcome::kSystemFailure, ErrorCategory::kGpuDbe));
  truth.emplace(2, Truth(2, AppOutcome::kSystemFailure, ErrorCategory::kLustre));
  const ScoreReport report = ScoreClassification(runs, classified, truth);
  EXPECT_DOUBLE_EQ(report.cause_accuracy, 0.5);
  EXPECT_DOUBLE_EQ(report.cause_unattributed, 0.5);
}

TEST(Scoring, MissingTruthCounted) {
  const std::vector<AppRun> runs = {MakeRun(1)};
  const std::vector<ClassifiedRun> classified = {Cls(0, AppOutcome::kSuccess)};
  const ScoreReport report = ScoreClassification(runs, classified, {});
  EXPECT_EQ(report.scored_runs, 0u);
  EXPECT_EQ(report.missing_truth, 1u);
}

TEST(Scoring, LoadGroundTruthRoundTrip) {
  const std::string path = ::testing::TempDir() + "/truth_test.csv";
  {
    std::ofstream f(path);
    f << "apid,outcome,cause,event_id,cause_detected\n";
    f << "100,success,,0,0\n";
    f << "101,system_failure,gpu_dbe,42,1\n";
    f << "102,user_failure,,0,0\n";
  }
  auto truth = LoadGroundTruth(path);
  ASSERT_TRUE(truth.ok());
  ASSERT_EQ(truth->size(), 3u);
  EXPECT_EQ(truth->at(100).outcome, AppOutcome::kSuccess);
  EXPECT_EQ(truth->at(101).outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(truth->at(101).cause, ErrorCategory::kGpuDbe);
  EXPECT_EQ(truth->at(101).event_id, 42u);
  EXPECT_TRUE(truth->at(101).cause_detected);
  std::remove(path.c_str());
}

TEST(Scoring, LoadGroundTruthRejectsBadRows) {
  const std::string path = ::testing::TempDir() + "/truth_bad.csv";
  {
    std::ofstream f(path);
    f << "apid,outcome,cause,event_id,cause_detected\n";
    f << "100,not_an_outcome,,0,0\n";
  }
  EXPECT_FALSE(LoadGroundTruth(path).ok());
  std::remove(path.c_str());
  EXPECT_FALSE(LoadGroundTruth("/nonexistent.csv").ok());
}

TEST(Scoring, LoadGroundTruthReadsCrlfAndQuotedRows) {
  const std::string path = ::testing::TempDir() + "/truth_crlf.csv";
  {
    std::ofstream f(path, std::ios::binary);
    f << "apid,outcome,cause,event_id,cause_detected\r\n";
    f << "100,success,,0,0\r\n";
    f << "\r\n";  // blank lines are skipped
    f << "101,\"system_failure\",\"gpu_dbe\",42,1\r\n";
    f << "102,user_failure,,0,0";  // no final newline
  }
  auto truth = LoadGroundTruth(path);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  ASSERT_EQ(truth->size(), 3u);
  EXPECT_EQ(truth->at(100).outcome, AppOutcome::kSuccess);
  EXPECT_FALSE(truth->at(100).cause_detected);
  EXPECT_EQ(truth->at(101).outcome, AppOutcome::kSystemFailure);
  EXPECT_EQ(truth->at(101).cause, ErrorCategory::kGpuDbe);
  EXPECT_TRUE(truth->at(101).cause_detected);
  EXPECT_EQ(truth->at(102).outcome, AppOutcome::kUserFailure);
  std::remove(path.c_str());
}

TEST(Scoring, LoadGroundTruthHeaderOnlyIsEmpty) {
  const std::string path = ::testing::TempDir() + "/truth_header.csv";
  {
    std::ofstream f(path);
    f << "apid,outcome,cause,event_id,cause_detected\n";
  }
  auto truth = LoadGroundTruth(path);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();
  EXPECT_TRUE(truth->empty());
  std::remove(path.c_str());
}

TEST(Scoring, LoadGroundTruthErrorMessages) {
  const std::string path = ::testing::TempDir() + "/truth_short.csv";
  const auto load = [&](const std::string& row) {
    {
      std::ofstream f(path);
      f << "apid,outcome,cause,event_id,cause_detected\n" << row << "\n";
    }
    return LoadGroundTruth(path).status().ToString();
  };
  EXPECT_EQ(load("100,success,,0"),
            "PARSE_ERROR: ground truth row with 4 fields");
  EXPECT_EQ(load("x,success,,0,0"),
            "PARSE_ERROR: bad unsigned integer: 'x'");
  EXPECT_EQ(load("100,nope,,0,0"), "PARSE_ERROR: unknown outcome 'nope'");
  EXPECT_EQ(load("100,succ\"ess,,0,0"),
            "PARSE_ERROR: quote in unquoted field at column 8");
  EXPECT_EQ(load("100,\"success,,0,0"),
            "PARSE_ERROR: unterminated quoted field");
  // A quoting error anywhere in the file wins over an earlier bad row.
  EXPECT_EQ(load("100,success,,0\n101,\"success,,0,0"),
            "PARSE_ERROR: unterminated quoted field");
  EXPECT_EQ(load("100,nope,,0,0\n101,succ\"ess,,0,0"),
            "PARSE_ERROR: quote in unquoted field at column 8");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ld
