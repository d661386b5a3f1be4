#include "analysis/scoring.hpp"

#include <string_view>

#include "common/csv.hpp"
#include "common/strings.hpp"

namespace ld {
namespace {

Result<AppOutcome> ParseOutcome(std::string_view name) {
  for (int i = 0; i < kOutcomeCount; ++i) {
    const auto o = static_cast<AppOutcome>(i);
    if (name == AppOutcomeName(o)) return o;
  }
  return ParseError("unknown outcome '" + std::string(name) + "'");
}

Status AddTruthRow(const std::vector<std::string_view>& row,
                   std::unordered_map<ApId, TruthRecord>& truth) {
  if (row.size() < 5) {
    return ParseError("ground truth row with " + std::to_string(row.size()) +
                      " fields");
  }
  TruthRecord rec;
  LD_ASSIGN_OR_RETURN(rec.apid, ParseUint(row[0]));
  LD_ASSIGN_OR_RETURN(rec.outcome, ParseOutcome(row[1]));
  if (!row[2].empty()) {
    LD_ASSIGN_OR_RETURN(rec.cause, ParseErrorCategory(row[2]));
  }
  LD_ASSIGN_OR_RETURN(rec.event_id, ParseUint(row[3]));
  rec.cause_detected = row[4] == "1";
  truth.emplace(rec.apid, rec);
  return Status::Ok();
}

}  // namespace

ScoreReport ScoreClassification(
    const std::vector<AppRun>& runs,
    const std::vector<ClassifiedRun>& classified,
    const std::unordered_map<ApId, TruthRecord>& truth) {
  ScoreReport report;

  std::uint64_t tp = 0, fp = 0, fn = 0;
  std::uint64_t correct = 0;
  std::uint64_t cause_hits = 0, cause_unknown = 0, cause_total = 0;

  for (const ClassifiedRun& cls : classified) {
    const AppRun& run = runs[cls.run_index];
    const auto it = truth.find(run.apid);
    if (it == truth.end()) {
      ++report.missing_truth;
      continue;
    }
    const TruthRecord& t = it->second;
    ++report.scored_runs;
    const auto ti = static_cast<std::size_t>(t.outcome);
    const auto pi = static_cast<std::size_t>(cls.outcome);
    ++report.confusion[ti][pi];
    if (t.outcome == cls.outcome) ++correct;

    const bool truth_system = t.outcome == AppOutcome::kSystemFailure;
    const bool pred_system = cls.outcome == AppOutcome::kSystemFailure;
    if (truth_system && pred_system) {
      ++tp;
      ++cause_total;
      if (cls.cause == t.cause) {
        ++cause_hits;
      } else if (cls.cause == ErrorCategory::kUnknown) {
        ++cause_unknown;
      }
    } else if (pred_system) {
      ++fp;
    } else if (truth_system) {
      ++fn;
    }
  }

  report.system_precision =
      tp + fp > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
  report.system_recall =
      tp + fn > 0 ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
  const double pr = report.system_precision + report.system_recall;
  report.system_f1 =
      pr > 0.0 ? 2.0 * report.system_precision * report.system_recall / pr : 0.0;
  report.cause_accuracy = cause_total > 0 ? static_cast<double>(cause_hits) /
                                                static_cast<double>(cause_total)
                                          : 0.0;
  report.cause_unattributed =
      cause_total > 0
          ? static_cast<double>(cause_unknown) / static_cast<double>(cause_total)
          : 0.0;
  report.overall_accuracy =
      report.scored_runs > 0 ? static_cast<double>(correct) /
                                   static_cast<double>(report.scored_runs)
                             : 0.0;
  return report;
}

Result<std::unordered_map<ApId, TruthRecord>> LoadGroundTruth(
    const std::string& path) {
  // The CLI scores every pass, so rows are visited as views into the
  // file bytes instead of being copied into a CsvReader::Table.
  std::unordered_map<ApId, TruthRecord> truth;
  LD_TRY(CsvReader::ForEachRow(
      path, /*has_header=*/true,
      [&](bool header, const std::vector<std::string_view>& row) {
        return header ? Status::Ok() : AddTruthRow(row, truth);
      }));
  return truth;
}

}  // namespace ld
