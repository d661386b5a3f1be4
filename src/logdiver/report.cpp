#include "logdiver/report.hpp"

#include <algorithm>
#include <ostream>

#include "common/strings.hpp"

namespace ld {

std::string RenderTable(const std::vector<std::vector<std::string>>& rows) {
  if (rows.empty()) return "";
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }
  std::string out;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t i = 0; i < rows[r].size(); ++i) {
      if (i) out += "  ";
      out += rows[r][i];
      out.append(widths[i] - rows[r][i].size(), ' ');
    }
    out += '\n';
    if (r == 0) {
      for (std::size_t i = 0; i < widths.size(); ++i) {
        if (i) out += "  ";
        out.append(widths[i], '-');
      }
      out += '\n';
    }
  }
  return out;
}

void PrintHeadline(std::ostream& out, const MetricsReport& report) {
  out << "runs analyzed:              " << WithThousands(report.total_runs)
      << "\n";
  out << "production node-hours:      "
      << FormatDouble(report.total_node_hours, 0) << "\n";
  out << "system-failure fraction:    "
      << FormatDouble(report.system_failure_fraction * 100.0, 3)
      << "%   (paper: 1.53%)\n";
  out << "lost node-hours fraction:   "
      << FormatDouble(report.lost_node_hours_fraction * 100.0, 2)
      << "%   (paper: ~9%)\n";
  out << "overall MTTI:               "
      << FormatDouble(report.overall_mtti_hours, 1) << " h\n";
  out << "jobs hit by system failure: "
      << WithThousands(report.job_impact.jobs_with_system_failure) << " of "
      << WithThousands(report.job_impact.jobs) << " ("
      << FormatDouble(report.job_impact.fraction * 100.0, 3) << "%)\n";
}

void PrintOutcomeBreakdown(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"outcome", "runs", "runs %", "node-hours", "node-hours %"});
  for (const OutcomeRow& row : report.outcomes) {
    rows.push_back({AppOutcomeName(row.outcome), WithThousands(row.runs),
                    FormatDouble(row.runs_share * 100.0, 3),
                    FormatDouble(row.node_hours, 0),
                    FormatDouble(row.node_hours_share * 100.0, 2)});
  }
  out << RenderTable(rows);
}

void PrintCategoryTable(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back(
      {"category", "raw events", "tuples", "fatal tuples", "fatal MTBE (h)"});
  for (const CategoryRow& row : report.categories) {
    rows.push_back({ErrorCategoryName(row.category),
                    WithThousands(row.raw_events), WithThousands(row.tuples),
                    WithThousands(row.fatal_tuples),
                    FormatDouble(row.fatal_mtbe_hours, 1)});
  }
  out << RenderTable(rows);
  out << "system-service incidents: "
      << WithThousands(report.availability.incidents) << ", downtime "
      << FormatDouble(report.availability.downtime_hours, 1)
      << " h, availability "
      << FormatDouble(report.availability.availability * 100.0, 3) << "%\n";
}

void PrintAttributionTable(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"root cause", "XE failures", "XK failures", "total"});
  for (const AttributionRow& row : report.attribution) {
    rows.push_back({ErrorCategoryName(row.cause),
                    WithThousands(row.xe_failures),
                    WithThousands(row.xk_failures),
                    WithThousands(row.xe_failures + row.xk_failures)});
  }
  out << RenderTable(rows);
}

void PrintScaleCurve(std::ostream& out, const std::vector<ScalePoint>& points,
                     const std::string& title) {
  out << title << "\n";
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"nodes", "runs", "system failures", "P(fail)", "95% CI"});
  for (const ScalePoint& p : points) {
    const std::string band = p.lo == p.hi
                                 ? std::to_string(p.lo)
                                 : std::to_string(p.lo) + "-" +
                                       std::to_string(p.hi);
    rows.push_back({band, WithThousands(p.runs),
                    WithThousands(p.system_failures),
                    FormatDouble(p.failure_probability.point, 4),
                    std::string("[")
                        .append(FormatDouble(p.failure_probability.lo, 4))
                        .append(", ")
                        .append(FormatDouble(p.failure_probability.hi, 4))
                        .append("]")});
  }
  out << RenderTable(rows);
}

void PrintMonthlySeries(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"month", "runs", "system failures", "node-hours",
                  "lost node-hours", "lost %", "MTTI (h)"});
  for (const MonthlyPoint& p : report.monthly) {
    char label[16];
    std::snprintf(label, sizeof(label), "%04d-%02d", p.year, p.month);
    const double lost_share =
        p.node_hours > 0.0 ? p.lost_node_hours / p.node_hours * 100.0 : 0.0;
    rows.push_back({label, WithThousands(p.runs),
                    WithThousands(p.system_failures),
                    FormatDouble(p.node_hours, 0),
                    FormatDouble(p.lost_node_hours, 0),
                    FormatDouble(lost_share, 2),
                    FormatDouble(p.mtti_hours, 1)});
  }
  out << RenderTable(rows);
}

void PrintDetectionGap(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"partition", "system failures", "attributed",
                  "unattributed", "unattributed %"});
  for (const DetectionGapRow& row : report.detection_gap) {
    rows.push_back({NodeTypeName(row.type),
                    WithThousands(row.system_failures),
                    WithThousands(row.attributed),
                    WithThousands(row.unattributed),
                    FormatDouble(row.unattributed_share * 100.0, 1)});
  }
  out << RenderTable(rows);
}

void PrintQueueWaits(std::ostream& out, const MetricsReport& report) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"job size (nodes)", "jobs", "mean wait (h)", "p95 wait (h)"});
  for (const QueueWaitRow& row : report.queue_waits) {
    const std::string band = row.hi >= (1u << 30)
                                 ? std::to_string(row.lo) + "+"
                                 : row.lo == row.hi
                                       ? std::to_string(row.lo)
                                       : std::to_string(row.lo) + "-" +
                                             std::to_string(row.hi);
    rows.push_back({band, WithThousands(row.jobs),
                    FormatDouble(row.mean_wait_hours, 2),
                    FormatDouble(row.p95_wait_hours, 2)});
  }
  out << RenderTable(rows);
}

void PrintParseSummary(std::ostream& out, const AnalysisSummary& analysis) {
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"source", "lines", "records", "skipped", "malformed"});
  const std::pair<const char*, const ParseStats*> sources[] = {
      {"torque", &analysis.torque_stats},
      {"alps", &analysis.alps_stats},
      {"syslog", &analysis.syslog_stats},
      {"hwerr", &analysis.hwerr_stats},
  };
  for (const auto& [name, stats] : sources) {
    rows.push_back({name, WithThousands(stats->lines),
                    WithThousands(stats->records),
                    WithThousands(stats->skipped),
                    WithThousands(stats->malformed)});
  }
  out << RenderTable(rows);
  out << "runs reconstructed: "
      << WithThousands(analysis.reconstruct_stats.runs)
      << "  (missing termination: "
      << WithThousands(analysis.reconstruct_stats.missing_termination)
      << ", orphan terminations: "
      << WithThousands(analysis.reconstruct_stats.orphan_terminations)
      << ", missing job: "
      << WithThousands(analysis.reconstruct_stats.missing_job) << ")\n";
  out << "error tuples: " << WithThousands(analysis.coalesce_stats.tuples)
      << " from " << WithThousands(analysis.coalesce_stats.input_events)
      << " events (unresolved locations: "
      << WithThousands(analysis.coalesce_stats.unresolved_locations) << ")\n";
}

}  // namespace ld
