// Report rendering: fixed-width text tables for the metric structures,
// matching the rows/series the paper's tables and figures report.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "logdiver/logdiver.hpp"
#include "logdiver/metrics.hpp"

namespace ld {

/// Renders a fixed-width table; first row is the header.
std::string RenderTable(const std::vector<std::vector<std::string>>& rows);

void PrintOutcomeBreakdown(std::ostream& out, const MetricsReport& report);
void PrintCategoryTable(std::ostream& out, const MetricsReport& report);
void PrintAttributionTable(std::ostream& out, const MetricsReport& report);
void PrintScaleCurve(std::ostream& out, const std::vector<ScalePoint>& points,
                     const std::string& title);
void PrintMonthlySeries(std::ostream& out, const MetricsReport& report);
void PrintDetectionGap(std::ostream& out, const MetricsReport& report);
void PrintQueueWaits(std::ostream& out, const MetricsReport& report);
/// Parse, reconstruct and coalesce counters; the same text on every
/// driver for the same bundle.
void PrintParseSummary(std::ostream& out, const AnalysisSummary& analysis);

/// The headline numbers (anchors A2/A3) in one block.
void PrintHeadline(std::ostream& out, const MetricsReport& report);

}  // namespace ld
