// Scenario campaign: runs every cell of the fault-scenario catalog and
// asserts each cell's ground-truth expectations (ctest label `scenario`).
//
// Each catalog entry (src/simlog/catalog.cpp, documented page-per-entry
// in docs/SCENARIOS.md) composes a workload, a fault schedule and bundle
// transforms, runs the full generate → inject → emit → analyze loop, and
// measures the analyzer's attribution bias against the injector's
// ground-truth ledger.  The spec's validate hook turns those
// measurements into hard expectations; any violation fails the binary
// (exit 1), so the catalog doubles as a regression suite for the
// attribution pipeline.
//
// Every cell writes a provenance manifest `manifest_scenario_<name>.json`
// (to LD_MANIFEST_DIR, default cwd) carrying the seed, the ledger
// fingerprint, the headline measurements and the validation verdict —
// the EXPERIMENTS.md provenance column points at these files.
//
// Environment knobs:
//   LD_SCENARIO_APPS     target application runs per cell (default 4000)
//   LD_SCENARIO_SEED     campaign seed                    (default 42)
//   LD_SCENARIO_THREADS  LogDiver threads, 0 = auto       (default 0)
//   LD_SCENARIO_ONLY     comma-separated cell names to run (default all)
//
// `--quick` prints summaries only; the full run adds the per-cell ledger
// and bias tables.  Both modes run every selected cell's assertions.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/obs/manifest.hpp"
#include "common/strings.hpp"
#include "faults/taxonomy.hpp"
#include "logdiver/report.hpp"
#include "simlog/catalog.hpp"

namespace ld {
namespace {

std::vector<std::string> SplitCsv(const char* value) {
  std::vector<std::string> out;
  if (value == nullptr) return out;
  std::string item;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!item.empty()) out.push_back(item);
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

void PrintOutcome(const ScenarioOutcome& outcome, bool quick) {
  std::cout << "  jobs " << WithThousands(outcome.jobs) << ", apps "
            << WithThousands(outcome.apps) << ", events "
            << WithThousands(outcome.events) << "\n"
            << "  score: accuracy " << FormatDouble(outcome.score.overall_accuracy, 4)
            << ", system P/R " << FormatDouble(outcome.score.system_precision, 4)
            << "/" << FormatDouble(outcome.score.system_recall, 4)
            << ", cause accuracy " << FormatDouble(outcome.score.cause_accuracy, 4)
            << "\n"
            << "  unattributed share XE " << FormatDouble(outcome.xe_unattributed_share, 4)
            << " vs XK " << FormatDouble(outcome.xk_unattributed_share, 4) << "\n";
  if (outcome.peak_trough_ratio > 0.0) {
    std::cout << "  diurnal peak/trough arrivals "
              << FormatDouble(outcome.peak_trough_ratio, 2) << "\n";
  }
  if (outcome.io_heavy_lustre_kill_rate >= 0.0) {
    std::cout << "  lustre kill rate: io-heavy "
              << FormatDouble(outcome.io_heavy_lustre_kill_rate, 4) << " vs other "
              << FormatDouble(outcome.other_lustre_kill_rate, 4) << "\n";
  }
  if (quick) return;
  std::cout << "  ledger:\n";
  for (const std::string& row : outcome.ledger.Render()) {
    std::cout << "    " << row << "\n";
  }
  std::vector<std::vector<std::string>> rows;
  rows.push_back({"cause", "injected kills", "attributed runs", "bias"});
  for (const CauseBias& b : outcome.bias) {
    if (b.injected_kills == 0 && b.attributed_runs == 0) continue;
    rows.push_back({ErrorCategoryName(b.cause), WithThousands(b.injected_kills),
                    WithThousands(b.attributed_runs), FormatDouble(b.bias, 3)});
  }
  std::cout << RenderTable(rows);
}

void WriteManifest(const ScenarioSpec& spec, const ScenarioOutcome& outcome,
                   const ScenarioRunOptions& options, bool passed) {
  obs::ManifestBuilder manifest("scenario_campaign");
  manifest.RecordEnv("LD_SCENARIO_APPS");
  manifest.RecordEnv("LD_SCENARIO_SEED");
  manifest.RecordEnv("LD_SCENARIO_THREADS");
  manifest.RecordEnv("LD_SCENARIO_ONLY");
  manifest.Set("scenario", spec.name);
  manifest.Set("title", spec.title);
  manifest.Set("paper_anchor", spec.paper_anchor);
  manifest.SetUint("seed", options.seed);
  manifest.SetInt("threads", options.threads);
  manifest.Set("app_scale", FormatDouble(options.app_scale, 4));
  manifest.SetInt("rotate_days", spec.rotate_days);
  manifest.SetInt("midnight_skew_seconds", spec.midnight_skew_seconds);
  manifest.SetUint("jobs", outcome.jobs);
  manifest.SetUint("apps", outcome.apps);
  manifest.SetUint("events", outcome.events);
  manifest.SetUint("ledger_fingerprint", outcome.ledger.Fingerprint());
  manifest.SetUint("kills_total", outcome.ledger.kills_total);
  manifest.SetUint("gpu_fatal_injected", outcome.ledger.gpu_fatal_injected);
  manifest.SetUint("gpu_fatal_undetected", outcome.ledger.gpu_fatal_undetected);
  manifest.Set("overall_accuracy", FormatDouble(outcome.score.overall_accuracy, 6));
  manifest.Set("system_precision", FormatDouble(outcome.score.system_precision, 6));
  manifest.Set("system_recall", FormatDouble(outcome.score.system_recall, 6));
  manifest.Set("cause_accuracy", FormatDouble(outcome.score.cause_accuracy, 6));
  manifest.Set("xe_unattributed_share", FormatDouble(outcome.xe_unattributed_share, 6));
  manifest.Set("xk_unattributed_share", FormatDouble(outcome.xk_unattributed_share, 6));
  manifest.Set("rotated_matches_whole", outcome.rotated_matches_whole ? "true" : "false");
  manifest.SetUint("violations", outcome.violations.size());
  manifest.Set("validation", passed ? "pass" : "fail");
  manifest.SetExitCode(passed ? 0 : 1);
  const char* dir = std::getenv("LD_MANIFEST_DIR");
  const std::string path = std::string(dir != nullptr && *dir != '\0' ? dir : ".") +
                           "/manifest_scenario_" + spec.name + ".json";
  const Status written = manifest.Write(path);
  if (written.ok()) {
    std::cout << "  [manifest] " << path << "\n";
  } else {
    std::cerr << "  [manifest] write failed: " << written.ToString() << "\n";
  }
}

}  // namespace
}  // namespace ld

int main(int argc, char** argv) {
  using namespace ld;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  ScenarioRunOptions options;
  options.seed = bench::EnvU64("LD_SCENARIO_SEED", 42);
  options.threads = static_cast<int>(bench::EnvU64("LD_SCENARIO_THREADS", 0));
  options.app_scale =
      static_cast<double>(bench::EnvU64("LD_SCENARIO_APPS", 4000)) / 4000.0;
  const std::vector<std::string> only =
      SplitCsv(std::getenv("LD_SCENARIO_ONLY"));

  std::cout << "scenario campaign: seed " << options.seed << ", threads "
            << options.threads << ", app scale "
            << FormatDouble(options.app_scale, 3)
            << (quick ? " (quick)" : "") << "\n";

  int failures = 0;
  std::size_t ran = 0;
  for (const ScenarioSpec& spec : ScenarioCatalog()) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), spec.name) == only.end()) {
      continue;
    }
    ++ran;
    std::cout << "\n=== " << spec.name << " — " << spec.title << "\n"
              << "  anchor: " << spec.paper_anchor << "\n";
    auto outcome = RunScenario(spec, options);
    if (!outcome.ok()) {
      std::cerr << "  FAIL: scenario errored: " << outcome.status().ToString()
                << "\n";
      ++failures;
      continue;
    }
    PrintOutcome(*outcome, quick);
    const bool passed = outcome->violations.empty();
    for (const std::string& violation : outcome->violations) {
      std::cerr << "  FAIL: " << violation << "\n";
    }
    if (!passed) ++failures;
    std::cout << "  " << (passed ? "PASS" : "FAIL") << "\n";
    WriteManifest(spec, *outcome, options, passed);
  }

  if (ran == 0) {
    std::cerr << "FAIL: LD_SCENARIO_ONLY matched no catalog entry\n";
    return 1;
  }
  std::cout << "\n" << ran << " scenario(s), " << failures << " failure(s)\n";
  return failures == 0 ? 0 : 1;
}
