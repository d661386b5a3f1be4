// The fault-scenario catalog: named, seeded, ground-truth-validated
// campaign recipes.
//
// Each ScenarioSpec composes a workload (app mix, diurnal load), a
// fault schedule (steady-state hazards plus episode channels from
// faults/storms.hpp), and emitter/bundle transforms (multi-day log
// rotation, clock-skewed midnights) into one named, reproducible cell.
// RunScenario executes the cell end to end — generate, inject, emit,
// analyze — and measures the analyzer's *attribution bias* against the
// injector's ground-truth ledger; every spec carries a validate hook
// whose expectations are asserted by bench/scenario_campaign.cpp (ctest
// label `scenario`).  Every cell also writes its bundle and checks that
// all analysis drivers export the same CSV bytes (DriverParityViolations).
// docs/SCENARIOS.md is the human-facing page per entry; the two are kept
// in lockstep by the campaign's manifest.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/scoring.hpp"
#include "common/status.hpp"
#include "faults/ledger.hpp"
#include "simlog/scenario.hpp"

namespace ld {

/// Per-category attribution bias: how many kills the injector charged
/// to a cause vs how many runs the analyzer attributed to it.
struct CauseBias {
  ErrorCategory cause = ErrorCategory::kUnknown;
  std::uint64_t injected_kills = 0;   // ground truth
  std::uint64_t attributed_runs = 0;  // analyzer verdicts
  /// (attributed - injected) / max(1, injected); 0 = unbiased.
  double bias = 0.0;
};

/// Everything RunScenario measures for one cell.
struct ScenarioOutcome {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t jobs = 0;
  std::uint64_t apps = 0;
  std::uint64_t events = 0;

  FaultLedger ledger;   // injected ground truth
  ScoreReport score;    // analyzer vs truth
  std::vector<CauseBias> bias;

  /// Fig-6-style unattributed shares per partition (analyzer side).
  double xe_unattributed_share = 0.0;
  double xk_unattributed_share = 0.0;

  /// Diurnal load: busiest / quietest hourly job-arrival bin.
  double peak_trough_ratio = 0.0;
  /// Lustre kill rate of I/O-heavy jobs (lustre_sensitivity > 1.5) vs
  /// the rest; -1 when the group is empty.
  double io_heavy_lustre_kill_rate = -1.0;
  double other_lustre_kill_rate = -1.0;

  /// Rotation scenarios: the rotated, clock-skewed bundle analyzed
  /// identically to the same stream as one whole file.
  bool rotated_matches_whole = true;

  /// Violated expectations, driver-parity mismatches included (empty =
  /// the cell validates).
  std::vector<std::string> violations;

  const CauseBias* BiasFor(ErrorCategory cause) const;
};

struct ScenarioSpec {
  const char* name;          // registry key and manifest slug
  const char* title;         // one-line intent
  const char* paper_anchor;  // section/figure the cell reproduces
  /// Applied on top of SmallScenario(seed).
  void (*configure)(ScenarioConfig* config);
  /// Ground-truth expectations; returns violation strings (empty = pass).
  std::vector<std::string> (*validate)(const ScenarioOutcome& outcome);
  /// Bundle transform: split syslog into one segment per N days
  /// (syslog.log.N oldest ... syslog.log), 0 = single file.
  int rotate_days = 0;
  /// Bundle transform: re-stamp syslog lines falling within this many
  /// seconds after any midnight back by the same amount (a node whose
  /// clock lags the fleet), 0 = off.
  int midnight_skew_seconds = 0;
};

/// The registered scenarios, in catalog order (stable for docs/CI).
const std::vector<ScenarioSpec>& ScenarioCatalog();
const ScenarioSpec* FindScenario(std::string_view name);

struct ScenarioRunOptions {
  std::uint64_t seed = 42;
  /// LogDiver thread count (0 = auto); the outcome is bit-identical at
  /// any value — the determinism tests pin that.
  int threads = 0;
  /// Scratch directory for the bundles a cell writes; empty = a
  /// name-and-seed-keyed directory under the system temp dir.
  std::string work_dir;
  /// Multiplies SmallScenario's target_app_runs (campaign size knob).
  double app_scale = 1.0;
};

/// Runs one catalog cell end to end and measures it against ground
/// truth.  Deterministic in (spec, seed, app_scale).
Result<ScenarioOutcome> RunScenario(const ScenarioSpec& spec,
                                    const ScenarioRunOptions& options);

/// Analyzes the bundle in `bundle_dir` with every driver — batch
/// AnalyzeBundle, RunResumableAnalysis snapshotting as it goes (then
/// once more resuming from its newest snapshot), and the fleet at 1 and
/// 4 shards — and returns one violation per exported CSV file, and per
/// PrintParseSummary text (parse, reconstruct and coalesce counters),
/// that differs from batch's (empty = every driver agrees byte for
/// byte).
/// `work_dir` holds the exports, snapshots and partials and is removed.
Result<std::vector<std::string>> DriverParityViolations(
    const Machine& machine, const std::string& bundle_dir,
    const std::string& work_dir, int threads = 0);

/// Writes the scenario's bundle with its rotation/skew transforms
/// applied (for `logdiver_cli generate --scenario <name>` and tests).
Result<LogBundle> WriteScenarioBundle(const Machine& machine,
                                      const ScenarioConfig& config,
                                      const ScenarioSpec& spec,
                                      const std::string& dir);

// --- bundle transforms (exposed for the regression tests) ------------

/// Re-stamps syslog lines whose time of day is < `skew_seconds` back by
/// `skew_seconds`, keeping file position — around each midnight the
/// stream then carries yesterday's stamps *after* today's, which is
/// what a lagging node clock does to a merged syslog.  `epoch` anchors
/// the year reconstruction (campaigns under a year).
std::vector<std::string> SkewSyslogMidnights(
    const std::vector<std::string>& lines, int skew_seconds, TimePoint epoch);

/// Splits syslog lines into rotation segments of `rotate_days` days
/// (oldest first).  A cut happens at the first line stamped at or past
/// each boundary; skewed lines right after a cut stay in the newer
/// segment, like a rotating daemon would leave them.
std::vector<std::vector<std::string>> SplitSyslogByDays(
    const std::vector<std::string>& lines, TimePoint epoch, int rotate_days);

}  // namespace ld
