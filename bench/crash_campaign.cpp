// Crash-recovery campaign: kill the streaming analysis at arbitrary
// points and assert that resuming from the latest snapshot produces a
// *bit-identical* MetricsReport to a run that was never interrupted.
//
// Each sweep cell is (kill point × snapshot interval).  The supervisor
// runs the analysis in a forked child with a crash point armed on the
// first attempt; the child dies mid-stream with no unwinding (the
// injected std::_Exit(137) models a power cut / OOM kill), the
// supervisor restarts it, and the resumed attempt compares its report
// and ingest fingerprints against the uninterrupted baseline.  A final
// cell tears the newest snapshot on disk after a crash and checks the
// loader falls back to the previous generation — and still reproduces
// the baseline bit for bit.
//
// Environment knobs:
//   LD_CRASH_APPS  target application runs (default 4000; --quick 1500)
//   LD_CRASH_SEED  campaign seed           (default 11)
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/crashpoint.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

struct Cell {
  double kill_fraction = 0.0;
  std::uint64_t snapshot_interval = 0;
  int attempts = 0;
  int crashes = 0;
  bool passed = false;
};

int Run(bool quick) {
  const std::uint64_t apps = bench::EnvU64("LD_CRASH_APPS", quick ? 1500 : 4000);
  const std::uint64_t seed = bench::EnvU64("LD_CRASH_SEED", 11);

  const std::string base =
      "/tmp/ld_crash_campaign." + std::to_string(getpid());
  std::filesystem::remove_all(base);

  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = apps;
  const Machine machine = MakeMachine(config);
  auto bundle = WriteBundle(machine, config, base + "/bundle");
  if (!bundle.ok()) {
    std::fprintf(stderr, "bundle write failed: %s\n",
                 bundle.status().ToString().c_str());
    return 1;
  }
  const StreamInputs inputs = StreamInputs::FromBundleDir(bundle->dir);

  std::printf("=== crash campaign: kill/resume equivalence ===\n");
  std::printf("campaign: %llu target app runs, seed %llu%s\n\n",
              static_cast<unsigned long long>(apps),
              static_cast<unsigned long long>(seed),
              quick ? " (quick)" : "");

  // --- uninterrupted baseline ----------------------------------------
  ResumeOptions no_snap;
  no_snap.snapshot_dir.clear();
  auto baseline = RunResumableAnalysis(machine, LogDiverConfig{}, inputs,
                                       no_snap);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  const std::uint32_t want_report =
      FingerprintReport(baseline->summary.metrics);
  const std::uint32_t want_ingest = FingerprintIngest(baseline->summary.ingest);
  const std::uint64_t total_lines = baseline->total_lines;
  const std::uint64_t want_runs = baseline->summary.reconstruct_stats.runs;
  std::printf("baseline: %llu lines, %llu runs, report fp %08x, "
              "ingest fp %08x\n\n",
              static_cast<unsigned long long>(total_lines),
              static_cast<unsigned long long>(want_runs), want_report,
              want_ingest);

  // The resumed child validates against the baseline fingerprints it
  // inherited across fork() and reports through its exit code.
  const auto run_cell = [&](const std::string& dir,
                            std::uint64_t snapshot_interval,
                            std::uint64_t kill_after_lines,
                            int max_restarts) {
    const auto child = [&](int attempt) -> int {
      if (attempt == 0) {
        ArmCrashPoint(kill_after_lines);
      } else {
        DisarmCrashPoint();
      }
      ResumeOptions opts;
      opts.snapshot_dir = dir;
      opts.snapshot_interval = snapshot_interval;
      auto result =
          RunResumableAnalysis(machine, LogDiverConfig{}, inputs, opts);
      if (!result.ok()) {
        std::fprintf(stderr, "  attempt %d errored: %s\n", attempt,
                     result.status().ToString().c_str());
        return 2;
      }
      const std::uint32_t got_report =
          FingerprintReport(result->summary.metrics);
      const std::uint32_t got_ingest =
          FingerprintIngest(result->summary.ingest);
      if (got_report != want_report || got_ingest != want_ingest ||
          result->summary.reconstruct_stats.runs != want_runs) {
        std::fprintf(stderr,
                     "  MISMATCH: report fp %08x (want %08x), ingest fp %08x "
                     "(want %08x), runs %llu (want %llu), resumed gen %llu\n",
                     got_report, want_report, got_ingest, want_ingest,
                     static_cast<unsigned long long>(
                         result->summary.reconstruct_stats.runs),
                     static_cast<unsigned long long>(want_runs),
                     static_cast<unsigned long long>(
                         result->resumed_generation));
        return 1;
      }
      return 0;
    };
    CrashSupervisor::Options sup;
    sup.max_restarts = max_restarts;
    return CrashSupervisor::Run(child, sup);
  };

  // --- kill-point × snapshot-interval sweep --------------------------
  const std::vector<double> kill_fractions =
      quick ? std::vector<double>{0.05, 0.5}
            : std::vector<double>{0.05, 0.25, 0.5, 0.75, 0.95};
  const std::vector<std::uint64_t> intervals =
      quick ? std::vector<std::uint64_t>{total_lines / 12 + 1}
            : std::vector<std::uint64_t>{total_lines / 24 + 1,
                                         total_lines / 6 + 1};

  bool all_passed = true;
  std::vector<Cell> cells;
  int cell_index = 0;
  for (std::uint64_t interval : intervals) {
    for (double fraction : kill_fractions) {
      Cell cell;
      cell.kill_fraction = fraction;
      cell.snapshot_interval = interval;
      const auto kill_after = static_cast<std::uint64_t>(
          fraction * static_cast<double>(total_lines));
      const std::string dir = base + "/cell_" + std::to_string(cell_index++);
      const CrashSupervisor::Outcome outcome =
          run_cell(dir, interval, kill_after > 0 ? kill_after : 1, 3);
      cell.attempts = outcome.attempts;
      cell.crashes = outcome.crashes;
      cell.passed = outcome.exit_code == 0 && !outcome.exhausted &&
                    outcome.crashes == 1;
      all_passed = all_passed && cell.passed;
      cells.push_back(cell);
      std::printf("kill@%4.0f%%  interval %7llu  attempts %d  crashes %d  %s\n",
                  fraction * 100.0,
                  static_cast<unsigned long long>(interval), cell.attempts,
                  cell.crashes, cell.passed ? "ok (bit-identical)" : "FAIL");
    }
  }

  // --- torn-snapshot cell --------------------------------------------
  // Crash once (supervisor gives up immediately), then tear the newest
  // snapshot on disk.  The in-process resume must fall back to the
  // previous generation and still reproduce the baseline exactly.
  {
    const std::string dir = base + "/torn";
    const std::uint64_t interval = total_lines / 12 + 1;
    const auto kill_after =
        static_cast<std::uint64_t>(0.6 * static_cast<double>(total_lines));
    const CrashSupervisor::Outcome outcome =
        run_cell(dir, interval, kill_after, /*max_restarts=*/0);
    bool torn_ok = outcome.exhausted && outcome.crashes == 1;
    if (!torn_ok) {
      std::fprintf(stderr, "torn cell: expected a single unretried crash\n");
    }

    SnapshotStore store(dir);
    const std::vector<std::uint64_t> gens = store.Generations();
    if (torn_ok && gens.size() < 2) {
      std::fprintf(stderr,
                   "torn cell: need >=2 generations before tearing, have "
                   "%zu\n",
                   gens.size());
      torn_ok = false;
    }
    if (torn_ok) {
      const std::string newest = store.PathFor(gens.back());
      struct stat st{};
      if (stat(newest.c_str(), &st) != 0 ||
          truncate(newest.c_str(), st.st_size / 2) != 0) {
        std::fprintf(stderr, "torn cell: cannot tear %s\n", newest.c_str());
        torn_ok = false;
      }
    }
    if (torn_ok) {
      ResumeOptions opts;
      opts.snapshot_dir = dir;
      opts.snapshot_interval = interval;
      auto resumed =
          RunResumableAnalysis(machine, LogDiverConfig{}, inputs, opts);
      if (!resumed.ok()) {
        std::fprintf(stderr, "torn cell: resume errored: %s\n",
                     resumed.status().ToString().c_str());
        torn_ok = false;
      } else {
        const bool fell_back =
            resumed->snapshots_rejected >= 1 &&
            resumed->resumed_generation == gens[gens.size() - 2];
        const bool identical =
            FingerprintReport(resumed->summary.metrics) == want_report &&
            FingerprintIngest(resumed->summary.ingest) == want_ingest;
        if (!fell_back) {
          std::fprintf(stderr,
                       "torn cell: did not fall back (gen %llu, rejected "
                       "%llu)\n",
                       static_cast<unsigned long long>(
                           resumed->resumed_generation),
                       static_cast<unsigned long long>(
                           resumed->snapshots_rejected));
        }
        if (!identical) {
          std::fprintf(stderr, "torn cell: resumed report not identical\n");
        }
        torn_ok = fell_back && identical;
      }
    }
    all_passed = all_passed && torn_ok;
    std::printf("torn newest snapshot, fallback one generation:  %s\n",
                torn_ok ? "ok (bit-identical)" : "FAIL");
  }

  std::filesystem::remove_all(base);
  std::printf("\n%s\n", all_passed
                            ? "PASS: every interrupted run reproduced the "
                              "baseline bit for bit"
                            : "FAIL: see cells above");
  return all_passed ? 0 : 1;
}

}  // namespace
}  // namespace ld

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  return ld::Run(quick);
}
