// logdiver_cli: the tool as a command-line utility.
//
//   logdiver_cli generate <dir> [--seed N] [--apps N] [--days N] [--small]
//       Simulate a campaign and write a log bundle (torque.log, alps.log,
//       syslog.log, hwerr.log, ground_truth.csv, MANIFEST) to <dir>.
//
//   logdiver_cli analyze <dir> [--small]
//       Run the full LogDiver pipeline over a bundle directory and print
//       every report table.  With ground_truth.csv present, also scores
//       the classification (batch path).  Every driver below prints the
//       same tables and, with --csv, exports the same bytes.
//
//   Both modes accept --manifest-out <file> (write a run manifest: build
//   provenance, input fingerprints, config, env, metric dump — schema in
//   docs/OBSERVABILITY.md) and analyze accepts --trace-out <file> (write
//   a Chrome trace_event JSON loadable in chrome://tracing / Perfetto).
//   Caveat: with --snapshot-dir the analysis runs in supervised forked
//   children, whose metrics and spans die with them — the parent's
//   manifest/trace covers only supervision, not the analysis itself.
//
//   With --snapshot-dir, analyze switches to the crash-tolerant
//   streaming pipeline: the analysis runs in a supervised child that
//   checkpoints every --snapshot-interval lines, and a crashed child is
//   restarted from the newest valid snapshot (--resume also picks up
//   snapshots left by a previous invocation).
//
// --small selects the 1,152-node testbed machine instead of the full
// Blue Waters model (the machine geometry must match the bundle).
//
// --threads N sets the parse thread count (0 = auto: LOGDIVER_THREADS
// env, else hardware concurrency).  Results are bit-identical at any
// thread count.  The batch path parses chunks on the pool; the
// --snapshot-dir child parses Torque/ALPS/hwerr lines a block ahead of
// its one-threaded merge, and --threads 1 parses each line inline.  The
// fleet's workers parse inline whatever the flag says.
//
//   With --fleet-workers N, analyze fans the bundle across N supervised
//   worker processes (ownership-sharded by apid) and merges their
//   partial aggregates; the merged report is bit-identical to the
//   serial analyzer's, and its CSV export to the batch path's.
//   --shard-timeout caps each shard attempt's wall clock (ms) before
//   SIGKILL escalation; --fleet-budget M tolerates up to M dropped
//   shards (report degrades with a coverage annotation instead of
//   failing).
//
// Numeric flag values must be plain decimal integers within the flag's
// range; anything else is a usage error naming the flag.
//
// Exit codes: 0 success, 1 analysis error, 2 usage, 3 a fail-fast
// ingest error budget tripped, 4 the crash-restart budget was
// exhausted, 5 the fleet failure budget was exhausted.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>

#include "analysis/scoring.hpp"
#include "common/obs/manifest.hpp"
#include "common/obs/trace.hpp"
#include "cli_flags.hpp"
#include "logdiver/export.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/report.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "simlog/catalog.hpp"
#include "simlog/scenario.hpp"

namespace {

/// Distinct failure exit codes (documented in the header comment; the
/// crash campaign and CI distinguish them from crashes, which surface
/// as 128+signal).
constexpr int kExitIngestBudget = 3;
constexpr int kExitRestartsExhausted = 4;
constexpr int kExitFleetBudget = 5;

/// Upper bounds of the numeric flags whose natural type would admit
/// values that exhaust memory or overflow downstream arithmetic.
constexpr std::uint64_t kMaxU64 = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t kMaxApps = 1'000'000'000;
constexpr std::uint64_t kMaxDays = 36'500;
constexpr std::uint64_t kMaxThreads = 1024;
constexpr std::uint64_t kMaxFleetWorkers = 1024;
constexpr std::uint64_t kMaxShardTimeoutMs = 30ull * 24 * 3600 * 1000;
constexpr std::uint64_t kMaxCacheMb = kMaxU64 >> 20;  // MB * 2^20 fits

/// Prints the parse summary and every report table, exports the CSV
/// series when asked, and returns the exit code (kExitIngestBudget when
/// a streaming ingest budget tripped).  Batch, streaming and the fleet
/// all report here, so each prints the same text for the same bundle.
int PrintReport(const ld::AnalysisSummary& summary,
                const std::string& csv_dir) {
  const ld::MetricsReport& report = summary.metrics;
  ld::PrintParseSummary(std::cout, summary);
  std::cout << "\n--- headline ---\n";
  ld::PrintHeadline(std::cout, report);
  std::cout << "\n--- outcomes ---\n";
  ld::PrintOutcomeBreakdown(std::cout, report);
  std::cout << "\n--- error categories ---\n";
  ld::PrintCategoryTable(std::cout, report);
  std::cout << "\n--- attribution ---\n";
  ld::PrintAttributionTable(std::cout, report);
  std::cout << "\n--- scale curves ---\n";
  ld::PrintScaleCurve(std::cout, report.xe_scale, "XE");
  ld::PrintScaleCurve(std::cout, report.xk_scale, "XK");
  std::cout << "\n--- monthly ---\n";
  ld::PrintMonthlySeries(std::cout, report);
  std::cout << "\n--- queue waits ---\n";
  ld::PrintQueueWaits(std::cout, report);
  std::cout << "\n--- detection gap ---\n";
  ld::PrintDetectionGap(std::cout, report);
  if (!csv_dir.empty()) {
    auto exported = ld::ExportMetricsCsv(report, csv_dir);
    if (exported.ok()) {
      std::cout << "\nexported " << *exported << " CSV series to " << csv_dir
                << "\n";
    } else {
      std::cerr << "csv export failed: " << exported.status().ToString()
                << "\n";
    }
  }
  if (summary.ingest_status.ok()) return 0;
  std::cerr << "ingest budget tripped: " << summary.ingest_status.ToString()
            << "\n";
  return kExitIngestBudget;
}

int Usage() {
  std::cerr << "usage:\n"
            << "  logdiver_cli generate <dir> [--seed N] [--apps N] "
               "[--days N] [--small]\n"
            << "      [--scenario NAME]   (a docs/SCENARIOS.md catalog "
               "cell, transforms included)\n"
            << "  logdiver_cli analyze <dir> [--small] [--csv <outdir>]\n"
            << "      [--threads N] [--bundle-cache-dir <dir>] "
               "[--bundle-cache-max-mb N]\n"
            << "      [--snapshot-dir <dir>] "
               "[--snapshot-interval N] [--resume]\n"
            << "      [--fleet-workers N] [--shard-timeout MS] "
               "[--fleet-budget M]\n"
            << "  common: [--manifest-out <file>] [--trace-out <file>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return Usage();
  const std::string mode = argv[1];
  const std::string dir = argv[2];

  std::uint64_t seed = 42;
  std::uint64_t apps = 50000;
  bool have_apps = false;
  std::int64_t days = 518;
  bool small = false;
  std::string scenario_name;
  std::string csv_dir;
  std::string bundle_cache_dir;
  std::uint64_t bundle_cache_max_mb = 0;  // 0 = unbounded
  std::string snapshot_dir;
  std::uint64_t snapshot_interval = 20000;
  bool resume = false;
  int threads = 0;  // 0 = auto (LOGDIVER_THREADS env, else hardware)
  std::uint32_t fleet_workers = 0;  // 0 = fleet path off
  std::uint64_t shard_timeout_ms = 120000;
  bool have_fleet_budget = false;
  std::uint32_t fleet_budget = 0;
  std::string manifest_out;
  std::string trace_out;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    auto number = [&](auto& out, std::uint64_t lo, std::uint64_t hi) {
      return ld::ParseUintFlag("logdiver_cli", arg, next(), lo, hi, out);
    };
    if (arg == "--seed") {
      if (!number(seed, 0, kMaxU64)) return Usage();
    } else if (arg == "--apps") {
      if (!number(apps, 1, kMaxApps)) return Usage();
      have_apps = true;
    } else if (arg == "--scenario") {
      const char* v = next();
      if (!v) return Usage();
      scenario_name = v;
    } else if (arg == "--days") {
      if (!number(days, 1, kMaxDays)) return Usage();
    } else if (arg == "--small") {
      small = true;
    } else if (arg == "--csv") {
      const char* v = next();
      if (!v) return Usage();
      csv_dir = v;
    } else if (arg == "--bundle-cache-dir") {
      const char* v = next();
      if (!v) return Usage();
      bundle_cache_dir = v;
    } else if (arg == "--bundle-cache-max-mb") {
      if (!number(bundle_cache_max_mb, 0, kMaxCacheMb)) return Usage();
    } else if (arg == "--snapshot-dir") {
      const char* v = next();
      if (!v) return Usage();
      snapshot_dir = v;
    } else if (arg == "--snapshot-interval") {
      if (!number(snapshot_interval, 0, kMaxU64)) return Usage();
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg == "--threads") {
      if (!number(threads, 0, kMaxThreads)) return Usage();
    } else if (arg == "--fleet-workers") {
      if (!number(fleet_workers, 0, kMaxFleetWorkers)) return Usage();
    } else if (arg == "--shard-timeout") {
      if (!number(shard_timeout_ms, 1, kMaxShardTimeoutMs)) return Usage();
    } else if (arg == "--fleet-budget") {
      if (!number(fleet_budget, 0, kMaxFleetWorkers)) return Usage();
      have_fleet_budget = true;
    } else if (arg == "--manifest-out") {
      const char* v = next();
      if (!v) return Usage();
      manifest_out = v;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (!v) return Usage();
      trace_out = v;
    } else {
      return Usage();
    }
  }

  // Arm tracing before any pipeline work so load/parse spans land in
  // the file; the manifest's wall clock starts here too.
  if (!trace_out.empty()) ld::obs::Tracer::Get().Start();
  ld::obs::ManifestBuilder manifest("logdiver_cli");
  manifest.SetArgv(argc, argv);
  manifest.Set("mode", mode);
  manifest.Set("dir", dir);
  manifest.SetUint("seed", seed);
  manifest.SetUint("apps", apps);
  manifest.SetInt("days", days);
  manifest.Set("small", small ? "true" : "false");
  if (!scenario_name.empty()) manifest.Set("scenario", scenario_name);
  manifest.SetInt("threads", threads);
  if (!bundle_cache_dir.empty()) {
    manifest.Set("bundle_cache_dir", bundle_cache_dir);
    if (bundle_cache_max_mb != 0) {
      manifest.SetUint("bundle_cache_max_mb", bundle_cache_max_mb);
    }
  }
  if (!snapshot_dir.empty()) {
    manifest.Set("snapshot_dir", snapshot_dir);
    manifest.SetUint("snapshot_interval", snapshot_interval);
    manifest.Set("resume", resume ? "true" : "false");
  }
  if (fleet_workers != 0) {
    manifest.SetUint("fleet_workers", fleet_workers);
    manifest.SetUint("shard_timeout_ms", shard_timeout_ms);
    if (have_fleet_budget) manifest.SetUint("fleet_budget", fleet_budget);
  }
  manifest.RecordEnv("LOGDIVER_THREADS");
  manifest.RecordEnv("LD_CRASH_AFTER");
  // Every exit path below funnels through finish() so the trace and
  // manifest are written (with the real exit code) no matter how the
  // run ended.
  const auto finish = [&](int code) -> int {
    if (!trace_out.empty()) {
      ld::obs::Tracer::Get().Stop();
      const ld::Status written = ld::obs::Tracer::Get().WriteJson(trace_out);
      if (!written.ok()) {
        std::cerr << "trace write failed: " << written.ToString() << "\n";
        if (code == 0) code = 1;
      }
    }
    if (!manifest_out.empty()) {
      if (mode == "analyze") {
        manifest.AddInput(dir + "/torque.log");
        manifest.AddInput(dir + "/alps.log");
        manifest.AddInput(dir + "/syslog.log");
        manifest.AddInput(dir + "/hwerr.log");
      }
      manifest.SetExitCode(code);
      const ld::Status written = manifest.Write(manifest_out);
      if (!written.ok()) {
        std::cerr << "manifest write failed: " << written.ToString() << "\n";
        if (code == 0) code = 1;
      }
    }
    return code;
  };

  // A --scenario bundle comes straight from the catalog recipe: the
  // cell's SmallScenario base plus its configure hook and transforms.
  const ld::ScenarioSpec* scenario_spec = nullptr;
  if (!scenario_name.empty()) {
    if (mode != "generate") return Usage();
    scenario_spec = ld::FindScenario(scenario_name);
    if (scenario_spec == nullptr) {
      std::cerr << "unknown scenario '" << scenario_name
                << "'; catalog entries:\n";
      for (const ld::ScenarioSpec& spec : ld::ScenarioCatalog()) {
        std::cerr << "  " << spec.name << " — " << spec.title << "\n";
      }
      return 2;
    }
  }

  ld::ScenarioConfig config = small || scenario_spec != nullptr
                                  ? ld::SmallScenario(seed)
                                  : ld::ScenarioConfig{};
  config.seed = seed;
  if (scenario_spec != nullptr) {
    scenario_spec->configure(&config);
    if (have_apps) config.workload.target_app_runs = apps;
  } else if (!small) {
    config.full_machine = true;
    config.workload.target_app_runs = apps;
    config.workload.campaign = ld::Duration::Days(days);
  } else {
    config.workload.target_app_runs = apps;
  }
  const ld::Machine machine = ld::MakeMachine(config);

  if (mode == "generate") {
    auto bundle = scenario_spec != nullptr
                      ? ld::WriteScenarioBundle(machine, config, *scenario_spec,
                                                dir)
                      : ld::WriteBundle(machine, config, dir);
    if (!bundle.ok()) {
      std::cerr << "generate failed: " << bundle.status().ToString() << "\n";
      return finish(1);
    }
    std::cout << "wrote bundle to " << bundle->dir << "\n";
    return finish(0);
  }

  if (mode == "analyze" && fleet_workers != 0) {
    // Fleet path: shard the bundle across worker processes, merge the
    // partial aggregates, print the merged report.  Partials live in a
    // throwaway directory removed once the report is out.
    ld::fleet::FleetOptions options;
    options.shard_count = fleet_workers;
    options.shard_timeout_ms = shard_timeout_ms;
    if (have_fleet_budget) {
      options.policy = ld::DegradationPolicy::kQuarantineAndContinue;
      options.failure_budget = fleet_budget;
    }
    std::string partial_dir =
        (std::filesystem::temp_directory_path() / "ld-fleet-XXXXXX").string();
    if (::mkdtemp(partial_dir.data()) == nullptr) {
      std::cerr << "cannot create partial dir " << partial_dir << "\n";
      return finish(1);
    }
    options.partial_dir = partial_dir;
    const ld::fleet::ShardSupervisor supervisor(machine, ld::LogDiverConfig{});
    auto fleet = supervisor.Run(ld::StreamInputs::FromBundleDir(dir), options);
    std::error_code ec;
    std::filesystem::remove_all(partial_dir, ec);
    if (!fleet.ok()) {
      std::cerr << "fleet analyze failed: " << fleet.status().ToString()
                << "\n";
      return finish(fleet.status().code() == ld::StatusCode::kOutOfRange
                        ? kExitFleetBudget
                        : 1);
    }
    std::cout << fleet->coverage.Row() << "\n";
    return finish(PrintReport(fleet->summary, csv_dir));
  }

  if (mode == "analyze" && !snapshot_dir.empty()) {
    // Crash-tolerant streaming path: the analysis runs in a supervised
    // child so an abrupt death (OOM kill, injected crash point) is
    // restarted from the newest valid snapshot instead of starting
    // over.  Reports print in the child — the parent only routes exit
    // codes.
    if (!resume) {
      const ld::Status cleared = ld::SnapshotStore(snapshot_dir).Clear();
      if (!cleared.ok()) {
        std::cerr << "cannot clear snapshots: " << cleared.ToString() << "\n";
        return finish(1);
      }
    }
    const auto child = [&](int attempt) -> int {
      ld::ResumeOptions options;
      options.snapshot_dir = snapshot_dir;
      options.snapshot_interval = snapshot_interval;
      ld::LogDiverConfig stream_config;
      stream_config.threads = threads;
      auto result = ld::RunResumableAnalysis(
          machine, stream_config, ld::StreamInputs::FromBundleDir(dir),
          options);
      if (!result.ok()) {
        std::cerr << "analyze failed: " << result.status().ToString() << "\n";
        return 1;
      }
      if (attempt > 0 || result->resumed_generation != 0) {
        std::cout << "resumed from snapshot generation "
                  << result->resumed_generation << " (" << result->lines_skipped
                  << " lines already covered";
        if (result->snapshots_rejected != 0) {
          std::cout << ", " << result->snapshots_rejected
                    << " torn generation(s) rejected";
        }
        std::cout << ")\n";
      }
      std::cout << "streamed " << result->total_lines << " lines, "
                << result->snapshots_written << " snapshot(s) written\n";
      return PrintReport(result->summary, csv_dir);
    };
    const ld::CrashSupervisor::Outcome outcome =
        ld::CrashSupervisor::Run(child);
    if (outcome.exhausted) {
      std::cerr << "giving up: analysis crashed " << outcome.crashes
                << " time(s), restart budget exhausted\n";
      return finish(kExitRestartsExhausted);
    }
    return finish(outcome.exit_code);
  }

  if (mode == "analyze") {
    ld::LogDiverConfig diver_config;
    diver_config.threads = threads;
    diver_config.bundle_cache_dir = bundle_cache_dir;
    diver_config.bundle_cache_max_bytes = bundle_cache_max_mb * 1024 * 1024;
    ld::LogDiver diver(machine, diver_config);
    auto analysis = diver.AnalyzeBundle(dir);
    if (!analysis.ok()) {
      std::cerr << "analyze failed: " << analysis.status().ToString() << "\n";
      const bool budget =
          analysis.status().code() == ld::StatusCode::kParseError &&
          analysis.status().ToString().find("error budget") !=
              std::string::npos;
      return finish(budget ? kExitIngestBudget : 1);
    }
    switch (analysis->cache_outcome) {
      case ld::CacheOutcome::kDisabled:
        break;
      case ld::CacheOutcome::kMiss:
        std::cout << "bundle cache: miss (entry written)\n";
        break;
      case ld::CacheOutcome::kRejected:
        // The rejection reason prints too: a fallback to the text parse
        // must be loud, never silent.
        std::cout << "bundle cache: rejected — " << analysis->cache_note
                  << "\n";
        break;
      case ld::CacheOutcome::kRecordsHit:
        std::cout << "bundle cache: records hit (analysis tail re-run)\n";
        break;
      case ld::CacheOutcome::kHit:
        std::cout << "bundle cache: hit (memoized result)\n";
        break;
    }
    PrintReport(*analysis, csv_dir);

    const std::string truth_path = dir + "/ground_truth.csv";
    if (std::filesystem::exists(truth_path)) {
      auto truth = ld::LoadGroundTruth(truth_path);
      if (truth.ok()) {
        const ld::ScoreReport score = ld::ScoreClassification(
            analysis->runs, analysis->classified, *truth);
        std::cout << "\n--- scoring vs ground truth ---\n";
        std::cout << "system precision: " << score.system_precision
                  << "  recall: " << score.system_recall
                  << "  F1: " << score.system_f1
                  << "  cause accuracy: " << score.cause_accuracy << "\n";
      }
    }
    return finish(0);
  }
  return Usage();
}
