// Worker-fault campaign: run the fleet supervisor against injected
// worker faults (crash, hang, truncated partial) across shard counts
// and assert the merged MetricsReport is *bit-identical* to the serial
// analyzer whenever the failure budget is not exhausted — retries must
// absorb every fault without changing a single bit of the answer.
//
// Each sweep cell is (fault type × shard count): the faulted shard's
// first attempt crashes at an ingest boundary, hangs until the shard
// timeout SIGKILLs it, or ships a deliberately torn partial; the retry
// runs clean and the merged report is fingerprint-compared against the
// uninterrupted serial baseline.  Separate cells then exercise the
// degradation edge: a persistently-crashing shard under a failure
// budget must produce a coverage-annotated *monotone subset* report
// that exactly matches an in-process merge of the surviving shards;
// fail-fast must refuse to degrade; and an over-budget fleet must fail
// with the budget status the CLI maps to its fleet-budget exit code.
//
// Environment knobs:
//   LD_FLEET_APPS  target application runs (default 3000; --quick 1200)
//   LD_FLEET_SEED  campaign seed           (default 13)
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "logdiver/fleet/supervisor.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

const char* FaultName(fleet::WorkerFault fault) {
  switch (fault) {
    case fleet::WorkerFault::kNone: return "none";
    case fleet::WorkerFault::kCrash: return "crash";
    case fleet::WorkerFault::kHang: return "hang";
    case fleet::WorkerFault::kTruncatedPartial: return "truncate";
  }
  return "?";
}

int Run(bool quick) {
  const std::uint64_t apps = bench::EnvU64("LD_FLEET_APPS", quick ? 1200 : 3000);
  const std::uint64_t seed = bench::EnvU64("LD_FLEET_SEED", 13);

  const std::string base =
      "/tmp/ld_fleet_campaign." + std::to_string(getpid());
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

  std::printf("=== fleet campaign: worker-fault / merge equivalence ===\n");
  std::printf("campaign: %llu target app runs, seed %llu%s\n\n",
              static_cast<unsigned long long>(apps),
              static_cast<unsigned long long>(seed),
              quick ? " (quick)" : "");

  // --- serial baseline -----------------------------------------------
  const LogDiverConfig diver_config;
  StreamingAnalyzer serial(machine, diver_config);
  auto total = ReplayBundle(diver_config, inputs, ReplaySchedule{}, serial);
  if (!total.ok()) {
    std::fprintf(stderr, "baseline failed: %s\n",
                 total.status().ToString().c_str());
    return 1;
  }
  const AnalysisSummary serial_summary = serial.Finalize();
  const std::uint32_t want_report = FingerprintReport(serial_summary.metrics);
  const std::uint32_t want_ingest = FingerprintIngest(serial_summary.ingest);
  const std::uint64_t want_runs = serial_summary.reconstruct_stats.runs;
  std::printf("baseline: %llu lines, %llu runs, report fp %08x, "
              "ingest fp %08x\n\n",
              static_cast<unsigned long long>(*total),
              static_cast<unsigned long long>(want_runs), want_report,
              want_ingest);

  int cell_index = 0;
  const auto make_options = [&](std::uint32_t shards) {
    fleet::FleetOptions options;
    options.shard_count = shards;
    options.partial_dir = base + "/cell_" + std::to_string(cell_index++);
    // Generous for clean shards, short enough that a hung worker is
    // killed and retried well inside the cell's time budget.
    options.shard_timeout_ms = 30000;
    return options;
  };
  const fleet::ShardSupervisor supervisor(machine, diver_config);
  bool all_passed = true;

  // --- fault × shard-count sweep -------------------------------------
  const std::vector<std::uint32_t> shard_counts = {2, 4, 8};
  const std::vector<fleet::WorkerFault> faults = {
      fleet::WorkerFault::kNone, fleet::WorkerFault::kCrash,
      fleet::WorkerFault::kHang, fleet::WorkerFault::kTruncatedPartial};

  for (std::uint32_t shards : shard_counts) {
    for (fleet::WorkerFault fault : faults) {
      fleet::FleetOptions options = make_options(shards);
      const std::uint32_t victim = shards - 1;
      if (fault != fleet::WorkerFault::kNone) {
        fleet::FaultPlan plan;
        plan.fault = fault;
        plan.after_lines = *total / 2;
        options.faults[victim] = plan;
        if (fault == fleet::WorkerFault::kHang) {
          // The hang parks the worker forever; only the deadline ends
          // it.  Short enough to keep the cell quick, long enough that
          // clean shards (even sanitizer-slowed) never trip it.
          options.shard_timeout_ms = 8000;
        }
      }
      auto fleet_run = supervisor.Run(inputs, options);
      bool ok = fleet_run.ok();
      if (!ok) {
        std::fprintf(stderr, "  cell errored: %s\n",
                     fleet_run.status().ToString().c_str());
      }
      if (ok) {
        const fleet::ShardOutcome& out = fleet_run->shards[victim];
        const bool identical =
            FingerprintReport(fleet_run->summary.metrics) == want_report &&
            FingerprintIngest(fleet_run->summary.ingest) == want_ingest &&
            fleet_run->summary.reconstruct_stats.runs == want_runs &&
            !fleet_run->coverage.degraded();
        bool absorbed = true;
        switch (fault) {
          case fleet::WorkerFault::kNone:
            absorbed = out.attempts == 1;
            break;
          case fleet::WorkerFault::kCrash:
            absorbed = out.attempts == 2 && out.crashes == 1;
            break;
          case fleet::WorkerFault::kHang:
            absorbed = out.attempts == 2 && out.hangs_killed == 1;
            break;
          case fleet::WorkerFault::kTruncatedPartial:
            absorbed = out.attempts == 2 && out.partials_rejected == 1;
            break;
        }
        if (!identical) {
          std::fprintf(stderr,
                       "  MISMATCH: report fp %08x (want %08x), runs %llu "
                       "(want %llu)\n",
                       FingerprintReport(fleet_run->summary.metrics),
                       want_report,
                       static_cast<unsigned long long>(
                           fleet_run->summary.reconstruct_stats.runs),
                       static_cast<unsigned long long>(want_runs));
        }
        if (!absorbed) {
          std::fprintf(stderr,
                       "  fault not absorbed as expected: attempts %d "
                       "crashes %d hangs %d rejected %d\n",
                       out.attempts, out.crashes, out.hangs_killed,
                       out.partials_rejected);
        }
        ok = identical && absorbed;
      }
      all_passed = all_passed && ok;
      std::printf("shards %u  fault %-8s  %s\n", shards, FaultName(fault),
                  ok ? "ok (bit-identical)" : "FAIL");
    }
  }

  // --- degrade-and-annotate: budget absorbs a dead shard -------------
  // Shard 1 of 4 crashes on *every* attempt; with a budget of one the
  // fleet must ship a coverage-annotated report that exactly equals an
  // in-process merge of the three surviving shards — degraded means a
  // monotone subset, never a wrong number.
  {
    fleet::FleetOptions options = make_options(4);
    fleet::FaultPlan plan;
    plan.fault = fleet::WorkerFault::kCrash;
    plan.after_lines = *total / 3;
    plan.persistent = true;
    options.faults[1] = plan;
    options.policy = DegradationPolicy::kQuarantineAndContinue;
    options.failure_budget = 1;
    auto degraded = supervisor.Run(inputs, options);
    bool ok = degraded.ok();
    if (!ok) {
      std::fprintf(stderr, "  degrade cell errored: %s\n",
                   degraded.status().ToString().c_str());
    }
    if (ok) {
      MetricsAccumulator expected_acc(diver_config.metrics);
      IngestStats expected_ingest;
      for (std::uint32_t i : {0u, 2u, 3u}) {
        LogDiverConfig shard_config = diver_config;
        shard_config.shard = ShardSpec{i, 4};
        StreamingAnalyzer analyzer(machine, shard_config);
        if (!ReplayBundle(shard_config, inputs, ReplaySchedule{}, analyzer)
                 .ok()) {
          ok = false;
          break;
        }
        const AnalysisSummary s = analyzer.Finalize();
        if (i == 0) expected_ingest = s.ingest;
        expected_acc.MergeFrom(analyzer.metrics_accumulator());
      }
      MetricsReport expected = expected_acc.Report();
      expected.ingest = expected_ingest;
      const bool annotated =
          degraded->coverage.degraded() &&
          degraded->coverage.shards_merged == 3 &&
          degraded->coverage.dropped_shards ==
              std::vector<std::uint32_t>{1} &&
          degraded->coverage.Row().find("dropped: 1") != std::string::npos;
      const bool exact_subset =
          FingerprintReport(degraded->summary.metrics) ==
          FingerprintReport(expected);
      const bool monotone =
          degraded->summary.metrics.total_runs <
              serial_summary.metrics.total_runs &&
          degraded->summary.metrics.total_node_hours <=
              serial_summary.metrics.total_node_hours;
      if (!annotated) std::fprintf(stderr, "  degrade: bad coverage row\n");
      if (!exact_subset) {
        std::fprintf(stderr,
                     "  degrade: merged report != surviving-shard merge\n");
      }
      if (!monotone) std::fprintf(stderr, "  degrade: not a subset\n");
      ok = ok && annotated && exact_subset && monotone;
    }
    all_passed = all_passed && ok;
    std::printf("budget=1 absorbs persistent crash (degrade+annotate)  %s\n",
                ok ? "ok" : "FAIL");
  }

  // --- fail-fast: the same dead shard must fail the fleet ------------
  {
    fleet::FleetOptions options = make_options(4);
    fleet::FaultPlan plan;
    plan.fault = fleet::WorkerFault::kCrash;
    plan.persistent = true;
    options.faults[2] = plan;
    options.policy = DegradationPolicy::kFailFast;
    auto failed = supervisor.Run(inputs, options);
    const bool ok = !failed.ok() &&
                    failed.status().code() == StatusCode::kFailedPrecondition;
    if (!ok) {
      std::fprintf(stderr, "  fail-fast cell: expected kFailedPrecondition, "
                           "got %s\n",
                   failed.ok() ? "success" : failed.status().ToString().c_str());
    }
    all_passed = all_passed && ok;
    std::printf("fail-fast refuses to degrade                          %s\n",
                ok ? "ok" : "FAIL");
  }

  // --- over budget: two dead shards, budget one ----------------------
  {
    fleet::FleetOptions options = make_options(4);
    fleet::FaultPlan plan;
    plan.fault = fleet::WorkerFault::kCrash;
    plan.persistent = true;
    options.faults[0] = plan;
    options.faults[3] = plan;
    options.policy = DegradationPolicy::kQuarantineAndContinue;
    options.failure_budget = 1;
    auto failed = supervisor.Run(inputs, options);
    const bool ok =
        !failed.ok() && failed.status().code() == StatusCode::kOutOfRange;
    if (!ok) {
      std::fprintf(stderr, "  over-budget cell: expected kOutOfRange, got %s\n",
                   failed.ok() ? "success" : failed.status().ToString().c_str());
    }
    all_passed = all_passed && ok;
    std::printf("budget exhaustion fails with the fleet-budget status  %s\n",
                ok ? "ok" : "FAIL");
  }

  std::filesystem::remove_all(base);
  std::printf("\n%s\n",
              all_passed
                  ? "PASS: every non-degraded fleet reproduced the serial "
                    "report bit for bit"
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
