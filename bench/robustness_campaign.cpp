// Robustness campaign: dirty-log fault injection against the hardened
// ingestion pipeline.
//
// One clean simulated campaign is rendered once; every cell of the
// (operator x corruption-rate) sweep then corrupts a fresh copy of the
// rendered bundle with the LogCorruptor and runs BOTH pipelines —
// batch LogDiver::Analyze and the watermark-driven StreamingAnalyzer —
// over the dirty logs, scoring each classification against the
// injector's (uncorrupted) ground truth.  Because the corruption ledger
// says exactly what was done to the logs, the accuracy-vs-corruption
// table is a direct measurement of graceful degradation.
//
// Assertions (exit 1 on violation):
//   - the zero-corruption pass reproduces the clean classifications
//     exactly, with an empty quarantine and all ingest counters zero;
//   - every sweep cell completes without a crash or a pipeline error;
//   - at the gentlest rate, accuracy stays within a small margin of the
//     clean baseline for every operator (the "graceful" in graceful
//     degradation).
//
// Environment knobs:
//   LD_ROBUST_APPS  target application runs (default 8000)
//   LD_ROBUST_SEED  campaign + corruption seed (default 7)
#include <algorithm>
#include <cstdio>
#include <exception>
#include <iostream>
#include <vector>

#include "analysis/scoring.hpp"
#include "bench_common.hpp"
#include "faults/corruptor.hpp"
#include "logdiver/resume.hpp"
#include "logdiver/snapshot.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace ld {
namespace {

/// Cross-checks that the 4-thread parse-ahead path produces bit-identical
/// results to the serial one on this (possibly dirty) bundle: same
/// metrics fingerprint, same ingest fingerprint, same quarantine.
bool ParallelMatchesSerial(const Machine& machine, const LogSet& logs,
                           const AnalysisResult& serial, const char* label) {
  LogDiverConfig config;
  config.threads = 4;
  const LogDiver parallel_diver(machine, config);
  auto parallel = parallel_diver.Analyze(logs);
  if (!parallel.ok()) {
    std::cerr << "FAIL: " << label << ": parallel analysis errored: "
              << parallel.status().ToString() << "\n";
    return false;
  }
  if (FingerprintReport(parallel->metrics) != FingerprintReport(serial.metrics)) {
    std::cerr << "FAIL: " << label
              << ": parallel metrics fingerprint diverges from serial\n";
    return false;
  }
  if (FingerprintIngest(parallel->ingest) != FingerprintIngest(serial.ingest)) {
    std::cerr << "FAIL: " << label
              << ": parallel ingest fingerprint diverges from serial\n";
    return false;
  }
  bool same_quarantine = parallel->quarantine.size() == serial.quarantine.size();
  for (std::size_t i = 0; same_quarantine && i < serial.quarantine.size();
       ++i) {
    const QuarantineEntry& a = serial.quarantine[i];
    const QuarantineEntry& b = parallel->quarantine[i];
    same_quarantine = a.source == b.source && a.line_number == b.line_number &&
                      a.reason == b.reason && a.line == b.line;
  }
  if (!same_quarantine) {
    std::cerr << "FAIL: " << label
              << ": parallel quarantine diverges from serial\n";
    return false;
  }
  return true;
}

/// Streams the dirty bundle the way a live shipper would: each file is
/// consumed strictly in file order, and the four tails are merged by the
/// claimed time of their current heads (ReplayLines).  Skewed or
/// reordered files make the merged stamp sequence non-monotone, so the
/// replay watermark (claimed time minus slack) genuinely regresses —
/// exactly the broken promise StreamingAnalyzer clamps and counts.
AnalysisSummary StreamDirty(const Machine& machine, const EmittedLogs& logs) {
  const LogDiverConfig config;
  StreamingAnalyzer analyzer(machine, config);
  const LogSet copy{logs.torque, logs.alps, logs.syslog, logs.hwerr};
  ReplayLines(LogSetView(copy), config, ReplaySchedule{}, analyzer);
  return analyzer.Finalize();
}

struct Cell {
  std::string op_name;
  double rate = 0.0;
  CorruptionLedger ledger;
  ScoreReport batch_score;
  IngestStats batch_ingest;
  std::uint64_t batch_runs = 0;
  std::uint64_t stream_runs = 0;
  IngestStats stream_ingest;
};

int Run() {
  const std::uint64_t apps = bench::EnvU64("LD_ROBUST_APPS", 8000);
  const std::uint64_t seed = bench::EnvU64("LD_ROBUST_SEED", 7);

  ScenarioConfig config = SmallScenario(seed);
  config.workload.target_app_runs = apps;
  const Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  if (!campaign.ok()) {
    std::cerr << "campaign failed: " << campaign.status().ToString() << "\n";
    return 1;
  }

  std::cout << "=== robustness campaign: dirty-log fault injection ===\n";
  std::cout << "campaign: " << apps << " target app runs on the testbed "
            << "machine, seed " << seed << "\n\n";

  const LogDiver diver(machine, LogDiverConfig{});
  auto clean_logset = [&]() {
    return LogSet{campaign->logs.torque, campaign->logs.alps,
                  campaign->logs.syslog, campaign->logs.hwerr};
  };

  // --- clean baseline -------------------------------------------------
  auto baseline = diver.Analyze(clean_logset());
  if (!baseline.ok()) {
    std::cerr << "baseline analysis failed: " << baseline.status().ToString()
              << "\n";
    return 1;
  }
  const ScoreReport base_score = ScoreClassification(
      baseline->runs, baseline->classified, campaign->injection.truth);
  std::printf("clean baseline: %llu runs, accuracy %.4f, system F1 %.4f\n",
              static_cast<unsigned long long>(baseline->metrics.total_runs),
              base_score.overall_accuracy, base_score.system_f1);

  // --- zero-corruption identity ---------------------------------------
  // A corruptor at rate 0 must be the identity, and the hardened
  // pipeline over the identical bundle must reproduce the clean
  // classifications exactly with every ingest counter at zero.
  {
    EmittedLogs copy = campaign->logs;
    CorruptorConfig cc;
    cc.rate = 0.0;
    cc.ops = LogCorruptor::AllOps();
    const LogCorruptor corruptor(cc);
    const CorruptionLedger ledger =
        corruptor.CorruptBundle(copy, Rng(seed).Fork("corruptor"));
    if (ledger.total() != 0 || copy.alps != campaign->logs.alps ||
        copy.torque != campaign->logs.torque ||
        copy.syslog != campaign->logs.syslog ||
        copy.hwerr != campaign->logs.hwerr) {
      std::cerr << "FAIL: zero-rate corruptor is not the identity\n";
      return 1;
    }
    auto redo = diver.Analyze(
        LogSet{copy.torque, copy.alps, copy.syslog, copy.hwerr});
    if (!redo.ok()) {
      std::cerr << "FAIL: zero-corruption analysis errored\n";
      return 1;
    }
    bool same = redo->classified.size() == baseline->classified.size();
    for (std::size_t i = 0; same && i < redo->classified.size(); ++i) {
      same = redo->classified[i].outcome == baseline->classified[i].outcome &&
             redo->classified[i].cause == baseline->classified[i].cause;
    }
    if (!same) {
      std::cerr << "FAIL: zero-corruption classifications differ from the "
                   "clean baseline\n";
      return 1;
    }
    if (!redo->ingest.clean() || !redo->quarantine.empty()) {
      std::cerr << "FAIL: zero-corruption run left nonzero ingest counters\n";
      return 1;
    }
    const auto stream = StreamDirty(machine, copy);
    if (!stream.ingest.clean() || !stream.ingest_status.ok()) {
      std::cerr << "FAIL: zero-corruption stream left nonzero ingest "
                   "counters\n";
      return 1;
    }
    if (!ParallelMatchesSerial(machine, clean_logset(), *redo,
                               "zero-corruption")) {
      return 1;
    }
    std::cout << "zero-corruption identity: OK (batch + streaming clean, "
                 "parallel parse bit-identical)\n\n";
  }

  // --- the sweep ------------------------------------------------------
  struct OpRow {
    std::string name;
    std::vector<CorruptionOp> ops;
  };
  std::vector<OpRow> op_rows;
  for (CorruptionOp op : LogCorruptor::AllOps()) {
    op_rows.push_back({CorruptionOpName(op), {op}});
  }
  op_rows.push_back({"all", LogCorruptor::AllOps()});
  const std::vector<double> rates = {0.01, 0.05, 0.10, 0.25};

  std::vector<Cell> cells;
  for (const OpRow& row : op_rows) {
    for (double rate : rates) {
      Cell cell;
      cell.op_name = row.name;
      cell.rate = rate;

      EmittedLogs dirty = campaign->logs;
      CorruptorConfig cc;
      cc.rate = rate;
      cc.ops = row.ops;
      const LogCorruptor corruptor(cc);
      cell.ledger =
          corruptor.CorruptBundle(dirty, Rng(seed).Fork("corruptor"));

      auto analysis = diver.Analyze(
          LogSet{dirty.torque, dirty.alps, dirty.syslog, dirty.hwerr});
      if (!analysis.ok()) {
        std::cerr << "FAIL: " << row.name << " @ " << rate
                  << ": batch analysis errored: "
                  << analysis.status().ToString() << "\n";
        return 1;
      }
      cell.batch_score = ScoreClassification(
          analysis->runs, analysis->classified, campaign->injection.truth);
      cell.batch_ingest = analysis->ingest;
      cell.batch_runs = analysis->metrics.total_runs;

      // At the harshest rate, cross-check the 4-thread parse path
      // against the serial result on this dirty bundle.
      if (rate == rates.back() &&
          !ParallelMatchesSerial(
              machine,
              LogSet{dirty.torque, dirty.alps, dirty.syslog, dirty.hwerr},
              *analysis, row.name.c_str())) {
        return 1;
      }

      const auto stream = StreamDirty(machine, dirty);
      cell.stream_runs = stream.metrics.total_runs;
      cell.stream_ingest = stream.ingest;

      cells.push_back(std::move(cell));
    }
  }

  std::printf("%-13s %5s | %8s %8s %8s | %7s %7s %6s %6s %6s\n", "operator",
              "rate", "injected", "runs", "accuracy", "sysF1", "quarant",
              "dups", "wmregr", "evict");
  for (const Cell& cell : cells) {
    const std::uint64_t dups = cell.batch_ingest.duplicate_placements +
                               cell.batch_ingest.duplicate_terminations +
                               cell.stream_ingest.duplicate_job_records;
    std::printf("%-13s %5.2f | %8llu %8llu %8.4f | %7.4f %7llu %6llu %6llu "
                "%6llu\n",
                cell.op_name.c_str(), cell.rate,
                static_cast<unsigned long long>(cell.ledger.total()),
                static_cast<unsigned long long>(cell.batch_runs),
                cell.batch_score.overall_accuracy, cell.batch_score.system_f1,
                static_cast<unsigned long long>(cell.batch_ingest.quarantined),
                static_cast<unsigned long long>(dups),
                static_cast<unsigned long long>(
                    cell.stream_ingest.watermark_regressions),
                static_cast<unsigned long long>(
                    cell.stream_ingest.evicted_pending_runs +
                    cell.stream_ingest.evicted_tuples));
  }

  // --- graceful-degradation assertion ---------------------------------
  bool graceful = true;
  for (const Cell& cell : cells) {
    if (cell.rate > 0.011) continue;
    if (cell.batch_score.overall_accuracy <
        base_score.overall_accuracy - 0.10) {
      std::cerr << "FAIL: " << cell.op_name << " @ " << cell.rate
                << " dropped accuracy to " << cell.batch_score.overall_accuracy
                << " (baseline " << base_score.overall_accuracy << ")\n";
      graceful = false;
    }
  }
  if (!graceful) return 1;

  std::cout << "\ngraceful degradation: OK (1% corruption costs <0.10 "
               "accuracy on every operator)\n";
  return 0;
}

}  // namespace
}  // namespace ld

int main() {
  try {
    return ld::Run();
  } catch (const std::exception& e) {
    std::cerr << "FAIL: uncaught exception: " << e.what() << "\n";
    return 1;
  } catch (...) {
    std::cerr << "FAIL: uncaught non-standard exception\n";
    return 1;
  }
}
