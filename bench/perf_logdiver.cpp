// Tool-performance benchmarks (google-benchmark): throughput of each
// LogDiver pipeline stage.  The paper's tool processed multi-gigabyte
// production logs; these numbers show the reimplementation handles
// field-study volumes comfortably.  A diagnostic: no gate reads these
// rows.  The perf gate is the end-to-end CLI A/B in tools/ab_cli.py.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>

#include "analysis/bootstrap.hpp"
#include "bench_common.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "logdiver/logdiver.hpp"
#include "logdiver/streaming.hpp"
#include "simlog/scenario.hpp"

namespace {

// One shared campaign for all perf benchmarks (generation is expensive).
struct SharedCampaign {
  ld::ScenarioConfig config;
  ld::Machine machine;
  ld::Campaign campaign;
  ld::LogSet logs;
  ld::LogSetView views;

  SharedCampaign()
      : config(MakeConfig()), machine(ld::MakeMachine(config)) {
    auto result = ld::RunCampaign(machine, config);
    if (!result.ok()) std::abort();
    campaign = std::move(*result);
    logs.torque = campaign.logs.torque;
    logs.alps = campaign.logs.alps;
    logs.syslog = campaign.logs.syslog;
    logs.hwerr = campaign.logs.hwerr;
    views = ld::LogSetView(logs);
  }

  static ld::ScenarioConfig MakeConfig() {
    ld::ScenarioConfig config;
    config.seed = 7;
    config.full_machine = true;
    config.workload.target_app_runs = 50000;
    config.workload.campaign = ld::Duration::Days(518);
    return config;
  }
};

const SharedCampaign& Shared() {
  static SharedCampaign* shared = new SharedCampaign();
  return *shared;
}

void BM_ParseTorque(benchmark::State& state) {
  const auto& lines = Shared().views.torque;
  for (auto _ : state) {
    ld::TorqueParser parser;
    benchmark::DoNotOptimize(parser.ParseLines(lines));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ParseTorque)->Unit(benchmark::kMillisecond);

void BM_ParseAlps(benchmark::State& state) {
  const auto& lines = Shared().views.alps;
  for (auto _ : state) {
    ld::AlpsParser parser;
    benchmark::DoNotOptimize(parser.ParseLines(lines));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ParseAlps)->Unit(benchmark::kMillisecond);

void BM_ParseSyslog(benchmark::State& state) {
  const auto& lines = Shared().views.syslog;
  for (auto _ : state) {
    ld::SyslogParser parser(2013);
    benchmark::DoNotOptimize(parser.ParseLines(lines));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(lines.size()));
}
BENCHMARK(BM_ParseSyslog)->Unit(benchmark::kMillisecond);

void BM_Coalesce(benchmark::State& state) {
  const auto& shared = Shared();
  ld::SyslogParser syslog_parser(2013);
  std::vector<ld::ErrorRecord> records =
      syslog_parser.ParseLines(shared.views.syslog);
  ld::HwerrParser hwerr_parser;
  auto hwerr = hwerr_parser.ParseLines(shared.views.hwerr);
  records.insert(records.end(), hwerr.begin(), hwerr.end());
  for (auto _ : state) {
    auto copy = records;
    benchmark::DoNotOptimize(
        ld::CoalesceEvents(shared.machine, std::move(copy), {}, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_Coalesce)->Unit(benchmark::kMillisecond);

void BM_Reconstruct(benchmark::State& state) {
  const auto& shared = Shared();
  ld::AlpsParser alps_parser;
  const auto alps = alps_parser.ParseLines(shared.views.alps);
  ld::TorqueParser torque_parser;
  const auto torque = torque_parser.ParseLines(shared.views.torque);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ld::ReconstructRuns(shared.machine, alps, torque, nullptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(alps.size()));
}
BENCHMARK(BM_Reconstruct)->Unit(benchmark::kMillisecond);

void BM_Classify(benchmark::State& state) {
  const auto& shared = Shared();
  ld::LogDiver diver(shared.machine, {});
  auto analysis = diver.Analyze(shared.logs);
  if (!analysis.ok()) std::abort();
  const ld::Correlator correlator(shared.machine, {});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        correlator.Classify(analysis->runs, analysis->tuples));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(analysis->runs.size()));
}
BENCHMARK(BM_Classify)->Unit(benchmark::kMillisecond);

void BM_StreamingPipeline(benchmark::State& state) {
  const auto& shared = Shared();
  std::int64_t total_lines = static_cast<std::int64_t>(
      shared.logs.torque.size() + shared.logs.alps.size() +
      shared.logs.syslog.size() + shared.logs.hwerr.size());
  for (auto _ : state) {
    ld::StreamingAnalyzer analyzer(shared.machine, {});
    for (const std::string& line : shared.logs.torque) {
      analyzer.AddTorqueLine(line);
    }
    for (const std::string& line : shared.logs.alps) {
      analyzer.AddAlpsLine(line);
    }
    for (const std::string& line : shared.logs.syslog) {
      analyzer.AddSyslogLine(line);
    }
    for (const std::string& line : shared.logs.hwerr) {
      analyzer.AddHwerrLine(line);
    }
    benchmark::DoNotOptimize(analyzer.Finalize());
  }
  state.SetItemsProcessed(state.iterations() * total_lines);
}
BENCHMARK(BM_StreamingPipeline)->Unit(benchmark::kMillisecond);

void BM_FullPipeline(benchmark::State& state) {
  const auto& shared = Shared();
  ld::LogDiver diver(shared.machine, {});
  std::int64_t total_lines = static_cast<std::int64_t>(
      shared.logs.torque.size() + shared.logs.alps.size() +
      shared.logs.syslog.size() + shared.logs.hwerr.size());
  for (auto _ : state) {
    auto analysis = diver.Analyze(shared.logs);
    benchmark::DoNotOptimize(analysis);
  }
  state.SetItemsProcessed(state.iterations() * total_lines);
}
BENCHMARK(BM_FullPipeline)->Unit(benchmark::kMillisecond);

// --- Thread scaling ---------------------------------------------------
//
// The same full batch analysis with the parse stage fanned out over N
// worker threads (the results are bit-identical at every N; the
// ParallelParse tests pin that).  items/s counts input lines across all
// four sources.  Meaningful scaling numbers require a machine with at
// least as many cores as the widest Arg below; on a 1-core container
// the curve is flat and only measures pool overhead.

void BM_AnalyzeThreads(benchmark::State& state) {
  const auto& shared = Shared();
  ld::LogDiverConfig config;
  config.threads = static_cast<int>(state.range(0));
  ld::LogDiver diver(shared.machine, config);
  std::int64_t total_lines = static_cast<std::int64_t>(
      shared.logs.torque.size() + shared.logs.alps.size() +
      shared.logs.syslog.size() + shared.logs.hwerr.size());
  for (auto _ : state) {
    auto analysis = diver.Analyze(shared.logs);
    benchmark::DoNotOptimize(analysis);
  }
  state.SetItemsProcessed(state.iterations() * total_lines);
}
BENCHMARK(BM_AnalyzeThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Parse stage only (syslog, the most expensive parser), isolating the
// parse-ahead fan-out from the serial coalesce/reconstruct/metrics tail.
void BM_ParseSyslogThreads(benchmark::State& state) {
  const auto& views = Shared().views.syslog;
  const int threads = static_cast<int>(state.range(0));
  ld::ThreadPool pool(threads);
  ld::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    ld::SyslogParser parser(2013);
    benchmark::DoNotOptimize(parser.ParseLines(
        std::span<const std::string_view>(views), nullptr, pool_ptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(views.size()));
}
BENCHMARK(BM_ParseSyslogThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The key=value accounting parsers, same fan-out shape as the syslog
// row above.  These are the rows the one-pass field splitter
// (strings.hpp KeyValueView) moves.
void BM_ParseTorqueThreads(benchmark::State& state) {
  const auto& views = Shared().views.torque;
  const int threads = static_cast<int>(state.range(0));
  ld::ThreadPool pool(threads);
  ld::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    ld::TorqueParser parser;
    benchmark::DoNotOptimize(parser.ParseLines(
        std::span<const std::string_view>(views), nullptr, pool_ptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(views.size()));
}
BENCHMARK(BM_ParseTorqueThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ParseAlpsThreads(benchmark::State& state) {
  const auto& views = Shared().views.alps;
  const int threads = static_cast<int>(state.range(0));
  ld::ThreadPool pool(threads);
  ld::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    ld::AlpsParser parser;
    benchmark::DoNotOptimize(parser.ParseLines(
        std::span<const std::string_view>(views), nullptr, pool_ptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(views.size()));
}
BENCHMARK(BM_ParseAlpsThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Classification stage only: the CSR tuple index is rebuilt every
// iteration (it is part of Classify's cost) and the runs are sharded
// over N workers.  Output is bit-identical at every N (the
// ParallelAnalysis tests pin that); items/s counts classified runs.
void BM_ClassifyThreads(benchmark::State& state) {
  const auto& shared = Shared();
  ld::LogDiver diver(shared.machine, {});
  static const auto* analysis = [&] {
    auto result = diver.Analyze(shared.logs);
    if (!result.ok()) std::abort();
    return new ld::AnalysisResult(std::move(*result));
  }();
  const ld::Correlator correlator(shared.machine, {});
  const int threads = static_cast<int>(state.range(0));
  ld::ThreadPool pool(threads);
  ld::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        correlator.Classify(analysis->runs, analysis->tuples, pool_ptr));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(analysis->runs.size()));
}
BENCHMARK(BM_ClassifyThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Bootstrap CI with per-replicate counter-based RNG streams fanned over
// N workers.  One CI over 50k (numerator, denominator) pairs at 2000
// replicates; items/s counts replicates.
void BM_BootstrapThreads(benchmark::State& state) {
  constexpr std::uint32_t kReplicas = 2000;
  constexpr std::size_t kRuns = 50000;
  static const auto* data = [] {
    auto* pairs = new std::pair<std::vector<double>, std::vector<double>>();
    ld::Rng rng(7);
    pairs->first.reserve(kRuns);
    pairs->second.reserve(kRuns);
    for (std::size_t i = 0; i < kRuns; ++i) {
      const double node_hours = rng.UniformDouble(0.5, 5000.0);
      pairs->second.push_back(node_hours);
      pairs->first.push_back(rng.Bernoulli(0.015) ? node_hours : 0.0);
    }
    return pairs;
  }();
  const int threads = static_cast<int>(state.range(0));
  ld::ThreadPool pool(threads);
  ld::ThreadPool* pool_ptr = threads > 1 ? &pool : nullptr;
  ld::Rng rng(42);
  for (auto _ : state) {
    auto ci = ld::BootstrapRatioCi(data->first, data->second, kReplicas, rng,
                                   pool_ptr);
    if (!ci.ok()) std::abort();
    benchmark::DoNotOptimize(ci);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kReplicas));
}
BENCHMARK(BM_BootstrapThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// End-to-end bundle analysis from disk: mmap + block-split + parallel
// parse, the path the CLI's `analyze` mode takes.
void BM_AnalyzeBundle(benchmark::State& state) {
  const auto& shared = Shared();
  const std::string dir =
      std::filesystem::temp_directory_path().string() + "/ld_perf_bundle";
  static bool written = [&] {
    std::filesystem::remove_all(dir);
    auto bundle = ld::WriteBundle(shared.machine, shared.config, dir);
    return bundle.ok();
  }();
  if (!written) std::abort();
  ld::LogDiverConfig config;
  config.threads = static_cast<int>(state.range(0));
  ld::LogDiver diver(shared.machine, config);
  std::int64_t total_lines = static_cast<std::int64_t>(
      shared.logs.torque.size() + shared.logs.alps.size() +
      shared.logs.syslog.size() + shared.logs.hwerr.size());
  for (auto _ : state) {
    auto analysis = diver.AnalyzeBundle(dir);
    benchmark::DoNotOptimize(analysis);
  }
  state.SetItemsProcessed(state.iterations() * total_lines);
}
BENCHMARK(BM_AnalyzeBundle)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// --- Raw-speed ingestion ----------------------------------------------

// Peak RSS (VmHWM) of this process in MB, from /proc/self/status; 0
// when unreadable (non-Linux).  Reported as a counter.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      status >> kb;
      return kb / 1024.0;
    }
    status.ignore(4096, '\n');
  }
  return 0.0;
}

// The torque accounting payloads (the key=value text after the final
// ';') for the splitter bench below.
const std::vector<std::string>& TorquePayloads() {
  static const std::vector<std::string>* payloads = [] {
    auto* out = new std::vector<std::string>();
    out->reserve(Shared().logs.torque.size());
    for (const std::string& line : Shared().logs.torque) {
      const std::size_t semi = line.rfind(';');
      out->push_back(semi == std::string::npos ? line
                                               : line.substr(semi + 1));
    }
    return out;
  }();
  return *payloads;
}

// The key=value field splitter on the campaign's torque payloads: the
// parsers' one-pass KeyValueView (one table-driven tokenizing pass,
// then tag-indexed lookups) against the per-key substring scan it
// replaced.  A diagnostic only: no gate reads it.
void BM_FieldSplit(benchmark::State& state, bool one_pass) {
  const std::vector<std::string>* payloads = &TorquePayloads();
  // The torque parser's lookup set.
  static constexpr std::string_view kKeys[] = {
      "user",     "queue", "jobname",
      "ctime",    "start", "Resource_List.nodect",
      "Resource_List.walltime", "end", "Exit_status",
      "resources_used.walltime"};
  std::size_t found = 0;
  for (auto _ : state) {
    for (const std::string& payload : *payloads) {
      if (one_pass) {
        const ld::KeyValueView kv(payload);
        for (const std::string_view key : kKeys) {
          found += kv.Get(key).has_value();
        }
      } else {
        for (const std::string_view key : kKeys) {
          found += ld::FindKeyValueOpt(payload, key).has_value();
        }
      }
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(payloads->size()));
}
BENCHMARK_CAPTURE(BM_FieldSplit, split, true)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_FieldSplit, scan, false)->Unit(benchmark::kMillisecond);

// AnalyzeBundle with the parsed-bundle cache: `cold` clears the cache
// every iteration (text parse + entry write-back), `warm` hits the
// memoized result.  bytes/s counts the on-disk input bytes either way,
// so the two rows are directly comparable.
void BM_AnalyzeBundleCached(benchmark::State& state, bool warm) {
  const auto& shared = Shared();
  const std::string dir = std::filesystem::temp_directory_path().string() +
                          "/ld_perf_bundle_cached";
  const std::string cache_dir = dir + "/cache";
  static bool written = [&] {
    std::filesystem::remove_all(dir);
    auto bundle = ld::WriteBundle(shared.machine, shared.config, dir);
    return bundle.ok();
  }();
  if (!written) std::abort();
  std::int64_t total_bytes = 0;
  for (const char* name :
       {"torque.log", "alps.log", "syslog.log", "hwerr.log"}) {
    total_bytes += static_cast<std::int64_t>(
        std::filesystem::file_size(dir + "/" + name));
  }
  ld::LogDiverConfig config;
  config.threads = 1;
  config.bundle_cache_dir = cache_dir;
  ld::LogDiver diver(shared.machine, config);
  std::filesystem::remove_all(cache_dir);
  if (warm) {
    // Populate once; every timed iteration must be a full hit.
    if (!diver.AnalyzeBundle(dir).ok()) std::abort();
  }
  for (auto _ : state) {
    if (!warm) {
      state.PauseTiming();
      std::filesystem::remove_all(cache_dir);
      state.ResumeTiming();
    }
    auto analysis = diver.AnalyzeBundle(dir);
    if (!analysis.ok()) std::abort();
    const ld::CacheOutcome want =
        warm ? ld::CacheOutcome::kHit : ld::CacheOutcome::kMiss;
    if (analysis->cache_outcome != want) std::abort();
    benchmark::DoNotOptimize(analysis);
  }
  state.SetBytesProcessed(state.iterations() * total_bytes);
  state.counters["rss_mb"] = PeakRssMb();
}
BENCHMARK_CAPTURE(BM_AnalyzeBundleCached, cold, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AnalyzeBundleCached, warm, true)
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN so this binary emits a run
// manifest like every other bench (manifest_perf_logdiver.json in
// LD_MANIFEST_DIR) — the provenance EXPERIMENTS.md's perf rows cite.
int main(int argc, char** argv) {
  ld::bench::BenchOptions options;
  const ld::ScenarioConfig config = SharedCampaign::MakeConfig();
  options.target_apps = config.workload.target_app_runs;
  options.seed = config.seed;
  ld::bench::PrintBenchHeader("perf logdiver", options);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
