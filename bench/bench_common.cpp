#include "bench_common.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "common/obs/manifest.hpp"
#include "common/strings.hpp"

namespace ld::bench {

namespace {

[[noreturn]] void BadEnv(const char* name, const char* what,
                         const char* value) {
  std::cerr << name << " expects " << what << ", got '" << value << "'\n";
  std::exit(2);
}

/// "table3: outcome breakdown" -> "table3_outcome_breakdown".
std::string Slug(const std::string& experiment) {
  std::string slug;
  slug.reserve(experiment.size());
  for (char c : experiment) {
    const auto u = static_cast<unsigned char>(c);
    if (std::isalnum(u)) {
      slug += static_cast<char>(std::tolower(u));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? std::string("bench") : slug;
}

/// The run manifest every bench emits at exit (atexit from
/// PrintBenchHeader, so no per-bench wiring).  A unique_ptr so repeated
/// PrintBenchHeader calls (multi-table benches) keep one manifest and
/// re-key it to the last experiment printed.
std::unique_ptr<obs::ManifestBuilder> g_manifest;
std::string g_manifest_path;

void WriteBenchManifest() {
  if (g_manifest == nullptr) return;
  const Status written = g_manifest->Write(g_manifest_path);
  if (written.ok()) {
    std::cout << "[manifest] " << g_manifest_path << "\n";
  } else {
    std::cerr << "[manifest] write failed: " << written.ToString() << "\n";
  }
  g_manifest.reset();
}

}  // namespace

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const auto parsed = ParseUint(value);
  if (!parsed.ok()) BadEnv(name, "an unsigned integer", value);
  return *parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const auto parsed = ParseDouble(value);
  if (!parsed.ok() || !std::isfinite(*parsed)) {
    BadEnv(name, "a finite number", value);
  }
  return *parsed;
}

BenchOptions OptionsFromEnv(BenchOptions defaults) {
  BenchOptions options = defaults;
  options.target_apps = EnvU64("LD_BENCH_APPS", defaults.target_apps);
  options.seed = EnvU64("LD_BENCH_SEED", defaults.seed);
  options.large_bucket_boost =
      EnvDouble("LD_BENCH_BOOST", defaults.large_bucket_boost);
  return options;
}

ScenarioConfig BenchScenario(const BenchOptions& options) {
  ScenarioConfig config;
  config.seed = options.seed;
  config.full_machine = true;
  config.workload.target_app_runs = options.target_apps;
  config.workload.campaign = Duration::Days(518);
  config.workload.large_bucket_boost = options.large_bucket_boost;
  // Fault model: calibrated defaults (FaultModelConfig) reproduce the
  // abstract's anchors at full scale; see DESIGN.md "Calibration".
  return config;
}

BenchCampaign RunBench(const BenchOptions& options) {
  const ScenarioConfig config = BenchScenario(options);
  Machine machine = MakeMachine(config);
  auto campaign = RunCampaign(machine, config);
  if (!campaign.ok()) {
    std::cerr << "bench campaign failed: " << campaign.status().ToString()
              << "\n";
    std::exit(1);
  }

  LogDiver diver(machine, LogDiverConfig{});
  LogSet logs;
  logs.torque = campaign->logs.torque;
  logs.alps = campaign->logs.alps;
  logs.syslog = campaign->logs.syslog;
  logs.hwerr = campaign->logs.hwerr;
  auto analysis = diver.Analyze(logs);
  if (!analysis.ok()) {
    std::cerr << "bench analysis failed: " << analysis.status().ToString()
              << "\n";
    std::exit(1);
  }

  return BenchCampaign{std::move(machine), std::move(*campaign),
                       std::move(*analysis)};
}

void PrintBenchHeader(const std::string& experiment,
                      const BenchOptions& options) {
  // First call arms the at-exit run manifest (EXPERIMENTS.md provenance
  // column points at these files); later calls just re-key it, so a
  // binary printing several tables emits one manifest under its last
  // experiment name.
  const char* manifest_dir = std::getenv("LD_MANIFEST_DIR");
  g_manifest_path = std::string(manifest_dir != nullptr && *manifest_dir != '\0'
                                    ? manifest_dir
                                    : ".") +
                    "/manifest_" + Slug(experiment) + ".json";
  if (g_manifest == nullptr) {
    g_manifest = std::make_unique<obs::ManifestBuilder>("bench");
    g_manifest->RecordEnv("LD_BENCH_APPS");
    g_manifest->RecordEnv("LD_BENCH_SEED");
    g_manifest->RecordEnv("LD_BENCH_BOOST");
    g_manifest->RecordEnv("LD_MANIFEST_DIR");
    std::atexit(WriteBenchManifest);
  }
  g_manifest->Set("experiment", experiment);
  g_manifest->SetUint("target_apps", options.target_apps);
  g_manifest->SetUint("seed", options.seed);
  if (options.large_bucket_boost != 1.0) {
    g_manifest->Set("large_bucket_boost",
                    std::to_string(options.large_bucket_boost));
  }
  std::cout << "=== " << experiment << " ===\n";
  std::cout << "campaign: " << options.target_apps
            << " application runs over 518 days on Blue Waters "
               "(22,640 XE + 4,224 XK), seed "
            << options.seed;
  if (options.large_bucket_boost != 1.0) {
    std::cout << ", large-bucket boost x" << options.large_bucket_boost;
  }
  std::cout << "\n";
  std::cout << "(counts scale with LD_BENCH_APPS; fractions, probabilities "
               "and curve shapes are scale-invariant)\n\n";
}

}  // namespace ld::bench
