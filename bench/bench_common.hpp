// Shared campaign runner for the per-table/figure bench binaries.
//
// Every bench regenerates its data from the same calibrated scenario: a
// full Blue Waters machine and a campaign whose per-application
// statistics match the 5M-run field study, scaled down in *count* (the
// per-run failure probabilities are scale-invariant in the model, so the
// headline fractions and curves are preserved; see DESIGN.md).
//
// Environment knobs:
//   LD_BENCH_APPS   target application runs (default 250000)
//   LD_BENCH_SEED   campaign seed          (default 20130401)
//   LD_BENCH_BOOST  large-bucket oversampling for the scale benches
#pragma once

#include <cstdint>
#include <string>

#include "analysis/scoring.hpp"
#include "logdiver/logdiver.hpp"
#include "simlog/scenario.hpp"

namespace ld::bench {

struct BenchOptions {
  std::uint64_t target_apps = 250000;
  std::uint64_t seed = 20130401;
  double large_bucket_boost = 1.0;
};

/// Reads the unsigned integer in environment variable `name`, or
/// `fallback` when it is unset or empty.  Anything but plain decimal
/// digits prints "<name> expects ..., got '<value>'" and exits 2.
std::uint64_t EnvU64(const char* name, std::uint64_t fallback);
/// As EnvU64, for a finite decimal number.
double EnvDouble(const char* name, double fallback);

/// Reads the environment knobs over the given defaults.
BenchOptions OptionsFromEnv(BenchOptions defaults = {});

/// The scenario all benches share: full machine, 518-day campaign,
/// calibrated fault model.
ScenarioConfig BenchScenario(const BenchOptions& options);

struct BenchCampaign {
  Machine machine;
  Campaign campaign;
  AnalysisResult analysis;
};

/// Runs the simulation and the LogDiver pipeline; aborts the process on
/// error (benches have no recovery story).
BenchCampaign RunBench(const BenchOptions& options);

/// Standard header naming the experiment and the scale used.
void PrintBenchHeader(const std::string& experiment,
                      const BenchOptions& options);

}  // namespace ld::bench
