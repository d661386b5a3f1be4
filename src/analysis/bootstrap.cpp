#include "analysis/bootstrap.hpp"

#include <algorithm>

#include "common/obs/names.hpp"
#include "common/obs/obs.hpp"
#include "common/parallel.hpp"
#include "common/stats.hpp"

namespace ld {

Result<BootstrapCi> BootstrapRatioCi(const std::vector<double>& numerator,
                                     const std::vector<double>& denominator,
                                     std::uint32_t replicas, Rng& rng,
                                     ThreadPool* pool) {
  if (numerator.size() != denominator.size() || numerator.empty()) {
    return InvalidArgumentError("BootstrapRatioCi: mismatched/empty inputs");
  }
  if (replicas == 0) {
    return InvalidArgumentError("BootstrapRatioCi: need replicas > 0");
  }
  const std::uint64_t start_ns = obs::NowNanos();
  double num_total = 0.0, den_total = 0.0;
  for (std::size_t i = 0; i < numerator.size(); ++i) {
    num_total += numerator[i];
    den_total += denominator[i];
  }
  if (!(den_total > 0.0)) {
    return InvalidArgumentError("BootstrapRatioCi: zero denominator");
  }

  // Each replicate draws from its own counter-based stream: a pure
  // function of (one base draw from the caller's rng, replicate index).
  // The caller's rng advances by exactly one draw however many replicas
  // or threads there are, and replicate r picks the same indices whether
  // it runs inline, first, or last on a pool — so the CI is bit-identical
  // at any thread count.
  const std::uint64_t base_seed = rng.NextU64();
  const std::size_t n = numerator.size();
  std::vector<double> samples(replicas);
  ParallelFor(pool, replicas, [&](std::size_t r) {
    std::uint64_t state =
        base_seed + (static_cast<std::uint64_t>(r) + 1) * 0x9e3779b97f4a7c15ULL;
    Rng rep(SplitMix64(state));
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t pick = rep.UniformInt(n);
      num += numerator[pick];
      den += denominator[pick];
    }
    samples[r] = den > 0.0 ? num / den : 0.0;
  });

  BootstrapCi ci;
  ci.point = num_total / den_total;
  ci.lo = Quantile(samples, 0.025);
  ci.hi = Quantile(samples, 0.975);
  LD_OBS_COUNTER_ADD(obs::names::kBootstrapReplicasTotal, replicas);
  LD_OBS_HIST_RECORD(obs::names::kBootstrapTotalMicros,
                     (obs::NowNanos() - start_ns) / 1000);
  return ci;
}

Result<BootstrapCi> BootstrapLostShareCi(
    const std::vector<AppRun>& runs,
    const std::vector<ClassifiedRun>& classified, std::uint32_t replicas,
    Rng& rng, ThreadPool* pool) {
  std::vector<double> lost, consumed;
  lost.reserve(classified.size());
  consumed.reserve(classified.size());
  for (const ClassifiedRun& cls : classified) {
    const double nh = runs[cls.run_index].NodeHours();
    consumed.push_back(nh);
    lost.push_back(cls.outcome == AppOutcome::kSystemFailure ? nh : 0.0);
  }
  return BootstrapRatioCi(lost, consumed, replicas, rng, pool);
}

Result<BootstrapCi> BootstrapFailureFractionCi(
    const std::vector<AppRun>& runs,
    const std::vector<ClassifiedRun>& classified, std::uint32_t replicas,
    Rng& rng, ThreadPool* pool) {
  (void)runs;
  std::vector<double> failed(classified.size(), 0.0);
  std::vector<double> ones(classified.size(), 1.0);
  for (std::size_t i = 0; i < classified.size(); ++i) {
    if (classified[i].outcome == AppOutcome::kSystemFailure) failed[i] = 1.0;
  }
  return BootstrapRatioCi(failed, ones, replicas, rng, pool);
}

}  // namespace ld
