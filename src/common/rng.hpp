// Deterministic pseudo-random generation for the simulation substrate.
//
// All stochastic components of the campaign simulator draw from Rng so a
// scenario is fully reproducible from a single 64-bit seed.  xoshiro256**
// is used for the stream (fast, passes BigCrush); splitmix64 expands the
// seed into the initial state and derives independent child streams.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace ld {

/// Stateless splitmix64 step; used for seeding and hashing.
std::uint64_t SplitMix64(std::uint64_t& state);

/// 64-bit FNV-1a over a string; for deriving per-entity substreams by name.
std::uint64_t HashString(std::string_view s);

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Uniform on [0, 2^64).
  std::uint64_t NextU64();
  /// Uniform on [0, n); n must be > 0.
  std::uint64_t UniformInt(std::uint64_t n);
  /// Uniform on [lo, hi] inclusive.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi);
  /// Uniform on [0, 1).
  double UniformDouble();
  /// Uniform on [lo, hi).
  double UniformDouble(double lo, double hi);
  /// True with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (cached pair).
  double Normal();
  double Normal(double mean, double stddev);
  /// Exponential with the given rate (mean 1/rate).
  double Exponential(double rate);
  /// Weibull with shape k and scale lambda.
  double Weibull(double shape, double scale);
  /// Lognormal: exp(Normal(mu, sigma)).
  double LogNormal(double mu, double sigma);
  /// Poisson-distributed count with the given mean (Knuth / normal approx.).
  std::uint64_t Poisson(double mean);

  /// Picks an index in [0, weights.size()) proportionally to weights.
  /// Weights must be non-negative with a positive sum.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  /// A child generator whose stream is independent of this one and a
  /// deterministic function of (this stream's seed lineage, tag).
  Rng Fork(std::string_view tag) const;

 private:
  std::uint64_t state_[4];
  std::uint64_t lineage_;  // seed lineage for Fork()
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf(α) sampler over ranks {1..n} with precomputed CDF; used for the
/// heavy-tailed user/app popularity mix in the workload generator.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double alpha);
  /// Rank in [1, n].
  std::size_t Sample(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace ld
