#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ld {
namespace {

inline std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t HashString(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& w : state_) w = SplitMix64(sm);
}

std::uint64_t Rng::NextU64() {
  // xoshiro256**
  const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = Rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::UniformInt(std::uint64_t n) {
  if (n == 0) throw std::invalid_argument("UniformInt(0)");
  // Lemire-style rejection to kill modulo bias.
  const std::uint64_t threshold = -n % n;
  for (;;) {
    const std::uint64_t r = NextU64();
    if (r >= threshold) return r % n;
  }
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("UniformInt: lo > hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(NextU64());  // full range
  return lo + static_cast<std::int64_t>(UniformInt(span));
}

double Rng::UniformDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1;
  do {
    u1 = UniformDouble();
  } while (u1 <= 0.0);
  const double u2 = UniformDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::Normal(double mean, double stddev) {
  return mean + stddev * Normal();
}

double Rng::Exponential(double rate) {
  if (rate <= 0.0) throw std::invalid_argument("Exponential: rate <= 0");
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

double Rng::Weibull(double shape, double scale) {
  if (shape <= 0.0 || scale <= 0.0) {
    throw std::invalid_argument("Weibull: shape/scale <= 0");
  }
  double u;
  do {
    u = UniformDouble();
  } while (u <= 0.0);
  return scale * std::pow(-std::log(u), 1.0 / shape);
}

double Rng::LogNormal(double mu, double sigma) {
  return std::exp(Normal(mu, sigma));
}

std::uint64_t Rng::Poisson(double mean) {
  if (mean < 0.0) throw std::invalid_argument("Poisson: mean < 0");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Knuth's multiplicative method.
    const double limit = std::exp(-mean);
    std::uint64_t k = 0;
    double p = 1.0;
    do {
      ++k;
      p *= UniformDouble();
    } while (p > limit);
    return k - 1;
  }
  // Normal approximation with continuity correction; adequate for the
  // event-count draws the simulator uses at large means.
  const double x = Normal(mean, std::sqrt(mean));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("WeightedIndex: negative weight");
    total += w;
  }
  if (total <= 0.0) throw std::invalid_argument("WeightedIndex: zero total");
  double target = UniformDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point edge
}

Rng Rng::Fork(std::string_view tag) const {
  std::uint64_t mix = lineage_ ^ Rotl(HashString(tag), 23);
  SplitMix64(mix);  // decorrelate
  return Rng(mix);
}

ZipfSampler::ZipfSampler(std::size_t n, double alpha) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
    cdf_[i] = sum;
  }
  for (auto& v : cdf_) v /= sum;
  cdf_.back() = 1.0;  // guard against rounding
}

std::size_t ZipfSampler::Sample(Rng& rng) const {
  const double u = rng.UniformDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(it - cdf_.begin()) + 1;
}

}  // namespace ld
