#include "common/obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <chrono>

namespace ld::obs {

void Gauge::Set(std::int64_t v) {
  value_.store(v, std::memory_order_relaxed);
  std::int64_t seen = max_.load(std::memory_order_relaxed);
  while (v > seen &&
         !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
  }
}

void Gauge::Reset() {
  value_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

int Histogram::BucketFor(std::uint64_t v) {
  if (v == 0) return 0;
  return std::min(static_cast<int>(std::bit_width(v)), kBuckets - 1);
}

std::uint64_t Histogram::BucketUpperBound(int b) {
  if (b <= 0) return 1;
  if (b >= kBuckets - 1) return ~std::uint64_t{0};
  return std::uint64_t{1} << b;
}

void Histogram::Record(std::uint64_t v) {
  buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

const char* MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
  }
  return "unknown";
}

Registry& Registry::Get() {
  // Leaked on purpose: metrics can be recorded from atexit hooks and
  // detached threads; destruction order would be a liability.
  static Registry* registry = new Registry();
  return *registry;
}

namespace {

template <typename Metric, typename List>
Metric& FindOrCreate(List& list, std::string_view name, std::mutex& mu) {
  std::lock_guard<std::mutex> lock(mu);
  for (auto& [existing, metric] : list) {
    if (existing == name) return *metric;
  }
  list.emplace_back(std::string(name), std::make_unique<Metric>());
  return *list.back().second;
}

}  // namespace

Counter& Registry::GetCounter(std::string_view name) {
  return FindOrCreate<Counter>(counters_, name, mu_);
}

Gauge& Registry::GetGauge(std::string_view name) {
  return FindOrCreate<Gauge>(gauges_, name, mu_);
}

Histogram& Registry::GetHistogram(std::string_view name) {
  return FindOrCreate<Histogram>(histograms_, name, mu_);
}

std::vector<MetricSnapshot> Registry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.reserve(counters_.size() + gauges_.size() + histograms_.size());
    for (const auto& [name, counter] : counters_) {
      MetricSnapshot snap;
      snap.name = name;
      snap.type = MetricType::kCounter;
      snap.count = counter->Value();
      out.push_back(std::move(snap));
    }
    for (const auto& [name, gauge] : gauges_) {
      MetricSnapshot snap;
      snap.name = name;
      snap.type = MetricType::kGauge;
      snap.gauge_value = gauge->Value();
      snap.gauge_max = gauge->Max();
      out.push_back(std::move(snap));
    }
    for (const auto& [name, hist] : histograms_) {
      MetricSnapshot snap;
      snap.name = name;
      snap.type = MetricType::kHistogram;
      snap.count = hist->Count();
      snap.sum = hist->Sum();
      for (int b = 0; b < Histogram::kBuckets; ++b) {
        const std::uint64_t n = hist->BucketCount(b);
        if (n != 0) snap.buckets.emplace_back(Histogram::BucketUpperBound(b), n);
      }
      out.push_back(std::move(snap));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void Registry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, hist] : histograms_) hist->Reset();
}

std::uint64_t NowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t NowMicros() { return NowNanos() / 1000; }

}  // namespace ld::obs
