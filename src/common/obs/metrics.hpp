// Self-observability: the metrics registry (counters, gauges, log2
// histograms).
//
// The pipeline measures other systems' resilience; this registry is how
// it measures itself (monitoring as a structural pattern — Hukerikar &
// Engelmann, ORNL/TM-2016/687).  Design constraints, in order:
//
//   1. Recording cost must stay out of the wall time.  Every metric is
//      a handful of relaxed atomics — no locks on the recording path —
//      and instrumentation sites record per parse block, stage, file or
//      pool task, never per line.  Call sites use the LD_OBS_* macros
//      from obs.hpp, which cache the registry lookup per site.
//   2. Stable names.  Every metric name lives in names.hpp and is
//      documented in docs/OBSERVABILITY.md; tools/check_metric_docs.py
//      fails CI when the two drift.
//
// Metrics are created on first use and live for the process: references
// handed out by the registry are never invalidated (Reset() zeroes
// values in place, it does not deallocate), so call sites may cache
// them in function-local statics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ld::obs {

/// Monotonically increasing count: one relaxed atomic.
class Counter {
 public:
  void Add(std::uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written value plus a high-water mark.  Set() stores and folds
/// the max; cheap enough for per-task queue-depth tracking.
class Gauge {
 public:
  void Set(std::int64_t v);
  std::int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t Max() const { return max_.load(std::memory_order_relaxed); }
  void Reset();

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed log2-bucketed histogram of non-negative values (typically
/// microseconds or bytes).  Bucket 0 holds exact zeros; bucket i
/// (1 <= i < kBuckets) holds values in [2^(i-1), 2^i); the last bucket
/// also absorbs everything at or above 2^(kBuckets-2).  Count and sum
/// are tracked so snapshots can report a mean.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void Record(std::uint64_t v);

  /// Bucket index a value lands in (0 for 0, else bit_width(v), capped).
  static int BucketFor(std::uint64_t v);
  /// Exclusive upper bound of bucket `b` (lower bound of bucket b + 1);
  /// bucket 0 covers only the value 0, so its upper bound is 1.
  static std::uint64_t BucketUpperBound(int b);

  std::uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t BucketCount(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }
  void Reset();

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Point-in-time value of one metric, as produced by Registry::Snapshot.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  /// Counter value, or histogram observation count.
  std::uint64_t count = 0;
  /// Histogram sum of recorded values (0 for other types).
  std::uint64_t sum = 0;
  std::int64_t gauge_value = 0;
  std::int64_t gauge_max = 0;
  /// Non-empty buckets only: (exclusive upper bound, count).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
};

/// Process-wide metric registry.  Lookup takes a mutex (call sites cache
/// the returned reference in a static); recording never does.
class Registry {
 public:
  static Registry& Get();

  Counter& GetCounter(std::string_view name);
  Gauge& GetGauge(std::string_view name);
  Histogram& GetHistogram(std::string_view name);

  /// Values of every registered metric, sorted by name.
  std::vector<MetricSnapshot> Snapshot() const;

  /// Zeroes every metric in place.  References stay valid; intended for
  /// tests and for benches that want a per-run dump.
  void Reset();

 private:
  Registry() = default;

  mutable std::mutex mu_;
  // node-based maps: references must survive later insertions.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// Monotonic clock in microseconds / nanoseconds (steady_clock), the
/// time base shared by histograms and the tracer.
std::uint64_t NowMicros();
std::uint64_t NowNanos();

}  // namespace ld::obs
