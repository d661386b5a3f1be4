// Metrics registry: exactness under concurrency and histogram bucket
// geometry.
#include "common/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/obs/names.hpp"

namespace ld::obs {
namespace {

class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry::Get().Reset(); }
  void TearDown() override { Registry::Get().Reset(); }
};

TEST_F(ObsMetricsTest, ConcurrentIncrementsAggregateExactly) {
  Counter& counter = Registry::Get().GetCounter("test.concurrent_total");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Sharded cells must sum to the exact total — striping may not lose
  // or double increments.
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST_F(ObsMetricsTest, HistogramBucketEdges) {
  Histogram& hist = Registry::Get().GetHistogram("test.edges");
  // Bucket 0 is exactly zero; bucket i covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketFor(0), 0);
  EXPECT_EQ(Histogram::BucketFor(1), 1);
  EXPECT_EQ(Histogram::BucketFor(2), 2);
  EXPECT_EQ(Histogram::BucketFor(3), 2);
  EXPECT_EQ(Histogram::BucketFor(4), 3);
  EXPECT_EQ(Histogram::BucketFor(7), 3);
  EXPECT_EQ(Histogram::BucketFor(8), 4);
  EXPECT_EQ(Histogram::BucketFor((std::uint64_t{1} << 20) - 1), 20);
  EXPECT_EQ(Histogram::BucketFor(std::uint64_t{1} << 20), 21);
  EXPECT_EQ(Histogram::BucketFor(~std::uint64_t{0}), Histogram::kBuckets - 1);

  hist.Record(0);
  hist.Record(1);
  hist.Record(5);
  hist.Record(5);
  EXPECT_EQ(hist.Count(), 4u);
  EXPECT_EQ(hist.Sum(), 11u);
  EXPECT_EQ(hist.BucketCount(0), 1u);
  EXPECT_EQ(hist.BucketCount(1), 1u);
  EXPECT_EQ(hist.BucketCount(3), 2u);
}

TEST_F(ObsMetricsTest, HistogramUpperBoundsAreHalfOpen) {
  // BucketUpperBound(b) is the exclusive upper edge: every value in
  // bucket b is < it, and the bound itself lands in bucket b+1.
  for (int b = 1; b < 10; ++b) {
    const std::uint64_t bound = Histogram::BucketUpperBound(b);
    EXPECT_EQ(Histogram::BucketFor(bound - 1), b) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketFor(bound), b + 1) << "bucket " << b;
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kBuckets - 1),
            ~std::uint64_t{0});
}

TEST_F(ObsMetricsTest, GaugeTracksValueAndMax) {
  Gauge& gauge = Registry::Get().GetGauge("test.depth");
  gauge.Set(5);
  gauge.Set(12);
  gauge.Set(3);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.Max(), 12);
}

TEST_F(ObsMetricsTest, SnapshotIsSortedAndTyped) {
  Registry::Get().GetCounter("test.snap.b_total").Add(2);
  Registry::Get().GetGauge("test.snap.a_gauge").Set(7);
  Registry::Get().GetHistogram("test.snap.c_micros").Record(100);
  // The registry is process-wide and other suites register metrics too;
  // filter to this test's namespace (the full snapshot stays sorted, so
  // the filtered view is as well).
  std::vector<MetricSnapshot> snap;
  for (MetricSnapshot& m : Registry::Get().Snapshot()) {
    if (m.name.starts_with("test.snap.")) snap.push_back(std::move(m));
  }
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "test.snap.a_gauge");
  EXPECT_EQ(snap[0].type, MetricType::kGauge);
  EXPECT_EQ(snap[0].gauge_value, 7);
  EXPECT_EQ(snap[1].name, "test.snap.b_total");
  EXPECT_EQ(snap[1].type, MetricType::kCounter);
  EXPECT_EQ(snap[1].count, 2u);
  EXPECT_EQ(snap[2].name, "test.snap.c_micros");
  EXPECT_EQ(snap[2].type, MetricType::kHistogram);
  EXPECT_EQ(snap[2].count, 1u);
  EXPECT_EQ(snap[2].sum, 100u);
}

TEST_F(ObsMetricsTest, GetReturnsStableReferencesAcrossResets) {
  Counter& first = Registry::Get().GetCounter("test.stable_total");
  first.Add(9);
  Registry::Get().Reset();
  // Reset zeroes in place — the macro layer caches references in
  // function-local statics, so deallocation would be a use-after-free.
  EXPECT_EQ(first.Value(), 0u);
  Counter& again = Registry::Get().GetCounter("test.stable_total");
  EXPECT_EQ(&first, &again);
  again.Add(1);
  EXPECT_EQ(first.Value(), 1u);
}

TEST_F(ObsMetricsTest, CatalogNamesFollowTheNamingScheme) {
  // Counters end in _total; histograms in a unit suffix.  This pins the
  // convention documented in names.hpp for the names the pipeline uses.
  const std::string counters[] = {
      names::kIngestLinesTotal, names::kQuarantineAddedTotal,
      names::kPoolTasksTotal, names::kSnapshotWritesTotal};
  for (const std::string& name : counters) {
    EXPECT_TRUE(name.ends_with("_total")) << name;
    EXPECT_TRUE(name.starts_with("ld.")) << name;
  }
  const std::string histograms[] = {names::kAnalyzeTotalMicros,
                                    names::kPoolWaitMicros,
                                    names::kSnapshotWriteMicros};
  for (const std::string& name : histograms) {
    EXPECT_TRUE(name.ends_with("_micros")) << name;
  }
}

}  // namespace
}  // namespace ld::obs
