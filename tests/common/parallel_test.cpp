#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/obs/metrics.hpp"
#include "common/obs/names.hpp"

namespace ld {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    TaskGroup group(&pool);
    for (int i = 0; i < 100; ++i) {
      group.Run([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    group.Wait();
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, RecordsEveryTaskInThePoolMetrics) {
  obs::Registry& registry = obs::Registry::Get();
  const obs::Counter& tasks = registry.GetCounter(obs::names::kPoolTasksTotal);
  const obs::Histogram& waits =
      registry.GetHistogram(obs::names::kPoolWaitMicros);
  const obs::Histogram& runs = registry.GetHistogram(obs::names::kPoolRunMicros);
  const std::uint64_t tasks_before = tasks.Value();
  const std::uint64_t waits_before = waits.Count();
  const std::uint64_t runs_before = runs.Count();
  constexpr std::uint64_t kTasks = 37;
  std::atomic<std::uint64_t> ran{0};
  {
    ThreadPool pool(2);
    for (std::uint64_t i = 0; i < kTasks; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // joining the workers finishes every task and its samples
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_EQ(tasks.Value() - tasks_before, kTasks);
  EXPECT_EQ(waits.Count() - waits_before, kTasks);
  EXPECT_EQ(runs.Count() - runs_before, kTasks);
}

TEST(ThreadPool, GroupWaitRethrowsFirstTaskException) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 8; ++i) {
    group.Run([i] {
      if (i == 3) throw std::runtime_error("task 3 failed");
    });
  }
  EXPECT_THROW(group.Wait(), std::runtime_error);
}

TEST(ThreadPool, NullPoolRunsInline) {
  TaskGroup group(nullptr);
  int calls = 0;
  group.Run([&calls] { ++calls; });
  group.Run([&calls] { ++calls; });
  group.Wait();
  EXPECT_EQ(calls, 2);
}

TEST(Parallel, ForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(), [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, MapKeepsIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      ParallelMap(&pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, MapWithoutPoolMatchesWithPool) {
  ThreadPool pool(3);
  const auto serial =
      ParallelMap(nullptr, 100, [](std::size_t i) { return 3 * i + 1; });
  const auto parallel =
      ParallelMap(&pool, 100, [](std::size_t i) { return 3 * i + 1; });
  EXPECT_EQ(serial, parallel);
}

TEST(Parallel, ChunkRangesTileExactly) {
  const auto ranges = ChunkRanges(10, 3);
  ASSERT_EQ(ranges.size(), 4u);
  std::size_t expected_begin = 0;
  std::size_t total = 0;
  for (const IndexRange& r : ranges) {
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LE(r.size(), 3u);
    expected_begin = r.end;
    total += r.size();
  }
  EXPECT_EQ(total, 10u);
  EXPECT_TRUE(ChunkRanges(0, 3).empty());
  // chunk = 0 is treated as 1, not an infinite loop.
  EXPECT_EQ(ChunkRanges(2, 0).size(), 2u);
}

TEST(Parallel, ResolveThreadCount) {
  EXPECT_EQ(ResolveThreadCount(4), 4);
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_GE(ResolveThreadCount(0), 1);
  EXPECT_GE(ResolveThreadCount(-2), 1);
}

TEST(Parallel, DefaultThreadCountReadsEnvOverride) {
  ::setenv("LOGDIVER_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3);
  ::setenv("LOGDIVER_THREADS", "not-a-number", 1);
  EXPECT_GE(DefaultThreadCount(), 1);  // falls back to hardware
  ::unsetenv("LOGDIVER_THREADS");
  EXPECT_GE(DefaultThreadCount(), 1);
}

// --- OrderedAhead: items made ahead on a pool, taken in order ---------

/// A pure item with an owning payload, so a buffer slot read before its
/// block is made (or after it is reused) shows as a wrong string, and
/// under ASan as a use of freed memory.
std::string Item(std::size_t i) {
  return "item-" + std::to_string(i * 7919 % 100003);
}

/// The pools the suite runs at: none, then 1-4 threads (one thread is
/// the inline path, like none).
std::vector<std::unique_ptr<ThreadPool>> Pools() {
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (int threads = 1; threads <= 4; ++threads) {
    pools.push_back(std::make_unique<ThreadPool>(threads));
  }
  return pools;
}

TEST(ParallelOrderedAhead, TakesEveryItemInOrderAtAnyDepthAndPool) {
  // Ranges that start mid-block (a resumed replay) and end mid-block,
  // empty and shorter than one block.
  const std::size_t ranges[][2] = {{0, 5 * kParseAheadLines + 17},
                                   {kParseAheadLines - 3, 4 * kParseAheadLines},
                                   {0, 10},
                                   {7, 7}};
  for (const auto& pool : Pools()) {
    const int threads = pool == nullptr ? 0 : pool->size();
    for (const std::size_t depth : {2, 3, 5}) {
      for (const auto& range : ranges) {
        OrderedAhead ahead(pool.get(), depth, range[0], range[1], Item);
        for (std::size_t i = range[0]; i < range[1]; ++i) {
          ASSERT_EQ(ahead.Take(i), Item(i))
              << "threads=" << threads << " depth=" << depth << " i=" << i;
        }
      }
    }
  }
}

TEST(ParallelOrderedAhead, DestroyedWithBlocksInFlightDrainsThem) {
  // The consumer stops early — mid-block, at a block edge, before the
  // first Take — while up to `depth` blocks are still being made into
  // buffers the destructor frees.
  ThreadPool pool(4);
  std::atomic<std::size_t> made{0};
  const auto produce = [&made](std::size_t i) {
    made.fetch_add(1, std::memory_order_relaxed);
    return Item(i);
  };
  for (const std::size_t taken :
       {std::size_t{0}, kParseAheadLines / 2, 2 * kParseAheadLines}) {
    made = 0;
    {
      OrderedAhead ahead(&pool, 5, 0, 40 * kParseAheadLines, produce);
      for (std::size_t i = 0; i < taken; ++i) ASSERT_EQ(ahead.Take(i), Item(i));
    }
    // Only blocks within `depth` of the consumer were ever started.
    EXPECT_LE(made.load(), (taken / kParseAheadLines + 5) * kParseAheadLines);
  }
}

TEST(ParallelOrderedAhead, ProducerExceptionSurfacesAtTake) {
  // Item 3000 throws.  Inline, its own Take throws; ahead, the Take of
  // its block's first item does (the block's task stopped there).
  const std::size_t bad = 3000;
  const auto produce = [bad](std::size_t i) {
    if (i == bad) throw std::runtime_error("item 3000 failed");
    return Item(i);
  };
  for (const auto& pool : Pools()) {
    const bool ahead_on_pool = pool != nullptr && pool->size() > 1;
    const std::size_t throws_at =
        ahead_on_pool ? bad / kParseAheadLines * kParseAheadLines : bad;
    OrderedAhead ahead(pool.get(), 2, 0, 4 * kParseAheadLines, produce);
    std::optional<std::size_t> thrown;
    for (std::size_t i = 0; i < 4 * kParseAheadLines && !thrown; ++i) {
      try {
        EXPECT_EQ(ahead.Take(i), Item(i));
      } catch (const std::runtime_error&) {
        thrown = i;
      }
    }
    ASSERT_TRUE(thrown.has_value());
    EXPECT_EQ(*thrown, throws_at);
  }
}

}  // namespace
}  // namespace ld
