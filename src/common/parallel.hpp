// Deterministic parallel-execution primitives for the ingestion engine.
//
// The design constraint is bit-identical output: callers split work into
// pieces whose processing is a pure function of the piece, run them on a
// fixed-size ThreadPool, and consume the results in original order
// (ParallelMap's index-ordered slots, OrderedAhead's in-order Take).
// Thread count and scheduling can then never change what is computed —
// only how fast (see DESIGN.md "Parallel ingestion").
//
// Nested use is not supported: a task running on the pool must not wait
// on another TaskGroup of the same pool (a single-thread pool would
// deadlock).  All ParallelFor/ParallelMap calls happen from the thread
// that owns the pool.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace ld {

/// Thread count used when a config asks for "auto" (0): the
/// LOGDIVER_THREADS environment variable if set to a positive integer,
/// else std::thread::hardware_concurrency(), else 1.
int DefaultThreadCount();

/// Maps a configured thread count to an effective one: values <= 0 mean
/// auto (DefaultThreadCount), anything else is taken as-is.
int ResolveThreadCount(int configured);

/// A fixed-size pool of worker threads draining one FIFO task queue.
/// Construction spawns the workers; destruction drains nothing — it
/// stops accepting work, finishes tasks already started, and joins.
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task.  Must not be called after destruction began.
  void Submit(std::function<void()> task);

 private:
  /// A queued task plus its enqueue time (obs::NowNanos), from which
  /// the drain side records the task's queue wait.
  struct Task {
    std::function<void()> fn;
    std::uint64_t enqueue_ns = 0;
  };

  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<Task> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// The pool a configured thread count asks for: ResolveThreadCount
/// workers, or none when that is one thread and the caller runs inline
/// (get() is null then).
class ConfiguredPool {
 public:
  explicit ConfiguredPool(int configured) {
    const int threads = ResolveThreadCount(configured);
    if (threads > 1) pool_.emplace(threads);
  }
  ThreadPool* get() { return pool_ ? &*pool_ : nullptr; }

 private:
  std::optional<ThreadPool> pool_;
};

/// A batch of tasks whose completion can be awaited as a unit.  With a
/// null pool, Run() executes the task inline — the sequential path goes
/// through exactly the same code as the parallel one.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);

  /// Blocks until every Run() task finished.  The first exception thrown
  /// by a task (if any) is rethrown here, on the waiting thread.
  void Wait();

 private:
  void Finish(std::exception_ptr error);

  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  std::exception_ptr first_error_;
};

/// Runs fn(0..n-1); on a pool of size > 1 the indices run concurrently,
/// otherwise inline in index order.
template <typename Fn>
void ParallelFor(ThreadPool* pool, std::size_t n, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskGroup group(pool);
  for (std::size_t i = 0; i < n; ++i) {
    group.Run([&fn, i] { fn(i); });
  }
  group.Wait();
}

/// Ordered map: out[i] = fn(i), with fn calls potentially concurrent.
/// The result vector is always in index order regardless of scheduling.
template <typename Fn>
auto ParallelMap(ThreadPool* pool, std::size_t n, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  std::vector<decltype(fn(std::size_t{0}))> out(n);
  ParallelFor(pool, n, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// A half-open index range [begin, end).
struct IndexRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
};

/// Splits [0, n) into consecutive ranges of at most `chunk` items.
std::vector<IndexRange> ChunkRanges(std::size_t n, std::size_t chunk);

/// Items per OrderedAhead block: a pool task long enough to outweigh its
/// hand-off, while a block of parsed lines stays small (a few hundred
/// KiB) and its buffer is reused for the whole pass.
inline constexpr std::size_t kParseAheadLines = 1024;

/// Items [first, end) of a pure `produce(i)`, made ahead of the one
/// thread that takes them, in order.  On a pool of more than one thread
/// the items are made in blocks of kParseAheadLines, one pool task per
/// block, up to `depth` blocks ahead of Take; a consumed block's buffer
/// takes the block `depth` further on.  With a null or one-thread pool
/// there is no buffer and no task: Take makes its item inline.  Either
/// way item i is produce(i), so the pool changes no result.  An
/// exception thrown by `produce` surfaces at a Take: inline at the item
/// itself, ahead at the first item of its block.
template <typename Produce>
class OrderedAhead {
 public:
  using Item = std::invoke_result_t<const Produce&, std::size_t>;

  OrderedAhead(ThreadPool* pool, std::size_t depth, std::size_t first,
               std::size_t end, Produce produce)
      : first_(first), end_(end), produce_(std::move(produce)) {
    if (pool == nullptr || pool->size() <= 1) return;
    for (std::size_t k = 0; k < depth; ++k) blocks_.emplace_back(pool);
    for (std::size_t k = 0; k < depth; ++k) Submit(k);
  }
  OrderedAhead(const OrderedAhead&) = delete;
  OrderedAhead& operator=(const OrderedAhead&) = delete;

  /// Item `i`.  Items are taken in order from `first`, each once.
  Item Take(std::size_t i) {
    if (blocks_.empty()) return produce_(i);
    const std::size_t offset = i - first_;
    const std::size_t slot = offset % kParseAheadLines;
    if (slot == 0) {
      // Block k-1 is consumed: its buffer takes block k-1+depth.
      const std::size_t k = offset / kParseAheadLines;
      if (k > 0) Submit(k - 1 + blocks_.size());
      taking_ = &blocks_[k % blocks_.size()];
      taking_->producing.Wait();
    }
    return std::move(taking_->items[slot]);
  }

 private:
  struct Block {
    explicit Block(ThreadPool* pool) : producing(pool) {}
    std::vector<Item> items;
    /// Declared after `items`, so it drains an in-flight task before the
    /// buffer dies (a consumer that stops early, or throws).
    TaskGroup producing;
  };

  /// Starts making block `k` into its buffer; past the end, nothing.
  void Submit(std::size_t k) {
    const std::size_t begin = first_ + k * kParseAheadLines;
    if (begin >= end_) return;
    const std::size_t end = std::min(end_, begin + kParseAheadLines);
    Block& block = blocks_[k % blocks_.size()];
    block.producing.Run([this, &block, begin, end] {
      block.items.clear();
      for (std::size_t i = begin; i < end; ++i) {
        block.items.push_back(produce_(i));
      }
    });
  }

  std::size_t first_;
  std::size_t end_;
  Produce produce_;
  /// Declared after `produce_`: the blocks drain their tasks first.
  std::deque<Block> blocks_;
  /// The block Take reads from.
  Block* taking_ = nullptr;
};

}  // namespace ld
