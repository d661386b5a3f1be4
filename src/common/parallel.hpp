// Deterministic parallel-execution primitives for the ingestion engine.
//
// The design constraint is bit-identical output: callers split work into
// chunks whose processing is a pure function of the chunk, run the chunks
// on a fixed-size ThreadPool, and reduce the results in original chunk
// order.  Thread count and scheduling can then never change what is
// computed — only how fast (see DESIGN.md "Parallel ingestion").
//
// Nested use is not supported: a task running on the pool must not wait
// on another TaskGroup of the same pool (a single-thread pool would
// deadlock).  All ParallelFor/ParallelMap calls happen from the thread
// that owns the pool.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
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
  /// A queued task plus its enqueue time (0 when observability is
  /// inactive, so the drain side knows not to record a wait).
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

}  // namespace ld
