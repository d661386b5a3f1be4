#include "common/parallel.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/obs/obs.hpp"

namespace ld {

int DefaultThreadCount() {
  if (const char* env = std::getenv("LOGDIVER_THREADS");
      env != nullptr && *env != '\0') {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<int>(std::min<long>(v, 256));
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int configured) {
  return configured > 0 ? configured : DefaultThreadCount();
}

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads);
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back({std::move(task), obs::NowNanos()});
    depth = queue_.size();
  }
  LD_OBS_COUNTER_ADD(obs::names::kPoolTasksTotal, 1);
  LD_OBS_GAUGE_SET(obs::names::kPoolQueueDepth,
                   static_cast<std::int64_t>(depth));
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    std::size_t depth;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
      depth = queue_.size();
    }
    LD_OBS_GAUGE_SET(obs::names::kPoolQueueDepth,
                     static_cast<std::int64_t>(depth));
    const std::uint64_t start_ns = obs::NowNanos();
    LD_OBS_HIST_RECORD(obs::names::kPoolWaitMicros,
                       (start_ns - task.enqueue_ns) / 1000);
    task.fn();
    LD_OBS_HIST_RECORD(obs::names::kPoolRunMicros,
                       (obs::NowNanos() - start_ns) / 1000);
  }
}

TaskGroup::~TaskGroup() {
  // Destruction must not throw: drain the tasks but drop any exception
  // (a caller who cares calls Wait() explicitly first).
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::Run(std::function<void()> fn) {
  if (pool_ == nullptr || pool_->size() <= 1) {
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, fn = std::move(fn)] {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    Finish(error);
  });
}

void TaskGroup::Finish(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(mu_);
  if (error != nullptr && first_error_ == nullptr) first_error_ = error;
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

std::vector<IndexRange> ChunkRanges(std::size_t n, std::size_t chunk) {
  if (chunk == 0) chunk = 1;
  std::vector<IndexRange> ranges;
  ranges.reserve(n / chunk + 1);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    ranges.push_back({begin, std::min(n, begin + chunk)});
  }
  return ranges;
}

}  // namespace ld
