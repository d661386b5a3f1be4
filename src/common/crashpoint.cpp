#include "common/crashpoint.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace ld {
namespace {

// Countdown state.  Atomic because the multi-tenant service ticks
// boundaries from many shard worker threads concurrently; exactly one
// thread must observe the countdown reaching zero.  The remaining
// counters keep decrementing past zero on later hits — only the exact
// transition fires.
std::atomic<bool> g_armed{false};
std::atomic<std::int64_t> g_remaining{0};
std::atomic<bool> g_hang_armed{false};
std::atomic<std::int64_t> g_hang_remaining{0};
std::atomic<bool> g_truncate_partial{false};
std::once_flag g_env_once;

std::uint64_t ParseCount(const char* value) {
  if (value == nullptr || *value == '\0') return 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0') return 0;
  return n;
}

void MaybeInitFromEnv() {
  std::call_once(g_env_once, [] {
    if (const std::uint64_t n = ParseCount(std::getenv(kCrashAfterEnv))) {
      g_remaining.store(static_cast<std::int64_t>(n));
      g_armed.store(true);
    }
    if (const std::uint64_t n = ParseCount(std::getenv(kHangAfterEnv))) {
      g_hang_remaining.store(static_cast<std::int64_t>(n));
      g_hang_armed.store(true);
    }
    const char* trunc = std::getenv(kTruncatePartialEnv);
    if (trunc != nullptr && *trunc != '\0' &&
        !(trunc[0] == '0' && trunc[1] == '\0')) {
      g_truncate_partial.store(true);
    }
  });
}

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

void ArmCrashPoint(std::uint64_t after) {
  MaybeInitFromEnv();  // settle the env first; programmatic wins after
  g_remaining.store(static_cast<std::int64_t>(after));
  g_armed.store(after != 0);
}

void DisarmCrashPoint() {
  MaybeInitFromEnv();
  g_armed.store(false);
  g_remaining.store(0);
}

bool CrashPointArmed() {
  MaybeInitFromEnv();
  return g_armed.load();
}

std::uint64_t CrashPointRemaining() {
  MaybeInitFromEnv();
  if (!g_armed.load()) return 0;
  const std::int64_t left = g_remaining.load();
  return left > 0 ? static_cast<std::uint64_t>(left) : 0;
}

void ArmHangPoint(std::uint64_t after) {
  MaybeInitFromEnv();
  g_hang_remaining.store(static_cast<std::int64_t>(after));
  g_hang_armed.store(after != 0);
}

void ArmTruncatePartial(bool armed) {
  MaybeInitFromEnv();
  g_truncate_partial.store(armed);
}

bool TruncatePartialArmed() {
  MaybeInitFromEnv();
  return g_truncate_partial.load();
}

std::uint64_t DelayForBoundary(std::uint64_t index, std::uint64_t mean_ms,
                               std::uint64_t seed) {
  if (mean_ms == 0) mean_ms = 1;
  // Uniform in [mean/2, 3*mean/2], never below 1 ms, as a deterministic
  // function of (seed, boundary index).
  const std::uint64_t span = mean_ms + 1;  // values mean/2 .. mean/2+mean
  const std::uint64_t draw = SplitMix64(seed ^ (index * 0x9E3779B97F4A7C15ull));
  const std::uint64_t ms = mean_ms / 2 + draw % span;
  return ms == 0 ? 1 : ms;
}

void CrashPoint(std::string_view tag) {
  MaybeInitFromEnv();
  if (g_armed.load(std::memory_order_relaxed) &&
      g_remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
    // Die like a power cut: no destructors, no stream flushing beyond
    // this one diagnostic line.
    std::fprintf(stderr, "[crashpoint] injected crash at boundary '%.*s'\n",
                 static_cast<int>(tag.size()), tag.data());
    std::fflush(stderr);
    std::_Exit(kCrashExitCode);
  }
  if (g_hang_armed.load(std::memory_order_relaxed) &&
      g_hang_remaining.fetch_sub(1, std::memory_order_relaxed) == 1) {
    // Stop making progress without dying: only SIGKILL (which pause()
    // cannot observe) gets the process unstuck, so a supervisor's
    // timeout escalation is the one recovery path.
    std::fprintf(stderr, "[crashpoint] injected hang at boundary '%.*s'\n",
                 static_cast<int>(tag.size()), tag.data());
    std::fflush(stderr);
    for (;;) ::pause();
  }
}

}  // namespace ld
