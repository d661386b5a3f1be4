// Deterministic fault injection at named code boundaries, for
// crash-recovery and fleet-resilience testing.
//
// A crash point is a named boundary in the code ("snapshot", "ingest")
// where a test may ask the process to misbehave.  Three fault kinds
// share the boundary:
//
//   * crash — the Nth boundary hit calls std::_Exit: no destructors, no
//     atexit, no flushing — the closest portable stand-in for a power
//     loss or OOM kill.
//   * hang — the Nth boundary hit stops making progress (a pause()
//     loop).  The process stays alive and ignorable-signal-free, so the
//     only way a supervisor recovers is its wall-clock timeout +
//     SIGKILL path — exactly what the fault exists to exercise.
//   * truncate-partial — a flag a fleet worker checks *after* writing
//     its partial snapshot; when set, the worker corrupts the file in
//     place and exits successfully.  This models the one torn-output
//     case atomic rename cannot prevent (bad disk, truncated copy on a
//     shared filesystem) and must be caught by the reader's CRC.
//
// DelayForBoundary() is the seeded slow-but-alive schedule logdiverd's
// `FAULT slow` applies per line; it is a pure function, not a boundary
// fault.
//
// Disarmed (the default), every CrashPoint() call is a branch on one
// bool and nothing more, so the hooks are safe to leave in production
// code paths.  The countdown state is atomic: the multi-tenant service
// ticks boundaries from many shard worker threads at once, and exactly
// one of them must win the fault.
//
// Arming is either programmatic (ArmCrashPoint / ArmHangPoint /
// ArmTruncatePartial) or via the environment variables LD_CRASH_AFTER,
// LD_HANG_AFTER and LD_TRUNCATE_PARTIAL, read once on first use — the
// env path is what lets a supervisor arm its *child* without a side
// channel.
#pragma once

#include <cstdint>
#include <string_view>

namespace ld {

/// Exit code used by an injected crash; chosen to look like SIGKILL
/// (128 + 9) so supervisors exercise their real crash-detection path.
inline constexpr int kCrashExitCode = 137;

/// Name of the environment variable carrying the crash countdown.
inline constexpr const char* kCrashAfterEnv = "LD_CRASH_AFTER";
/// Environment variable carrying the hang countdown.
inline constexpr const char* kHangAfterEnv = "LD_HANG_AFTER";
/// Environment variable flagging partial-truncation (any non-empty,
/// non-"0" value arms it).
inline constexpr const char* kTruncatePartialEnv = "LD_TRUNCATE_PARTIAL";

/// Arms the crash countdown: the `after`-th CrashPoint() call from now
/// dies.  `after` == 1 means the very next boundary.
void ArmCrashPoint(std::uint64_t after);

/// Disarms the crash countdown; it no longer fires at boundaries.
void DisarmCrashPoint();

/// True when a crash countdown is live (programmatic or from the env).
bool CrashPointArmed();

/// Boundaries left before the crash; 0 when disarmed.
std::uint64_t CrashPointRemaining();

/// Arms the hang countdown: the `after`-th CrashPoint() call from now
/// stops forever in a pause() loop (recoverable only by SIGKILL).
void ArmHangPoint(std::uint64_t after);

/// Arms/disarms the truncate-partial flag a fleet worker checks after
/// writing its partial snapshot.
void ArmTruncatePartial(bool armed = true);

/// True when the worker should corrupt its partial before exiting.
bool TruncatePartialArmed();

/// The delay (ms) for boundary number `index` (1-based) under the given
/// seed and mean: uniform in [mean_ms/2, 3*mean_ms/2], minimum 1 ms, and
/// a deterministic function of (seed, index).
std::uint64_t DelayForBoundary(std::uint64_t index, std::uint64_t mean_ms,
                               std::uint64_t seed);

/// Marks a fault boundary.  `tag` names the boundary in the diagnostic
/// written to stderr so campaign logs show *where* each injected fault
/// landed.  Both countdowns tick here; the crash countdown is checked
/// first when both expire on the same boundary.
void CrashPoint(std::string_view tag);

}  // namespace ld
