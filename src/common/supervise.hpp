// The one supervised-child loop behind every process supervisor in the
// tree: the crash-restart driver of `--snapshot-dir` (resume.hpp
// CrashSupervisor, one child) and the fork-per-shard fleet
// (fleet/supervisor.hpp ShardSupervisor, one child per shard).
//
// The loop owns detection and containment, following the resilience
// design patterns layering: it forks the children, decodes every exit
// once (a signal death or an exit code >= 128 is a crash), enforces a
// wall-clock deadline per attempt (SIGKILL, reap, report as hung — a
// hung child counts as crashed), and never returns with a child alive.
// Recovery is the caller's: a judge sees each exit and says whether
// the child is done, runs again at once, or ends the whole run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common/status.hpp"

namespace ld {

/// How one attempt of a supervised child ended.
struct ChildExit {
  /// The exit code, or 128 + signal number for a signal death.
  int code = 0;
  /// A signal death, an exit code >= 128, or a hang.
  bool crashed = false;
  /// Still running at the deadline: SIGKILLed and reaped.
  bool hung = false;
};

/// A judge's verdict on one exit.  An error verdict aborts the run.
enum class Next : std::uint8_t {
  kDone,   // this child is finished
  kRetry,  // run this child again, at once, with attempt + 1
};

/// `run(child, attempt)` executes in the forked process and its return
/// value becomes the exit code.
using ChildBody = std::function<int(std::size_t child, int attempt)>;
using ChildJudge = std::function<Result<Next>(std::size_t child, int attempt,
                                              const ChildExit& exit)>;

/// Forks children 0..count-1 at once (attempt 0), polls them on a 2 ms
/// tick — blocking in waitpid instead when one child is left and there
/// is no deadline — and asks `judge` about every exit.  `timeout_ms` is
/// the wall-clock budget of each attempt; 0 means no deadline.
///
/// Returns OK once every child is judged done.  An error verdict, or a
/// failed fork or waitpid, SIGKILLs and reaps every running child and
/// returns that error: no child outlives the call.
Status Supervise(std::size_t count, std::uint64_t timeout_ms,
                 const ChildBody& run, const ChildJudge& judge);

}  // namespace ld
