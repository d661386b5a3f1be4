#include "common/supervise.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ld {
namespace {

using Clock = std::chrono::steady_clock;

struct Slot {
  pid_t pid = -1;  // -1 while no child of this slot is running
  int attempt = 0;
  Clock::time_point deadline{};
};

ChildExit Classify(int status, bool hung) {
  ChildExit exit;
  exit.hung = hung;
  if (WIFSIGNALED(status)) {
    exit.code = 128 + WTERMSIG(status);
  } else {
    exit.code = WEXITSTATUS(status);
  }
  // Injected crashes exit with 128 + signal, like a real signal death.
  exit.crashed = hung || exit.code >= 128;
  return exit;
}

}  // namespace

Status Supervise(std::size_t count, std::uint64_t timeout_ms,
                 const ChildBody& run, const ChildJudge& judge) {
  std::vector<Slot> slots(count);

  const auto launch = [&](std::size_t i) -> Status {
    Slot& slot = slots[i];
    // Flush so the child does not replay the parent's buffered output
    // when it exits.
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    if (pid < 0) {
      return InternalError("supervise: fork failed for child " +
                           std::to_string(i));
    }
    if (pid == 0) {
      const int rc = run(i, slot.attempt);
      std::fflush(nullptr);
      std::_Exit(rc);
    }
    slot.pid = pid;
    slot.deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
    return Status::Ok();
  };

  // Every failure leaves through here, so no error return skips the
  // reap.
  const auto fail = [&](Status status) {
    for (Slot& slot : slots) {
      if (slot.pid <= 0) continue;
      ::kill(slot.pid, SIGKILL);
      int ignored = 0;
      ::waitpid(slot.pid, &ignored, 0);
      slot.pid = -1;
    }
    return status;
  };

  for (std::size_t i = 0; i < count; ++i) {
    const Status launched = launch(i);
    if (!launched.ok()) return fail(launched);
  }
  std::size_t running = count;
  while (running > 0) {
    // A lone child with no deadline can only be waited for: block.
    const bool block = timeout_ms == 0 && running == 1;
    for (std::size_t i = 0; i < count; ++i) {
      Slot& slot = slots[i];
      if (slot.pid <= 0) continue;
      int status = 0;
      pid_t r = ::waitpid(slot.pid, &status, block ? 0 : WNOHANG);
      const bool hung =
          r == 0 && timeout_ms != 0 && Clock::now() >= slot.deadline;
      if (r == 0 && !hung) continue;
      if (hung) {
        ::kill(slot.pid, SIGKILL);
        r = ::waitpid(slot.pid, &status, 0);
      }
      if (r < 0) {
        slot.pid = -1;  // not ours to kill any more
        return fail(InternalError("supervise: waitpid failed for child " +
                                  std::to_string(i)));
      }
      slot.pid = -1;
      const Result<Next> next = judge(i, slot.attempt, Classify(status, hung));
      if (!next.ok()) return fail(next.status());
      if (*next == Next::kDone) {
        --running;
        continue;
      }
      ++slot.attempt;
      const Status relaunched = launch(i);
      if (!relaunched.ok()) return fail(relaunched);
    }
    if (running > 0 && !block) ::usleep(2000);
  }
  return Status::Ok();
}

}  // namespace ld
