// The shared supervised-child loop, driven directly: concurrent
// children with mixed fates, and an abort that must leave no child
// behind.  The crash-restart driver and the fleet are judges over this
// loop (resume_test's CrashSupervisorTest, fleet_test's
// FleetEndToEndTest).
#include "common/supervise.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <vector>

#include "common/crashpoint.hpp"

namespace ld {
namespace {

struct Tally {
  int attempts = 0;
  int crashes = 0;
  int hangs = 0;
  int last_code = -1;
};

/// Parks the child until a SIGKILL ends it.
[[noreturn]] void HangForever() {
  for (;;) ::pause();
}

TEST(SuperviseTest, ConcurrentChildrenAreJudgedOneByOne) {
  // Child 0 crashes once, child 1 hangs past the deadline once, child 2
  // exits cleanly at once; crashes and hangs are retried.
  std::vector<Tally> tally(3);
  const Status status = Supervise(
      3, /*timeout_ms=*/300,
      [](std::size_t child, int attempt) -> int {
        if (attempt == 0 && child == 0) return kCrashExitCode;
        if (attempt == 0 && child == 1) HangForever();
        return 0;
      },
      [&](std::size_t child, int attempt,
          const ChildExit& exit) -> Result<Next> {
        Tally& t = tally[child];
        t.attempts = attempt + 1;
        t.last_code = exit.code;
        if (exit.hung) ++t.hangs;
        if (!exit.crashed) return Next::kDone;
        ++t.crashes;
        return Next::kRetry;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();

  EXPECT_EQ(tally[0].attempts, 2);
  EXPECT_EQ(tally[0].crashes, 1);
  EXPECT_EQ(tally[0].hangs, 0);
  EXPECT_EQ(tally[1].attempts, 2);
  EXPECT_EQ(tally[1].crashes, 1);
  EXPECT_EQ(tally[1].hangs, 1);
  EXPECT_EQ(tally[2].attempts, 1);
  EXPECT_EQ(tally[2].crashes, 0);
  EXPECT_EQ(tally[2].hangs, 0);
  for (const Tally& t : tally) EXPECT_EQ(t.last_code, 0);
}

TEST(SuperviseTest, ExitsAreClassifiedOnce) {
  // A signal death reads as 128 + signal; an exit code >= 128 is a
  // crash; anything below is an ordinary exit.
  std::vector<ChildExit> exits(3);
  const Status status = Supervise(
      3, /*timeout_ms=*/0,
      [](std::size_t child, int) -> int {
        if (child == 0) ::raise(SIGTERM);
        return child == 1 ? 200 : 3;
      },
      [&](std::size_t child, int, const ChildExit& exit) -> Result<Next> {
        exits[child] = exit;
        return Next::kDone;
      });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(exits[0].code, 128 + SIGTERM);
  EXPECT_TRUE(exits[0].crashed);
  EXPECT_EQ(exits[1].code, 200);
  EXPECT_TRUE(exits[1].crashed);
  EXPECT_EQ(exits[2].code, 3);
  EXPECT_FALSE(exits[2].crashed);
  for (const ChildExit& exit : exits) EXPECT_FALSE(exit.hung);
}

TEST(SuperviseTest, AbortReapsEveryRunningChild) {
  // Child 0 hangs far past the test; child 1 exits ordinarily and the
  // judge aborts on it.  The error comes back, and no child of this
  // process may remain, running or zombie.
  const Status status = Supervise(
      2, /*timeout_ms=*/60000,
      [](std::size_t child, int) -> int {
        if (child == 0) HangForever();
        return 3;
      },
      [](std::size_t child, int, const ChildExit& exit) -> Result<Next> {
        if (child == 1 && exit.code == 3) {
          return FailedPreconditionError("child 1 failed");
        }
        return Next::kDone;
      });
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(status.message(), "child 1 failed");
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

}  // namespace
}  // namespace ld
