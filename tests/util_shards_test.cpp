// util/shards: the forked-shard runner under the lot and ROC studies.
//
// The runner only moves bytes, so these tests drive it with synthetic work:
// every slot's bytes must come back intact and in shard order whatever the
// finishing order, and each way a worker can fail — a nonzero exit, an
// exception, dying mid-write, SIGKILL — must empty that worker's slot and
// no other. The end-to-end containment proofs on real studies are
// LotShardCrash / LotSignals (tests/lot_test.cpp) and RocSignals
// (tests/scenario_test.cpp).
#include "util/shards.hpp"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace flashmark {
namespace {

using std::chrono::milliseconds;

/// Deterministic payload of `size` bytes for range [begin, end).
std::string payload(std::uint64_t begin, std::uint64_t end, std::size_t size) {
  std::string s = std::to_string(begin) + "-" + std::to_string(end) + ":";
  while (s.size() < size) s += static_cast<char>('a' + s.size() % 26);
  return s;
}

TEST(ForkedShards, BytesComeBackIntactAndInShardOrder) {
  // One element per slot, so slot s owns [s, s + 1). Slot 0 finishes last;
  // slot 2 sends more than a pipe buffer holds; slot 3 sends nothing at all
  // (an empty result is still a result).
  const std::size_t sizes[] = {64, 1000, 300'000, 0};
  int interrupted = -1;
  const auto slots = util::run_forked_shards(
      4, 4,
      [&](std::uint64_t begin, std::uint64_t end) {
        if (begin == 0) std::this_thread::sleep_for(milliseconds(200));
        if (begin == 3) return std::string();
        return payload(begin, end, sizes[begin]);
      },
      &interrupted);

  EXPECT_EQ(interrupted, 0);
  ASSERT_EQ(slots.size(), 4u);
  for (unsigned s = 0; s < 4; ++s) {
    ASSERT_TRUE(slots[s].has_value()) << s;
    EXPECT_EQ(*slots[s], s == 3 ? std::string() : payload(s, s + 1, sizes[s]))
        << s;
  }
}

TEST(ForkedShards, EachFailureLosesOnlyItsOwnSlot) {
  // 6 slots over 12 elements: range [2s, 2s + 2) for slot s.
  const auto slots = util::run_forked_shards(
      12, 6, [](std::uint64_t begin, std::uint64_t end) -> std::string {
        switch (begin / 2) {
          case 0:
            // Keeps the parent draining this pipe while slot 1 tears.
            std::this_thread::sleep_for(milliseconds(300));
            return payload(begin, end, 100);
          case 1: {
            // Dies mid-write: 1 MiB cannot fit the pipe while the parent is
            // still on slot 0, so the write blocks part-way and the process
            // exits under it, leaving a torn frame in the pipe.
            std::thread([] {
              std::this_thread::sleep_for(milliseconds(50));
              ::_exit(3);
            }).detach();
            return payload(begin, end, 1 << 20);
          }
          case 2:
            ::_exit(3);
          case 3:
            throw std::runtime_error("worker failed");
          case 4:
            std::raise(SIGKILL);
            return payload(begin, end, 10);  // not reached
          default:
            return payload(begin, end, 100);
        }
      });

  ASSERT_EQ(slots.size(), 6u);
  ASSERT_TRUE(slots[0].has_value());
  EXPECT_EQ(*slots[0], payload(0, 2, 100));
  EXPECT_FALSE(slots[1].has_value()) << "torn frame kept";
  EXPECT_FALSE(slots[2].has_value()) << "_exit(3) kept";
  EXPECT_FALSE(slots[3].has_value()) << "throwing worker kept";
  EXPECT_FALSE(slots[4].has_value()) << "SIGKILLed worker kept";
  ASSERT_TRUE(slots[5].has_value());
  EXPECT_EQ(*slots[5], payload(10, 12, 100));
}

// SIGTERM during a run: forwarded once to the workers' process group, every
// worker reaped before the call returns, every interrupted slot empty, and
// the signal reported. Runs in a forked child so the real kill(2) delivery
// and the reap happen end to end.
TEST(ForkedShards, SigtermIsForwardedAndEveryWorkerReaped) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Ignored outside the run; the runner installs its own flag handler for
    // the duration of the call, so the parent re-sends until one lands.
    std::signal(SIGTERM, SIG_IGN);
    int interrupted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    const auto slots = util::run_forked_shards(
        3, 3,
        [](std::uint64_t, std::uint64_t) -> std::string {
          for (;;) ::pause();  // only a signal ends this worker
        },
        &interrupted);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    int code = 0;
    if (interrupted != SIGTERM) code |= 1;
    for (const auto& s : slots)
      if (s.has_value()) code |= 2;
    // Every worker was reaped: this process has no child left.
    if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD) code |= 4;
    if (secs > 20.0) code |= 8;
    ::_exit(code);
  }

  int wstatus = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 300; ++i) {
    std::this_thread::sleep_for(milliseconds(100));
    ASSERT_EQ(::kill(child, SIGTERM), 0);
    reaped = ::waitpid(child, &wstatus, WNOHANG);
    ASSERT_GE(reaped, 0);
    if (reaped == child) break;
  }
  if (reaped != child) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &wstatus, 0);
    FAIL() << "child never exited";
  }
  ASSERT_TRUE(WIFEXITED(wstatus)) << wstatus;
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

// A pipe() failure after the first worker is forked: the call throws, and
// the worker it had already forked is killed and reaped and its pipe
// closed. Runs in a forked child, which lowers only its own open-file limit
// to leave room for exactly one pipe.
TEST(ForkedShards, SpawnFailureKillsAndReapsForkedWorkers) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // The lowest free fd and the one above it hold the first pipe; the
    // second pipe() then finds no free fd under the limit.
    const int low = ::dup(0);
    if (low < 0) ::_exit(32);
    ::close(low);
    if (::fcntl(low + 1, F_GETFD) != -1) ::_exit(32);
    rlimit lim{};
    if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(32);
    lim.rlim_cur = static_cast<rlim_t>(low + 2);
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) ::_exit(32);
    int code = 0;
    try {
      (void)util::run_forked_shards(
          3, 3, [](std::uint64_t, std::uint64_t) -> std::string {
            // Outlives the test unless the runner kills it.
            std::this_thread::sleep_for(std::chrono::seconds(20));
            return "late";
          });
      code |= 1;  // the spawn failure went unreported
    } catch (const std::runtime_error&) {
    }
    if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD) code |= 2;
    if (::fcntl(low, F_GETFD) != -1) code |= 4;  // first pipe still open
    ::_exit(code);
  }
  int wstatus = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 100; ++i) {
    reaped = ::waitpid(child, &wstatus, WNOHANG);
    ASSERT_GE(reaped, 0);
    if (reaped == child) break;
    std::this_thread::sleep_for(milliseconds(100));
  }
  if (reaped != child) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &wstatus, 0);
    FAIL() << "child never exited";
  }
  ASSERT_TRUE(WIFEXITED(wstatus)) << wstatus;
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

}  // namespace
}  // namespace flashmark
