#include "util/shards.hpp"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <thread>

namespace flashmark::util {

namespace {

bool write_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// --- signal containment ---------------------------------------------------
// run_forked_shards installs flag-only SIGTERM/SIGINT handlers (no
// SA_RESTART, so the blocking drain read returns EINTR) for the duration of
// the run. On the first observed signal the parent forwards it to the
// workers' process group, drains what the pipes still hold, reaps with a
// bounded timeout (SIGKILL stragglers), and returns — the killed ranges come
// back as std::nullopt. A Ctrl-C'd 10^6-die study therefore dies cleanly in
// bounded time and leaves no orphans.

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

std::string read_all(int fd) {
  std::string out;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) {
        if (g_signal != 0) return out;  // interrupted: caller forwards + reaps
        continue;
      }
      return out;
    }
    if (n == 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// Reap `pid` waiting at most `timeout_ms`, then SIGKILL and wait for real.
void reap_bounded(pid_t pid, int* status, int timeout_ms) {
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const pid_t r = ::waitpid(pid, status, WNOHANG);
    if (r == pid) return;
    if (r < 0 && errno != EINTR) return;  // ECHILD: already reaped
    const double elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    if (elapsed > timeout_ms) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid, SIGKILL);
  pid_t r;
  do {
    r = ::waitpid(pid, status, 0);
  } while (r < 0 && errno == EINTR);
}

/// RAII for the parent's temporary signal disposition.
class ScopedSignalFlags {
 public:
  ScopedSignalFlags() {
    g_signal = 0;
    struct sigaction sa{};
    sa.sa_handler = on_signal;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;  // deliberately no SA_RESTART: reads must wake up
    ::sigaction(SIGTERM, &sa, &old_term_);
    ::sigaction(SIGINT, &sa, &old_int_);
  }
  ~ScopedSignalFlags() {
    ::sigaction(SIGTERM, &old_term_, nullptr);
    ::sigaction(SIGINT, &old_int_, nullptr);
  }

 private:
  struct sigaction old_term_{}, old_int_{};
};

}  // namespace

void shard_range(std::uint64_t n, unsigned slots, unsigned s,
                 std::uint64_t* begin, std::uint64_t* end) {
  const std::uint64_t base = n / slots;
  const std::uint64_t rem = n % slots;
  *begin = s * base + std::min<std::uint64_t>(s, rem);
  *end = *begin + base + (s < rem ? 1 : 0);
}

std::vector<std::optional<std::string>> run_forked_shards(
    std::uint64_t n, unsigned slots, const ShardWork& work,
    int* interrupted_signal) {
  struct Slot {
    pid_t pid = -1;
    int fd = -1;
  };
  std::vector<Slot> workers(slots);

  // Flag SIGTERM/SIGINT for the duration of the run (restored on return).
  ScopedSignalFlags signals;
  pid_t pgid = 0;  // the workers' own process group (first child's pid)

  for (unsigned s = 0; s < slots; ++s) {
    Slot& w = workers[s];
    if (g_signal != 0) break;  // interrupted mid-spawn: stop forking
    int fds[2];
    if (::pipe(fds) != 0)
      throw std::runtime_error("run_forked_shards: pipe() failed");
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(fds[0]);
      ::close(fds[1]);
      throw std::runtime_error("run_forked_shards: fork() failed");
    }
    if (pid == 0) {
      // Worker: default signal disposition (the parent decides policy; a
      // forwarded SIGTERM just terminates the worker) and membership in the
      // workers' process group, so one kill(-pgid) reaches every shard
      // without touching the parent or its process group.
      ::signal(SIGTERM, SIG_DFL);
      ::signal(SIGINT, SIG_DFL);
      ::setpgid(0, pgid);  // pgid == 0 for the first child: new group
      ::close(fds[0]);
      for (unsigned p = 0; p < s; ++p)
        if (workers[p].fd >= 0) ::close(workers[p].fd);
      int code = 0;
      try {
        std::uint64_t begin = 0, end = 0;
        shard_range(n, slots, s, &begin, &end);
        if (!write_all(fds[1], work(begin, end))) code = 5;
      } catch (...) {
        code = 4;
      }
      ::close(fds[1]);
      ::_exit(code);
    }
    ::close(fds[1]);
    w.pid = pid;
    w.fd = fds[0];
    if (pgid == 0) pgid = pid;
    // Mirror the child's setpgid (whichever runs first wins; EACCES/ESRCH
    // just means the child got there first or already exited).
    ::setpgid(pid, pgid);
  }

  bool forwarded = false;
  auto forward_signal = [&] {
    if (g_signal != 0 && !forwarded && pgid != 0) {
      ::kill(-pgid, g_signal);
      forwarded = true;
    }
  };

  // Drain pipes in shard order: the callers' fold order — and with it every
  // merged floating-point diagnostic — is deterministic regardless of which
  // worker finishes first. On interruption the drain keeps going — killed
  // workers close their pipes, reads return fast, and every
  // already-complete frame is still kept — but reaping switches to the
  // bounded path.
  std::vector<std::optional<std::string>> outcomes(slots);
  for (unsigned s = 0; s < slots; ++s) {
    Slot& w = workers[s];
    if (w.pid < 0) continue;  // never forked (interrupted mid-spawn)
    forward_signal();
    std::string frame = read_all(w.fd);
    forward_signal();
    if (forwarded) frame += read_all(w.fd);  // post-kill residue up to EOF
    ::close(w.fd);
    int status = 0;
    if (forwarded) {
      reap_bounded(w.pid, &status, /*timeout_ms=*/2'000);
    } else {
      pid_t r;
      for (;;) {
        r = ::waitpid(w.pid, &status, 0);
        if (r >= 0 || errno != EINTR) break;
        forward_signal();  // signal landed while blocked in waitpid
      }
      if (r != w.pid) continue;  // slot stays lost
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
      outcomes[s] = std::move(frame);
  }
  if (interrupted_signal != nullptr)
    *interrupted_signal = static_cast<int>(g_signal);
  return outcomes;
}

}  // namespace flashmark::util
