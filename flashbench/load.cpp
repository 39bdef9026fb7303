// flashbench load generation: pipelined verify traffic against an
// in-process flashmarkd over its unix socket, open loop (seeded schedule,
// latency from the due time) or closed loop (fixed window of outstanding
// requests per connection).
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"

namespace flashbench {

using flashmark::serve::FrameParser;
using flashmark::serve::Op;
using flashmark::serve::Request;
using flashmark::serve::Response;
using flashmark::serve::Status;

namespace {

constexpr std::uint32_t kRequestDeadlineMs = 20'000;
constexpr double kDrainTimeoutS = 15.0;
constexpr std::size_t kMaxSamples = 5;

/// One persistent connection. send() and recv() may run on two different
/// threads at once (they touch disjoint state).
class Pipe {
 public:
  explicit Pipe(const std::string& endpoint) {
    fd_ = flashmark::serve::connect_endpoint(endpoint, &err_);
  }
  ~Pipe() {
    if (fd_ >= 0) ::close(fd_);
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  bool ok() const { return fd_ >= 0; }
  const std::string& error() const { return err_; }

  bool send(const Request& rq) {
    const std::string frame = flashmark::serve::encode_request_frame(rq);
    std::size_t off = 0;
    while (off < frame.size()) {
      const ssize_t w =
          ::send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<std::size_t>(w);
    }
    return true;
  }

  /// 1: *rs holds a response; 0: nothing within timeout_ms; -1: EOF or a
  /// corrupt frame (the connection is unusable).
  int recv(Response* rs, int timeout_ms) {
    for (;;) {
      std::string body;
      const FrameParser::State st = parser_.next(&body);
      if (st == FrameParser::State::kFrame) {
        std::optional<Response> d =
            flashmark::serve::decode_response_body(body);
        if (!d) return -1;
        *rs = std::move(*d);
        return 1;
      }
      if (st == FrameParser::State::kBad) return -1;
      pollfd pfd{fd_, POLLIN, 0};
      const int pr = ::poll(&pfd, 1, timeout_ms);
      if (pr < 0 && errno == EINTR) continue;
      if (pr <= 0) return pr < 0 ? -1 : 0;
      char buf[16 * 1024];
      const ssize_t r = ::recv(fd_, buf, sizeof buf, 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return -1;
      parser_.feed(buf, static_cast<std::size_t>(r));
    }
  }

 private:
  int fd_ = -1;
  std::string err_;
  FrameParser parser_;
};

/// Per-request bookkeeping shared by both loops. Slot k is written by the
/// one thread that owns request k's connection; read after the join.
struct Ledger {
  explicit Ledger(std::size_t n)
      : sent_s(n, std::numeric_limits<double>::quiet_NaN()),
        done_s(n, std::numeric_limits<double>::quiet_NaN()),
        answered(n, 0),
        answer(n, Answer::kWrong) {}
  std::vector<double> sent_s;
  std::vector<double> done_s;
  std::vector<std::uint8_t> answered;
  std::vector<Answer> answer;
  std::mutex samples_mu;
  std::vector<std::string> samples;

  void note(std::size_t k, const Response& rs, std::uint64_t die,
            double now_s) {
    done_s[k] = now_s;
    answered[k] = 1;
    answer[k] = classify(rs, die);
    if (answer[k] == Answer::kGenuine) return;
    std::lock_guard<std::mutex> lk(samples_mu);
    if (samples.size() < kMaxSamples)
      samples.push_back("die " + std::to_string(die) + ": status " +
                        flashmark::serve::to_string(rs.status) + ", verdict " +
                        flashmark::to_string(rs.verdict) +
                        (rs.message.empty() ? "" : ", " + rs.message));
  }

  LoadResult finish(const std::vector<std::uint64_t>& dies,
                    std::size_t n_dies, const std::vector<double>* due_s) {
    LoadResult r;
    r.sent_per_die.assign(n_dies, 0);
    for (std::size_t k = 0; k < sent_s.size(); ++k) {
      if (std::isnan(sent_s[k])) continue;
      ++r.attempted;
      ++r.sent_per_die[dies[k]];
      r.sent_until_s = std::max(r.sent_until_s, sent_s[k]);
      const double from = due_s ? (*due_s)[k] : sent_s[k];
      if (due_s) r.late_ms.push_back((sent_s[k] - from) * 1e3);
      if (!answered[k]) {
        ++r.transport;
        continue;
      }
      switch (answer[k]) {
        case Answer::kGenuine:
          ++r.ok;
          r.latency_ms.push_back((done_s[k] - from) * 1e3);
          r.start_s.push_back(from);
          r.done_s.push_back(done_s[k]);
          break;
        case Answer::kFalseReject:
          ++r.rejected;
          break;
        case Answer::kUnserved:
          ++r.unserved;
          break;
        case Answer::kWrong:
          ++r.wrong;
          break;
      }
      r.elapsed_s = std::max(r.elapsed_s, done_s[k]);
    }
    if (r.transport != 0 && samples.size() < kMaxSamples)
      samples.push_back(std::to_string(r.transport) +
                        " request(s) never answered (transport)");
    r.samples = std::move(samples);
    return r;
  }
};

void trace_begin(std::uint64_t id) {
  if (auto* c = flashmark::obs::TraceCollector::current())
    c->async_begin("req.verify", id);
}
void trace_end(std::uint64_t id) {
  if (auto* c = flashmark::obs::TraceCollector::current())
    c->async_end("req.verify", id);
}

}  // namespace

Request verify_request(std::uint64_t id, std::uint64_t die) {
  Request rq;
  rq.request_id = id;
  rq.op = Op::kVerify;
  rq.die = die;
  rq.deadline_ms = kRequestDeadlineMs;
  return rq;
}

LoadResult run_open_loop(const std::string& endpoint,
                         const std::vector<double>& due_s,
                         const std::vector<std::uint64_t>& dies,
                         std::size_t n_dies, std::uint64_t first_request_id) {
  constexpr unsigned conns = kConnections;
  const std::size_t n = due_s.size();
  Ledger ledger(n);
  std::vector<std::unique_ptr<Pipe>> pipes;
  for (unsigned c = 0; c < conns; ++c) {
    pipes.push_back(std::make_unique<Pipe>(endpoint));
    if (!pipes.back()->ok()) {
      LoadResult r;
      r.attempted = n;
      r.transport = n;
      r.sent_per_die.assign(n_dies, 0);
      r.samples.push_back("connect: " + pipes.back()->error());
      return r;
    }
  }
  std::unique_ptr<std::atomic<std::size_t>[]> sent_on(
      new std::atomic<std::size_t>[conns]);
  for (unsigned c = 0; c < conns; ++c) sent_on[c] = 0;
  std::atomic<std::size_t> received{0};
  std::atomic<bool> sender_done{false};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);

  std::vector<std::thread> receivers;
  for (unsigned c = 0; c < conns; ++c) {
    receivers.emplace_back([&, c] {
      std::size_t got = 0;
      Clock::time_point give_up = Clock::time_point::max();
      for (;;) {
        if (sender_done.load(std::memory_order_acquire)) {
          if (got == sent_on[c].load()) return;
          if (give_up == Clock::time_point::max())
            give_up = Clock::now() +
                      std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(kDrainTimeoutS));
          if (Clock::now() > give_up) return;
        }
        Response rs;
        const int r = pipes[c]->recv(&rs, 50);
        if (r < 0) return;
        if (r == 0) continue;
        const std::uint64_t k = rs.request_id - first_request_id;
        if (k >= n || k % conns != c) continue;  // not ours: stays unanswered
        ledger.note(k, rs, dies[k], seconds_between(t0, Clock::now()));
        trace_end(rs.request_id);
        ++got;
        received.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::uint64_t outstanding_max = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Clock::time_point due =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(due_s[k]));
    std::this_thread::sleep_until(due);
    const unsigned c = static_cast<unsigned>(k % conns);
    const std::uint64_t id = first_request_id + k;
    ledger.sent_s[k] = seconds_between(t0, Clock::now());
    sent_on[c].fetch_add(1);
    trace_begin(id);
    if (!pipes[c]->send(verify_request(id, dies[k]))) break;
    outstanding_max = std::max<std::uint64_t>(
        outstanding_max, (k + 1) - received.load(std::memory_order_relaxed));
  }
  sender_done.store(true, std::memory_order_release);
  for (auto& t : receivers) t.join();

  LoadResult r = ledger.finish(dies, n_dies, &due_s);
  r.outstanding_max = outstanding_max;
  return r;
}

LoadResult run_closed_loop(const std::string& endpoint,
                           const std::vector<std::uint64_t>& dies,
                           std::size_t n_dies, double seconds,
                           std::uint64_t first_request_id) {
  const std::size_t n = dies.size();
  Ledger ledger(n);
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point stop =
      seconds > 0 ? t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(seconds))
                  : Clock::time_point::max();
  std::atomic<std::uint64_t> connect_failures{0};

  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConnections; ++c) {
    threads.emplace_back([&] {
      Pipe pipe(endpoint);
      if (!pipe.ok()) {
        connect_failures.fetch_add(1);
        return;
      }
      std::size_t outstanding = 0;
      const auto send_next = [&] {
        if (Clock::now() >= stop) return false;
        const std::size_t k = next.fetch_add(1);
        if (k >= n) return false;
        const std::uint64_t id = first_request_id + k;
        ledger.sent_s[k] = seconds_between(t0, Clock::now());
        trace_begin(id);
        if (!pipe.send(verify_request(id, dies[k]))) return false;
        ++outstanding;
        return true;
      };
      for (unsigned w = 0; w < kWindow && send_next(); ++w) {
      }
      while (outstanding > 0) {
        Response rs;
        const int r = pipe.recv(&rs, static_cast<int>(kDrainTimeoutS * 1e3));
        if (r <= 0) return;  // lost or stalled: the rest stays unanswered
        const std::uint64_t k = rs.request_id - first_request_id;
        if (k >= n) continue;
        ledger.note(k, rs, dies[k], seconds_between(t0, Clock::now()));
        trace_end(rs.request_id);
        --outstanding;
        send_next();
      }
    });
  }
  for (auto& t : threads) t.join();
  LoadResult r = ledger.finish(dies, n_dies, nullptr);
  if (connect_failures.load() != 0)
    r.samples.push_back("closed loop: " +
                        std::to_string(connect_failures.load()) +
                        " connection(s) failed to connect");
  return r;
}

QueueSampler::QueueSampler(const flashmark::serve::Server& server)
    : server_(server), th_([this] {
        while (!stop_.load(std::memory_order_relaxed)) {
          const std::uint64_t d = server_.stats().queue_depth;
          if (d > max_.load(std::memory_order_relaxed)) max_.store(d);
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }) {}

QueueSampler::~QueueSampler() {
  stop_.store(true);
  th_.join();
}

BenchSpan::BenchSpan(const char* name) : name_(name) {
  if (auto* c = flashmark::obs::TraceCollector::current()) t0_ = c->now_ns();
}

BenchSpan::~BenchSpan() {
  auto* c = flashmark::obs::TraceCollector::current();
  if (c == nullptr) return;
  flashmark::obs::TraceEvent ev;
  ev.name = name_;
  ev.cat = "flashbench";
  ev.ph = 'X';
  ev.tid = c->lane();
  ev.ts_ns = t0_;
  ev.dur_ns = c->now_ns() - t0_;
  c->record(ev);
}

}  // namespace flashbench
