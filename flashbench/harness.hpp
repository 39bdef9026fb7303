// flashbench — shared declarations of the benchmark harness.
//
// The harness is one load-generating process: it imprints populations,
// starts in-process flashmarkd daemons, drives them over unix sockets,
// runs lot studies and, in a traced run, times every layer from outside by
// calling its public functions (the "ladder"). See README.md beside this
// file for the workloads, the layer -> end-to-end map and how to read the
// trace.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace flashbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- fixed sizing (README.md explains each choice) -------------------------

/// Imprint depth of the verify populations: at 60 000 about one die in
/// 500-1 000 answers `unreadable` intermittently; at 80 000 such false
/// rejects are rare, and still counted (README "Findings").
inline constexpr std::uint32_t kVerifyNpe = 80'000;
/// Verifies one die may get in one phase, warm-up included.
inline constexpr unsigned kVerifyBudget = 50;
/// Share of --seconds given to the open-loop latency phase. The closed-loop
/// capacity phase ends when its wear-budget request list runs out (about
/// 6 s at 4 500/s), so the rest goes to the latency phase: on a shared host
/// slow periods of 5-15 s inflate every open-loop latency in them, and a
/// phase of many 1 000-request chunks keeps them out of the median.
inline constexpr double kLatencyShare = 0.75;
/// Pipelined connections every load generator opens (at most nproc).
inline constexpr unsigned kConnections = 2;
/// Outstanding verifies per connection in the closed loops (well below the
/// daemon's queue_capacity).
inline constexpr unsigned kWindow = 16;
/// A run whose generator ran later than this at p99 is invalid: the
/// generator fell behind its schedule. Host scheduling stalls alone reached
/// 6.7 ms at p99 on the shared 4-vCPU host (and are charged to latency,
/// which is timed from the due time), so the bound sits above them.
inline constexpr double kLateBoundMs = 20.0;
/// Dies per phase whose first daemon verify is compared with kReference.
inline constexpr std::size_t kReferenceSample = 8;
/// Enroll imprint depth: at 30 000 about 0.6 % of dies false-reject on
/// their first verify (README "Findings").
inline constexpr std::uint32_t kEnrollNpe = 60'000;

/// Workload sizes. kFullSizes is what the benchmark measures; kToySizes
/// shrinks every workload for the smoke test (run.py --toy).
struct Sizes {
  double hot_rate;               ///< verify_hot open-loop offered rate, 1/s
  double cold_rate;              ///< verify_cold open-loop offered rate, 1/s
  std::size_t verify_dies;       ///< verify_hot / verify_cold population
  std::size_t cold_resident;     ///< verify_cold DieStore cap
  std::uint64_t lot_dies;        ///< dies per measured lot
  std::uint64_t lot_warmup_dies; ///< dies per set-up lot
  std::size_t ladder_dies;       ///< ladder population
  std::uint32_t ladder_session_npe;
  std::uint64_t ladder_lot_dies;
};
/// Offered rates sit at about a quarter of the measured capacity (about
/// 4 500/s hot, 590-880/s cold on a 4-vCPU host), well below the knee;
/// verify_cold's population is 16x its resident cap.
inline constexpr Sizes kFullSizes{1000, 200, 512, 32, 4096, 256, 16, 2000, 512};
inline constexpr Sizes kToySizes{400, 100, 32, 2, 96, 24, 4, 200, 48};

/// Everything the workloads read from the command line.
struct Params {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string work_dir;   ///< relative to the checkout root (socket paths)
  std::string trace_out;  ///< Chrome JSON path (traced run)
  unsigned nproc = 1;
  Sizes size = kFullSizes;
};

struct Metric {
  double value = 0;
  std::string unit;
  std::uint64_t n = 0;  ///< samples behind the value (0 = derived)
};

/// What one run reports. `errors` are failed correctness checks: any entry
/// makes the run incorrect (nonzero exit).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t n = 0) {
    metrics[name] = Metric{value, unit, n};
  }
  bool has(const std::string& name) const { return metrics.count(name) != 0; }
  double get(const std::string& name) const {
    auto it = metrics.find(name);
    return it == metrics.end() ? 0.0 : it->second.value;
  }
  void error(const std::string& msg);
};

// ---- statistics -----------------------------------------------------------

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// Split [0, span_s) into windows of window_s and return, per window, the
/// values whose time falls in it (windows with no values are dropped).
std::vector<std::vector<double>> by_window(const std::vector<double>& time_s,
                                           const std::vector<double>& value,
                                           double window_s, double span_s);

// ---- seeds ----------------------------------------------------------------

/// SplitMix64 step: every input the benchmark generates (master seed,
/// arrival gaps, die order) is derived from --seed through this, so the
/// same seed gives the same inputs on any host.
std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

/// Tag of the population master seed: the workload population and the
/// ladder population derive it alike, so ladder die i is workload die i.
inline constexpr std::uint64_t kMasterTag = 0x6d617374;

/// Concatenated seeded permutations of [0, n_dies), `count` long: every die
/// appears once per cycle, so no die is verified more than ceil(count/n)
/// times — the wear-budget order.
std::vector<std::uint64_t> balanced_order(std::size_t n_dies,
                                          std::size_t count,
                                          std::uint64_t seed);

// ---- daemon / population --------------------------------------------------

/// The serve recipe every verify uses: 3 rounds x 3 reads at a 30 us window.
flashmark::serve::ServerConfig base_server_config(std::uint64_t master_seed);

/// Imprint dies [0, n) into `<dir>/dies` out-of-band (batch wear at `npe`,
/// the daemon's enrollment spec otherwise), flushed to disk, in `slices`
/// equal batches. Returns the set-up time as the median slice time times
/// the number of slices (robust to the host's speed drifting mid-imprint).
double populate(const std::string& dir,
                const flashmark::serve::ServerConfig& cfg, std::size_t n,
                std::uint32_t npe, unsigned threads, std::size_t slices);

/// Starts an in-process daemon in `dir` (removed first; data in
/// `<dir>/data`, socket `<dir>/d.sock`) with `nproc` workers over a fresh
/// copy of the population under `pristine` (an empty data dir when
/// `pristine` is empty). `max_dies` / `max_resident` of `cfg` stay as given.
std::unique_ptr<flashmark::serve::Server> start_daemon(
    flashmark::serve::ServerConfig cfg, const std::string& dir,
    unsigned nproc, const std::string& pristine);

/// Drains and destroys a daemon; returns Server::wait()'s exit code.
int stop_daemon(std::unique_ptr<flashmark::serve::Server>& server);

/// A verify of `die` with the benchmark's request deadline.
flashmark::serve::Request verify_request(std::uint64_t id, std::uint64_t die);

/// Path of die `die`'s file under a population dir.
std::string die_file(const std::string& dir, std::uint64_t die);

/// How one verify answer of a genuine die counts. Only kWrong is an
/// incorrect output; the others are failed operations (README
/// "Correctness checks").
enum class Answer {
  kGenuine,      ///< kOk, genuine, the requested die_id
  kFalseReject,  ///< kOk, `unreadable`: read noise on a marginal die
  kUnserved,     ///< shed, rate-limited, past deadline, draining, transport
  kWrong,        ///< any other answer (counterfeit verdict, wrong die_id,
                 ///< kFailed, kInvalid)
};
Answer classify(const flashmark::serve::Response& rs, std::uint64_t die);
/// The same for an in-process VerifyReport.
Answer classify(const flashmark::VerifyReport& rep, std::uint64_t die);

/// Compare a daemon verify response of `die` with in-process
/// verify_watermark runs on the pristine die file under both kernel modes.
/// Returns an empty string when everything is byte-identical.
std::string reference_mismatch(const std::string& pristine_dir,
                               const flashmark::serve::ServerConfig& cfg,
                               std::uint64_t die,
                               const flashmark::serve::Response& rs);

// ---- load generation (load.cpp) -------------------------------------------

struct LoadResult {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;     ///< Answer::kFalseReject
  std::uint64_t unserved = 0;     ///< Answer::kUnserved
  std::uint64_t transport = 0;    ///< never answered / connection lost
  std::uint64_t wrong = 0;        ///< Answer::kWrong
  std::vector<double> latency_ms;  ///< per ok request (open loop: from due)
  std::vector<double> start_s;     ///< per ok request: due (open) or send
                                   ///< (closed) time, s after phase start
  std::vector<double> done_s;      ///< per ok request: answer time
  std::vector<double> late_ms;     ///< open loop: send time - due time
  std::uint64_t outstanding_max = 0;
  double elapsed_s = 0;            ///< phase start to last answer
  double sent_until_s = 0;         ///< phase start to last send
  std::vector<std::uint32_t> sent_per_die;
  std::vector<std::string> samples;  ///< first few failure descriptions
  std::uint64_t failed() const { return attempted - ok; }
};

/// Open loop: request k is due `due_s[k]` seconds after the phase starts
/// and verifies die `dies[k]`; it is sent then (or as soon as the
/// generator catches up) over kConnections pipelined connections, and its
/// latency is measured from the due time. `n_dies` sizes sent_per_die.
LoadResult run_open_loop(const std::string& endpoint,
                         const std::vector<double>& due_s,
                         const std::vector<std::uint64_t>& dies,
                         std::size_t n_dies, std::uint64_t first_request_id);

/// Closed loop: kConnections connections keep kWindow verifies each
/// outstanding, in `dies` order, until `seconds` have passed or the order
/// is used up (seconds <= 0: until it is used up).
LoadResult run_closed_loop(const std::string& endpoint,
                           const std::vector<std::uint64_t>& dies,
                           std::size_t n_dies, double seconds,
                           std::uint64_t first_request_id);

/// Samples ServerStats::queue_depth every millisecond while alive.
class QueueSampler {
 public:
  explicit QueueSampler(const flashmark::serve::Server& server);
  ~QueueSampler();
  QueueSampler(const QueueSampler&) = delete;
  QueueSampler& operator=(const QueueSampler&) = delete;
  std::uint64_t max_depth() const { return max_; }

 private:
  const flashmark::serve::Server& server_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> max_{0};
  std::thread th_;
};

// ---- tracing --------------------------------------------------------------

/// Scoped 'X' span in the installed obs::TraceCollector (no-op when none).
/// `name` must be a string literal.
class BenchSpan {
 public:
  explicit BenchSpan(const char* name);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  const char* name_;
  std::int64_t t0_ = 0;
};

/// Heap allocations made by the calling thread so far (operator-new
/// counter defined in main.cpp).
std::uint64_t thread_allocs();

/// Peak resident set of this process and of its reaped children, MB.
double peak_rss_mb();

// ---- workloads and ladder -------------------------------------------------

void run_verify(const Params& p, bool cold, bool traced, Outcome& out);
void run_enroll(const Params& p, bool traced, Outcome& out);
void run_lot_study(const Params& p, bool traced, Outcome& out);

/// Isolated per-layer calls (phys, flash, core, store, serve, session,
/// lot) on dies of the workload's population: every per-layer metric.
/// The traced workload's own counters then replace some (main.cpp).
void run_ladder(const Params& p, Outcome& out);

}  // namespace flashbench
