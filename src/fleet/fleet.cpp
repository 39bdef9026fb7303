#include "fleet/fleet.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "fleet/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "session/resumable.hpp"
#include "store/die_store.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"
#include "util/siphash.hpp"

namespace flashmark::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::int64_t ms_to_ns(double ms) { return static_cast<std::int64_t>(ms * 1e6); }

}  // namespace

std::uint64_t derive_die_seed(std::uint64_t master_seed,
                              std::uint64_t die_index) {
  // Expand the master seed into a SipHash key, then MAC the die index. Both
  // primitives are the repo's own bit-exact implementations, so the mapping
  // (master, die) -> seed is identical on every platform and compiler.
  std::uint64_t sm = master_seed;
  const SipHashKey key{splitmix64(sm), splitmix64(sm)};
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i)
    bytes[i] = static_cast<std::uint8_t>(die_index >> (8 * i));
  return siphash24(key, bytes, sizeof bytes);
}

const char* to_string(DieHealth h) {
  switch (h) {
    case DieHealth::kClean: return "clean";
    case DieHealth::kDegraded: return "degraded";
    case DieHealth::kFailed: return "failed";
  }
  return "unknown";
}

const char* to_string(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kPowerLoss: return "power-loss";
    case FailureReason::kRetryExhausted: return "retry-exhausted";
    case FailureReason::kFlashProtocol: return "flash-protocol";
    case FailureReason::kOther: return "other";
    case FailureReason::kDeadlineExceeded: return "deadline-exceeded";
    case FailureReason::kStalled: return "stalled";
    case FailureReason::kShardLost: return "shard-lost";
  }
  return "unknown";
}

namespace {

[[noreturn]] void cli_usage_exit(const char* argv0,
                                 std::initializer_list<CliFlag> extra) {
  std::cerr << "usage: " << argv0
            << " [--threads N] [--trace-out FILE] [--metrics-out FILE]";
  for (const CliFlag& f : extra)
    std::cerr << " [" << f.name << (f.takes_value ? " V]" : "]");
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

FleetOptions parse_cli_options(int argc, char** argv,
                               std::initializer_list<CliFlag> extra) {
  FleetOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0) {
      if (i + 1 >= argc) {
        std::cerr << "--threads requires a value\n";
        std::exit(2);
      }
      char* end = nullptr;
      const long v = std::strtol(argv[i + 1], &end, 10);
      if (end == argv[i + 1] || *end != '\0' || v < 0) {
        std::cerr << "--threads: invalid value '" << argv[i + 1] << "'\n";
        std::exit(2);
      }
      opts.threads = static_cast<unsigned>(v);
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--trace-out") == 0 ||
        std::strcmp(argv[i], "--metrics-out") == 0) {
      if (i + 1 >= argc) {
        std::cerr << argv[i] << " requires a value\n";
        std::exit(2);
      }
      (argv[i][2] == 't' ? opts.trace_out : opts.metrics_out) = argv[i + 1];
      ++i;
      continue;
    }
    // Flags the binary parses itself are skipped here (with their value);
    // everything else is a typo and must not silently run a default sweep.
    bool known = false;
    for (const CliFlag& f : extra) {
      if (std::strcmp(argv[i], f.name) == 0) {
        known = true;
        if (f.takes_value) {
          if (i + 1 >= argc) {
            std::cerr << f.name << " requires a value\n";
            std::exit(2);
          }
          ++i;
        }
        break;
      }
    }
    if (!known) {
      std::cerr << "unknown argument '" << argv[i] << "'\n";
      cli_usage_exit(argv[0], extra);
    }
  }
  return opts;
}

void DieCounters::absorb(Device& dev) {
  const FlashOpCounters& c = dev.controller().op_counters();
  erase_ops += c.erase_ops;
  program_ops += c.program_ops;
  read_ops += c.read_ops;
  // Every erase pulse heads one P/E cycle of the Fig. 7 loop; batch wear
  // accounts its cycles directly.
  pe_cycles += c.wear_pe_cycles + static_cast<double>(c.erase_ops);
  sim_time += dev.clock().now();
}

void DieCounters::absorb_faults(const fault::FaultyHal& hal) {
  faults_injected += hal.counters().events();
}

void DieCounters::absorb_recovery(const VerifyReport& report) {
  retries += report.retries;
  ecc_corrected += report.ecc_corrected_blocks;
}

DieCounters FleetReport::totals() const {
  DieCounters t;
  t.die = dies.size();
  for (const auto& d : dies) {
    t.wall_ms += d.wall_ms;
    t.pe_cycles += d.pe_cycles;
    t.sim_time += d.sim_time;
    t.erase_ops += d.erase_ops;
    t.program_ops += d.program_ops;
    t.read_ops += d.read_ops;
    t.faults_injected += d.faults_injected;
    t.retries += d.retries;
    t.ecc_corrected += d.ecc_corrected;
    if (d.failed) t.failed = true;
    // Worst-of across the batch; the enum is ordered clean < degraded <
    // failed. The first failure's reason wins (die order, deterministic).
    if (d.health > t.health) t.health = d.health;
    if (t.reason == FailureReason::kNone && d.reason != FailureReason::kNone)
      t.reason = d.reason;
  }
  return t;
}

std::size_t FleetReport::failures() const {
  std::size_t n = 0;
  for (const auto& d : dies)
    if (d.failed) ++n;
  return n;
}

std::size_t FleetReport::degraded() const {
  std::size_t n = 0;
  for (const auto& d : dies)
    if (d.health == DieHealth::kDegraded) ++n;
  return n;
}

void FleetReport::merge(const FleetReport& other) {
  // Rows keep their absolute die ids: a shard report for dies [1000, 1004)
  // must fold in as dies 1000..1003, not as dies.size()+0..3. Callers that
  // merge same-ranged batches (sequential sweeps re-running dies 0..n-1)
  // get duplicate ids, which is what those rows mean — same die, new batch.
  dies.insert(dies.end(), other.dies.begin(), other.dies.end());
  // Merged batches are treated as concurrent (the sharded case this fold
  // exists for): elapsed time is the slowest batch, total compute is the
  // sum. Sequential-sweep callers read their true elapsed time off cpu_ms.
  wall_ms = std::max(wall_ms, other.wall_ms);
  cpu_ms += other.cpu_ms;
  if (threads_used == 0) threads_used = other.threads_used;
}

std::string FleetReport::counters_csv() const {
  std::ostringstream os;
  os << "die,wall_ms,pe_cycles,sim_ms,erase_ops,program_ops,read_ops,"
        "faults,retries,ecc_corrected,health,reason,failed\n";
  for (const auto& d : dies) {
    os << d.die << ',' << d.wall_ms << ',' << d.pe_cycles << ','
       << d.sim_time.as_ms() << ',' << d.erase_ops << ',' << d.program_ops
       << ',' << d.read_ops << ',' << d.faults_injected << ',' << d.retries
       << ',' << d.ecc_corrected << ',' << to_string(d.health) << ','
       << to_string(d.reason) << ',' << (d.failed ? 1 : 0) << '\n';
  }
  return os.str();
}

void FleetReport::fold_into(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  auto fold_row = [&reg](const std::string& base, const DieCounters& d) {
    reg.counter(base + ".erase_ops").add(d.erase_ops);
    reg.counter(base + ".program_ops").add(d.program_ops);
    reg.counter(base + ".read_ops").add(d.read_ops);
    reg.counter(base + ".faults_injected").add(d.faults_injected);
    reg.counter(base + ".retries").add(d.retries);
    reg.counter(base + ".ecc_corrected").add(d.ecc_corrected);
    reg.counter(base + ".sim_ns")
        .add(static_cast<std::uint64_t>(d.sim_time.as_ns()));
    reg.gauge(base + ".pe_cycles").set(d.pe_cycles);
    reg.gauge(base + ".health")
        .set(static_cast<double>(static_cast<std::uint8_t>(d.health)));
    reg.gauge(base + ".reason")
        .set(static_cast<double>(static_cast<std::uint8_t>(d.reason)));
  };
  // Histogram of per-die simulated time: range covers everything from an
  // all-restored resume (0) to a paper-scale 70k-cycle imprint (~0.5 h of
  // simulated time per die); out-of-range dies land in overflow, counted.
  auto& sim_hist =
      reg.histogram(prefix + ".die_sim_ms", 0.0, 4.0e6, 64);
  for (const auto& d : dies) {
    fold_row(prefix + "." + obs::die_key(d.die), d);
    sim_hist.add(d.sim_time.as_ms());
  }
  fold_row(prefix + ".total", totals());
  reg.counter(prefix + ".dies").add(dies.size());
  reg.counter(prefix + ".failures").add(failures());
  reg.counter(prefix + ".degraded").add(degraded());
}

void FleetReport::print_summary(std::ostream& os) const {
  const DieCounters t = totals();
  os << "[fleet] " << dies.size() << " dies on " << threads_used
     << " thread(s): wall " << wall_ms << " ms (cpu " << cpu_ms
     << " ms, sum of jobs " << t.wall_ms << " ms), " << t.pe_cycles << " P/E cycles, " << t.erase_ops
     << " erase / " << t.program_ops << " program / " << t.read_ops
     << " read ops, " << t.sim_time.as_sec() << " s simulated";
  if (t.faults_injected)
    os << ", " << t.faults_injected << " faults injected (" << t.retries
       << " retries, " << t.ecc_corrected << " ECC fixes)";
  if (const std::size_t d = degraded()) os << ", " << d << " degraded";
  if (const std::size_t f = failures()) os << ", " << f << " FAILED";
  os << "\n";
}

namespace {

/// Sequence number behind the `fleet.bNNN` metric prefixes (see
/// reset_batch_counter in fleet.hpp).
std::atomic<unsigned> g_batch_seq{0};

/// The fleet watchdog: a single thread polling every die's DieProgress
/// token while the batch runs, arming cooperative cancellation on dies that
/// blew their deadline or stopped heartbeating. It never touches die state —
/// only the tokens — so supervision is data-race-free by construction (the
/// tokens are relaxed atomics) and cannot perturb the simulation of
/// surviving dies. Construction starts the thread; destruction joins it.
class Watchdog {
 public:
  Watchdog(std::vector<DieProgress>& tokens, const FleetOptions& opts)
      : tokens_(tokens),
        opts_(opts),
        last_ticks_(tokens.size(), 0),
        last_change_ns_(tokens.size(), -1),
        thread_([this] { run(); }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

 private:
  void run() {
    const double poll_ms =
        opts_.watchdog_poll_ms > 0.0 ? opts_.watchdog_poll_ms : 2.0;
    const auto poll = std::chrono::duration<double, std::milli>(poll_ms);
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, poll, [this] { return done_; })) {
      const std::int64_t now = now_ns();
      for (std::size_t i = 0; i < tokens_.size(); ++i) {
        DieProgress& t = tokens_[i];
        if (!t.started() || t.finished()) continue;
        if (opts_.die_deadline_ms > 0.0 &&
            now - t.start_ns() > ms_to_ns(opts_.die_deadline_ms)) {
          if (t.request_cancel(CancelCause::kDeadline))
            if (auto* col = obs::TraceCollector::current())
              col->instant("watchdog.cancel.deadline", i);
          continue;
        }
        if (opts_.die_stall_ms > 0.0) {
          const std::uint64_t ticks = t.ticks();
          if (last_change_ns_[i] < 0 || ticks != last_ticks_[i]) {
            last_ticks_[i] = ticks;
            last_change_ns_[i] = now;
          } else if (now - last_change_ns_[i] > ms_to_ns(opts_.die_stall_ms)) {
            if (t.request_cancel(CancelCause::kStalled))
              if (auto* col = obs::TraceCollector::current())
                col->instant("watchdog.cancel.stalled", i);
          }
        }
      }
    }
  }

  std::vector<DieProgress>& tokens_;
  const FleetOptions& opts_;
  std::vector<std::uint64_t> last_ticks_;   // watchdog-thread-local
  std::vector<std::int64_t> last_change_ns_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

}  // namespace

FleetReport run_dies(std::size_t n_dies, const SupervisedDieJob& job,
                     const FleetOptions& opts) {
  FleetReport report;
  report.dies.resize(n_dies);
  for (std::size_t i = 0; i < n_dies; ++i) report.dies[i].die = i;
  report.threads_used = resolve_threads(opts.threads);

  std::vector<DieProgress> progress(n_dies);
  const bool supervised = opts.die_deadline_ms > 0.0 || opts.die_stall_ms > 0.0;

  const auto t0 = Clock::now();
  auto run_one = [&report, &job, &progress](std::size_t die) {
    DieCounters& slot = report.dies[die];
    DieProgress& token = progress[die];
    // One async band per die (id = die index) so a die's work reads as a
    // single horizontal lane in about://tracing even across thread hops,
    // plus a complete-event span on the worker thread that ran it.
    obs::AsyncSpan die_band("die", die);
    FLASHMARK_SPAN("fleet.die");
    const auto job_t0 = Clock::now();
    token.mark_started();
    auto fail = [&slot](FailureReason reason, const char* what) {
      slot.failed = true;
      slot.health = DieHealth::kFailed;
      slot.reason = reason;
      slot.error = what;
    };
    try {
      job(die, slot, token);
      // A job that completed but consumed recovery budget (or had faults
      // injected) ran on degraded silicon — classify it as such unless the
      // job already picked a stronger verdict.
      if (slot.health == DieHealth::kClean &&
          (slot.retries > 0 || slot.ecc_corrected > 0 ||
           slot.faults_injected > 0))
        slot.health = DieHealth::kDegraded;
    } catch (const OperationCancelledError& e) {
      // The watchdog's verdict, not the exception, carries the cause: a
      // job may also abort on a caller-provided hook (cause kNone).
      switch (token.cause()) {
        case CancelCause::kDeadline:
          fail(FailureReason::kDeadlineExceeded, e.what());
          break;
        case CancelCause::kStalled:
          fail(FailureReason::kStalled, e.what());
          break;
        case CancelCause::kNone:
          fail(FailureReason::kOther, e.what());
          break;
      }
    } catch (const RetryExhaustedError& e) {
      fail(FailureReason::kRetryExhausted, e.what());
    } catch (const TransientFlashError& e) {
      fail(FailureReason::kPowerLoss, e.what());
    } catch (const FlashHalError& e) {
      fail(FailureReason::kFlashProtocol, e.what());
    } catch (const std::exception& e) {
      fail(FailureReason::kOther, e.what());
    } catch (...) {
      fail(FailureReason::kOther, "unknown exception");
    }
    slot.wall_ms = ms_since(job_t0);
    token.mark_finished();
  };

  {
    // Scope: the watchdog must join before the report is finalized.
    std::optional<Watchdog> watchdog;
    if (supervised) watchdog.emplace(progress, opts);

    FLASHMARK_SPAN("fleet.batch");
    if (report.threads_used <= 1 || n_dies <= 1) {
      // Inline path: byte-for-byte the pre-fleet sequential behavior.
      for (std::size_t i = 0; i < n_dies; ++i) run_one(i);
    } else {
      ThreadPool pool(report.threads_used);
      for (std::size_t i = 0; i < n_dies; ++i)
        pool.submit([&run_one, i] { run_one(i); });
      pool.wait_idle();
    }
  }
  report.wall_ms = ms_since(t0);
  report.cpu_ms = report.wall_ms;

  if (obs::metrics_enabled()) {
    // Batches are issued sequentially from the caller's thread, so the
    // sequence number — and with it every metric name — is identical at any
    // --threads value. Heartbeat gauges (ticks per die) are deterministic
    // for completed dies; watchdog-cancelled dies are wall-clock truncated
    // and excluded from the byte-identity contract anyway (§6).
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "fleet.b%03u",
                  g_batch_seq.fetch_add(1, std::memory_order_relaxed));
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    report.fold_into(reg, prefix);
    for (std::size_t i = 0; i < n_dies; ++i)
      reg.gauge(std::string(prefix) + "." + obs::die_key(i) + ".heartbeat")
          .set(static_cast<double>(progress[i].ticks()));
  }
  return report;
}

FleetReport run_dies(std::size_t n_dies, const DieJob& job,
                     const FleetOptions& opts) {
  return run_dies(
      n_dies,
      [&job](std::size_t die, DieCounters& counters, DieProgress&) {
        job(die, counters);
      },
      opts);
}

void reset_batch_counter() {
  g_batch_seq.store(0, std::memory_order_relaxed);
}

namespace {

/// One die's HAL under a fault policy: the plain direct HAL, or a FaultyHal
/// decorating it when the policy afflicts the die. The decorator (if any)
/// lives in `storage` so its injection counters outlive the pipeline call.
FlashHal& policy_hal(Device& dev, std::size_t die, const FaultPolicy& policy,
                     std::optional<fault::FaultyHal>& storage) {
  if (!policy.afflicts(die)) return dev.hal();
  storage.emplace(dev.hal(),
                  fault::FaultPlan::for_die(policy.config, dev.die_seed(),
                                            dev.config().geometry));
  return *storage;
}

void reject_session_plus_faults(const char* who, const SessionPolicy& session,
                                const FaultPolicy& faults) {
  if (session.enabled() && faults.config.any())
    throw std::invalid_argument(
        std::string(who) +
        ": a journaled session owns the die's HAL end to end and cannot be "
        "combined with a FaultPolicy");
}

std::string die_session_dir(const SessionPolicy& session, std::size_t die) {
  return session.dir + "/die-" + std::to_string(die);
}

std::string audit_journal_path(const SessionPolicy& session) {
  return session.dir + "/audit.fmj";
}

bool file_exists(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f) std::fclose(f);
  return f != nullptr;
}

// --- audit-journal record vocabulary ------------------------------------
// One "die" record per completed verdict: every field of the VerifyReport,
// doubles in hexfloat so the restored report is bit-identical to the one the
// crashed process computed.

std::string exact_double(double v) {
  std::ostringstream os;
  os << std::hexfloat << v;
  return os.str();
}

std::uint64_t audit_u64(const std::map<std::string, std::string>& kv,
                        const char* key) {
  const auto it = kv.find(key);
  if (it == kv.end())
    throw std::runtime_error(std::string("audit record: missing '") + key +
                             "'");
  char* end = nullptr;
  const unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
  if (!end || end == it->second.c_str() || *end != '\0')
    throw std::runtime_error(std::string("audit record: bad value for '") +
                             key + "'");
  return v;
}

double audit_double(const std::map<std::string, std::string>& kv,
                    const char* key) {
  const auto it = kv.find(key);
  if (it == kv.end())
    throw std::runtime_error(std::string("audit record: missing '") + key +
                             "'");
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (!end || end == it->second.c_str() || *end != '\0')
    throw std::runtime_error(std::string("audit record: bad value for '") +
                             key + "'");
  return v;
}

std::string audit_payload(std::size_t die, const VerifyReport& r) {
  std::ostringstream os;
  os << "die=" << die
     << " verdict=" << unsigned(static_cast<std::uint8_t>(r.verdict))
     << " sig_checked=" << (r.signature_checked ? 1 : 0)
     << " sig_ok=" << (r.signature_ok ? 1 : 0) << " p00=" << r.invalid_00_pairs
     << " p11=" << r.invalid_11_pairs << " ecc=" << r.ecc_corrected_blocks
     << " retries=" << r.retries << " extract_ns=" << r.extract_time.as_ns()
     << " zf=" << exact_double(r.zero_fraction)
     << " rd=" << exact_double(r.replica_disagreement);
  if (r.fields) {
    os << " mf=" << r.fields->manufacturer_id << " id=" << r.fields->die_id
       << " grade=" << unsigned(r.fields->speed_grade)
       << " status=" << unsigned(static_cast<std::uint8_t>(r.fields->status))
       << " date=" << r.fields->date_code;
  }
  return os.str();
}

bool parse_audit_record(const std::string& payload, std::size_t& die,
                        VerifyReport& r) {
  try {
    const auto kv = session::parse_kv(payload);
    die = static_cast<std::size_t>(audit_u64(kv, "die"));
    r = VerifyReport{};
    r.verdict =
        static_cast<Verdict>(static_cast<std::uint8_t>(audit_u64(kv, "verdict")));
    r.signature_checked = audit_u64(kv, "sig_checked") != 0;
    r.signature_ok = audit_u64(kv, "sig_ok") != 0;
    r.invalid_00_pairs = static_cast<std::size_t>(audit_u64(kv, "p00"));
    r.invalid_11_pairs = static_cast<std::size_t>(audit_u64(kv, "p11"));
    r.ecc_corrected_blocks = static_cast<std::size_t>(audit_u64(kv, "ecc"));
    r.retries = audit_u64(kv, "retries");
    r.extract_time =
        SimTime::ns(static_cast<std::int64_t>(audit_u64(kv, "extract_ns")));
    r.zero_fraction = audit_double(kv, "zf");
    r.replica_disagreement = audit_double(kv, "rd");
    if (kv.count("mf")) {
      WatermarkFields f;
      f.manufacturer_id = static_cast<std::uint16_t>(audit_u64(kv, "mf"));
      f.die_id = static_cast<std::uint32_t>(audit_u64(kv, "id"));
      f.speed_grade = static_cast<std::uint8_t>(audit_u64(kv, "grade"));
      f.status = static_cast<TestStatus>(
          static_cast<std::uint8_t>(audit_u64(kv, "status")));
      f.date_code = static_cast<std::uint16_t>(audit_u64(kv, "date"));
      r.fields = f;
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// Called with each die's verdict after a successful audit, before its
/// counters are absorbed (the in-memory audit journals through it).
using VerdictHook = std::function<void(std::size_t die, const VerifyReport&)>;

/// Counter accounting of one die job: the op counters, the simulated time
/// the job advanced (not the die's lifetime clock) and the injected faults.
void absorb_job(DieCounters& counters, Device& dev, SimTime before,
                const std::optional<fault::FaultyHal>& fhal) {
  counters.absorb(dev);
  counters.sim_time -= before;
  if (fhal) counters.absorb_faults(*fhal);
}

/// The `cancelled` hook of an extraction-round pipeline: one heartbeat per
/// round, then the watchdog's verdict or the caller's own hook.
std::function<bool()> round_hook(DieProgress& token,
                                 std::function<bool()> user_cancel) {
  return [&token, user_cancel = std::move(user_cancel)] {
    token.tick();
    return token.cancel_requested() || (user_cancel && user_cancel());
  };
}

/// The per-die imprint body of both imprint_batch overloads: imprints `dev`
/// at `addr` through its fault-policy HAL, with `token` wired into the
/// cancel/heartbeat hooks. The report lands in `report`; the counters are
/// absorbed whether or not the imprint completes.
void imprint_die(Device& dev, std::size_t die, Addr addr,
                 const WatermarkSpec& spec, const FaultPolicy& faults,
                 DieCounters& counters, DieProgress& token,
                 ImprintReport& report) {
  dev.controller().reset_op_counters();
  const SimTime before = dev.clock().now();
  std::optional<fault::FaultyHal> fhal;
  FlashHal& hal = policy_hal(dev, die, faults, fhal);
  ImprintOptions io;
  io.npe = spec.npe;
  io.strategy = spec.strategy;
  io.accelerated = spec.accelerated;
  io.max_retries = spec.max_retries;
  io.cancelled = [&token] { return token.cancel_requested(); };
  io.on_cycle = [&token](std::uint32_t) { token.tick(); };
  try {
    report = imprint_watermark(hal, addr, spec, io);
    counters.retries += report.retries;
  } catch (...) {
    absorb_job(counters, dev, before, fhal);
    throw;
  }
  absorb_job(counters, dev, before, fhal);
}

/// The per-die audit body of both audit_batch overloads: verifies `dev` at
/// `addr` through its fault-policy HAL. The verdict lands in `report`; the
/// counters are absorbed whether or not the verification completes.
void audit_die(Device& dev, std::size_t die, Addr addr, const VerifyOptions& vo,
               const FaultPolicy& faults, DieCounters& counters,
               DieProgress& token, VerifyReport& report,
               const VerdictHook& on_verdict) {
  dev.controller().reset_op_counters();
  const SimTime before = dev.clock().now();
  std::optional<fault::FaultyHal> fhal;
  FlashHal& hal = policy_hal(dev, die, faults, fhal);
  VerifyOptions vo2 = vo;
  vo2.cancelled = round_hook(token, vo.cancelled);
  try {
    report = verify_watermark(hal, addr, vo2);
    counters.absorb_recovery(report);
  } catch (...) {
    absorb_job(counters, dev, before, fhal);
    throw;
  }
  if (on_verdict) on_verdict(die, report);
  absorb_job(counters, dev, before, fhal);
}

/// Fold the store's gauges after a store-backed batch (values are
/// scheduling-dependent at threads > 1: outside the §6 contract).
void fold_store_stats(const store::DieStore& store) {
  if (obs::metrics_enabled())
    store.fold_into(obs::MetricsRegistry::global(), "store");
}

}  // namespace

ImprintBatchResult imprint_batch(
    const DeviceConfig& config, std::uint64_t master_seed, std::size_t n_dies,
    std::size_t segment,
    const std::function<WatermarkSpec(std::size_t)>& spec_of,
    const FleetOptions& opts, const FaultPolicy& faults,
    const SessionPolicy& session) {
  reject_session_plus_faults("imprint_batch", session, faults);
  ImprintBatchResult out;
  out.dies.resize(n_dies);
  out.reports.resize(n_dies);
  out.fleet = run_dies(
      n_dies,
      [&](std::size_t die, DieCounters& counters, DieProgress& token) {
        auto dev = std::make_unique<Device>(config,
                                            derive_die_seed(master_seed, die));
        const Addr addr = dev->config().geometry.segment_base(segment);
        const WatermarkSpec spec = spec_of(die);

        if (session.enabled()) {
          // Journaled path: one session directory per die. Sessions run the
          // cycle-accurate kLoop driver regardless of spec.strategy (batch
          // wear has no per-cycle checkpoints to journal).
          const std::string dir = die_session_dir(session, die);
          session::SessionConfig cfg;
          cfg.checkpoint_every = session.checkpoint_every;
          cfg.durable = session.durable;
          cfg.accelerated = spec.accelerated;
          cfg.max_retries = spec.max_retries;
          cfg.cancelled = [&token] { return token.cancel_requested(); };
          cfg.on_cycle = [&token](std::uint32_t) { token.tick(); };
          try {
            if (session.resume && session::inspect_session(dir).exists) {
              session::ResumeResult r = session::resume_imprint_session(dir, cfg);
              out.dies[die] = std::move(r.dev);
              out.reports[die] = r.report;
            } else {
              const auto& g = dev->config().geometry;
              const EncodedWatermark enc =
                  encode_watermark(spec, g.segment_cells(segment));
              out.dies[die] = std::move(dev);
              out.reports[die] = session::run_imprint_session(
                  dir, *out.dies[die], addr, enc.segment_pattern, spec.npe,
                  cfg);
            }
            counters.retries += out.reports[die].retries;
          } catch (...) {
            // A die interrupted mid-resume never reached its slot; its
            // checkpoints are still on disk for the next attempt.
            if (out.dies[die]) counters.absorb(*out.dies[die]);
            throw;
          }
          counters.absorb(*out.dies[die]);
          return;
        }

        // The die must land in its slot even when the imprint aborts —
        // a power-lost die still exists and can be re-tested.
        out.dies[die] = std::move(dev);
        imprint_die(*out.dies[die], die, addr, spec, faults, counters, token,
                    out.reports[die]);
      },
      opts);
  return out;
}

ImprintBatchResult imprint_batch(
    store::DieStore& dies, std::size_t n_dies, std::size_t segment,
    const std::function<WatermarkSpec(std::size_t)>& spec_of,
    const FleetOptions& opts) {
  ImprintBatchResult out;
  out.reports.resize(n_dies);
  out.fleet = run_dies(
      n_dies,
      [&](std::size_t die, DieCounters& counters, DieProgress& token) {
        store::DieStore::PinnedDie dev = dies.pin(die);
        imprint_die(*dev, die, dev->config().geometry.segment_base(segment),
                    spec_of(die), /*faults=*/{}, counters, token,
                    out.reports[die]);
      },
      opts);
  fold_store_stats(dies);
  return out;
}

ExtractBatchResult extract_batch(
    const std::vector<std::unique_ptr<Device>>& dies, std::size_t segment,
    const ExtractOptions& eo, const FleetOptions& opts,
    const FaultPolicy& faults) {
  ExtractBatchResult out;
  out.results.resize(dies.size());
  out.fleet = run_dies(
      dies.size(),
      [&](std::size_t die, DieCounters& counters, DieProgress& token) {
        Device& dev = *dies[die];
        dev.controller().reset_op_counters();
        const SimTime before = dev.clock().now();
        const Addr addr = dev.config().geometry.segment_base(segment);
        std::optional<fault::FaultyHal> fhal;
        FlashHal& hal = policy_hal(dev, die, faults, fhal);
        ExtractOptions eo2 = eo;
        eo2.cancelled = round_hook(token, eo.cancelled);
        try {
          out.results[die] = extract_flashmark(hal, addr, eo2);
          counters.retries += out.results[die].retries;
        } catch (...) {
          absorb_job(counters, dev, before, fhal);
          throw;
        }
        absorb_job(counters, dev, before, fhal);
      },
      opts);
  return out;
}

AuditBatchResult audit_batch(const std::vector<std::unique_ptr<Device>>& dies,
                             std::size_t segment, const VerifyOptions& vo,
                             const FleetOptions& opts,
                             const FaultPolicy& faults,
                             const SessionPolicy& session) {
  reject_session_plus_faults("audit_batch", session, faults);
  AuditBatchResult out;
  out.reports.resize(dies.size());

  // Audit journaling: one shared journal of per-die verdict records.
  // Verdicts are appended as each die completes (append order is scheduling-
  // dependent; the records carry their die index, so restore order isn't).
  std::vector<char> restored(dies.size(), 0);
  std::optional<session::JournalWriter> journal;
  std::mutex journal_mu;
  if (session.enabled()) {
    if (const IoStatus st = make_dirs(session.dir); !st)
      throw std::runtime_error("audit_batch: " + st.error);
    const std::string path = audit_journal_path(session);
    if (session.resume && file_exists(path)) {
      // Open first (truncates any torn tail), then replay the clean file.
      journal.emplace(session::JournalWriter::open(path, session.durable));
      const session::ReplayResult replay = session::replay_journal(path);
      for (const auto& rec : replay.records) {
        if (rec.type != "die") continue;
        std::size_t die = 0;
        VerifyReport rep;
        if (parse_audit_record(rec.payload, die, rep) && die < dies.size()) {
          out.reports[die] = rep;
          restored[die] = 1;
        }
      }
    } else {
      if (file_exists(path))
        throw std::runtime_error(
            "audit_batch: journal already exists in " + session.dir +
            " — set SessionPolicy::resume or remove it explicitly");
      journal.emplace(session::JournalWriter::create(
          path,
          {{"begin",
            "seg=" + std::to_string(segment) +
                " dies=" + std::to_string(dies.size())}},
          session.durable));
    }
  }

  VerdictHook record;
  if (journal)
    record = [&](std::size_t die, const VerifyReport& r) {
      const std::string payload = audit_payload(die, r);
      std::lock_guard<std::mutex> lk(journal_mu);
      journal->append({"die", payload}, /*sync=*/session.durable);
    };

  out.fleet = run_dies(
      dies.size(),
      [&](std::size_t die, DieCounters& counters, DieProgress& token) {
        // A verdict restored from the journal is final: the work happened in
        // the crashed process. Its counter row stays zero in this process.
        if (restored[die]) return;
        Device& dev = *dies[die];
        audit_die(dev, die, dev.config().geometry.segment_base(segment), vo,
                  faults, counters, token, out.reports[die], record);
      },
      opts);
  return out;
}

AuditBatchResult audit_batch(store::DieStore& dies, std::size_t n_dies,
                             std::size_t segment, const VerifyOptions& vo,
                             const FleetOptions& opts,
                             const FaultPolicy& faults) {
  AuditBatchResult out;
  out.reports.resize(n_dies);
  out.fleet = run_dies(
      n_dies,
      [&](std::size_t die, DieCounters& counters, DieProgress& token) {
        store::DieStore::PinnedDie dev = dies.pin(die);
        audit_die(*dev, die, dev->config().geometry.segment_base(segment), vo,
                  faults, counters, token, out.reports[die], /*on_verdict=*/{});
      },
      opts);
  fold_store_stats(dies);
  return out;
}

}  // namespace flashmark::fleet
