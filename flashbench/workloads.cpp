// flashbench workloads: verify_hot / verify_cold (in-process flashmarkd,
// open-loop latency phase + closed-loop capacity phase), enroll (journaled
// imprint through the daemon) and lot_study (forked lot runner).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <fstream>
#include <numeric>
#include <random>

#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "lot/lot.hpp"
#include "mcu/persist.hpp"
#include "serve/client.hpp"
#include "store/die_store.hpp"

namespace flashbench {

namespace fs = std::filesystem;
using flashmark::KernelMode;
using flashmark::Verdict;
using flashmark::VerifyOptions;
using flashmark::VerifyReport;
using flashmark::serve::Op;
using flashmark::serve::Request;
using flashmark::serve::Response;
using flashmark::serve::Server;
using flashmark::serve::ServerConfig;
using flashmark::serve::Status;

// Seed-derivation tags: one independent stream per generated input.
constexpr std::uint64_t kWarmTag = 0x7761726d;     // warm-up die order
constexpr std::uint64_t kOrderTag = 0x6f726472;    // measured die order
constexpr std::uint64_t kArrivalTag = 0x61727276;  // Poisson arrival gaps
constexpr std::uint64_t kEnrollTag = 0x656e726c;   // enroll die-id base

void Outcome::error(const std::string& msg) {
  if (errors.size() < 32) errors.push_back(msg);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

std::vector<std::vector<double>> by_window(const std::vector<double>& time_s,
                                           const std::vector<double>& value,
                                           double window_s, double span_s) {
  const std::size_t n_win =
      static_cast<std::size_t>(std::max(1.0, std::floor(span_s / window_s)));
  std::vector<std::vector<double>> w(n_win);  // [0, n_win * window_s)
  for (std::size_t i = 0; i < time_s.size(); ++i) {
    const double k = std::floor(time_s[i] / window_s);
    if (k >= 0 && k < double(n_win)) w[std::size_t(k)].push_back(value[i]);
  }
  w.erase(std::remove_if(w.begin(), w.end(),
                         [](const std::vector<double>& v) { return v.empty(); }),
          w.end());
  return w;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::uint64_t> balanced_order(std::size_t n_dies,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::uint64_t> cycle(n_dies), out;
  std::iota(cycle.begin(), cycle.end(), 0);
  out.reserve(count);
  while (out.size() < count) {
    std::shuffle(cycle.begin(), cycle.end(), rng);
    const std::size_t take = std::min(n_dies, count - out.size());
    out.insert(out.end(), cycle.begin(), cycle.begin() + take);
  }
  return out;
}

ServerConfig base_server_config(std::uint64_t master_seed) {
  ServerConfig cfg;
  cfg.master_seed = master_seed;
  cfg.verify.t_pew = flashmark::SimTime::us(30);
  cfg.verify.rounds = 3;
  cfg.verify.n_reads = 3;
  cfg.queue_capacity = 256;
  cfg.max_deadline_ms = 60'000;
  return cfg;
}

double populate(const std::string& dir, const ServerConfig& cfg,
                std::size_t n, std::uint32_t npe, unsigned threads,
                std::size_t slices) {
  fs::create_directories(dir + "/dies");
  const std::size_t per = (n + slices - 1) / slices;
  std::vector<double> slice_s;
  for (std::size_t first = 0; first < n; first += per) {
    const std::size_t count = std::min(per, n - first);
    const Clock::time_point t0 = Clock::now();
    // A slice imprints dies [first, first + count) through its own store
    // (the store indexes from 0), then moves the files into place.
    flashmark::store::DieStoreConfig sc;
    sc.dir = dir + "/slice";
    sc.device = cfg.device;
    sc.max_resident = count;
    const std::uint64_t master = cfg.master_seed;
    sc.seed_of = [master, first](std::size_t i) {
      return flashmark::fleet::derive_die_seed(master, first + i);
    };
    fs::remove_all(sc.dir);
    fs::create_directories(sc.dir);
    {
      flashmark::store::DieStore store(sc);
      // The daemon's enrollment spec (Server::spec_for), imprinted with
      // batch wear: the serving plane only ever sees the finished files.
      const auto spec_of = [&cfg, npe, first](std::size_t i) {
        flashmark::WatermarkSpec spec;
        spec.fields.manufacturer_id = cfg.manufacturer_id;
        spec.fields.die_id = static_cast<std::uint32_t>(first + i);
        spec.fields.speed_grade = cfg.speed_grade;
        spec.fields.status = flashmark::TestStatus::kAccept;
        spec.fields.date_code = cfg.date_code;
        spec.key = cfg.key;
        spec.n_replicas = cfg.n_replicas;
        spec.npe = npe;
        spec.strategy = flashmark::ImprintStrategy::kBatchWear;
        spec.accelerated = true;
        spec.ecc = cfg.verify.ecc;
        spec.max_retries = cfg.verify.max_retries;
        return spec;
      };
      flashmark::fleet::FleetOptions fo;
      fo.threads = threads;
      const auto r =
          flashmark::fleet::imprint_batch(store, count, cfg.segment, spec_of,
                                          fo);
      if (r.fleet.failures() != 0)
        throw std::runtime_error("population imprint: " +
                                 std::to_string(r.fleet.failures()) +
                                 " die(s) failed");
      const flashmark::IoStatus st = store.flush_all();
      if (!st.ok) throw std::runtime_error("population flush: " + st.error);
    }
    for (std::size_t i = 0; i < count; ++i)
      fs::rename(sc.dir + "/die-" + std::to_string(i) + ".fm",
                 die_file(dir, first + i));
    fs::remove_all(sc.dir);
    slice_s.push_back(seconds_between(t0, Clock::now()));
  }
  return median(slice_s) * double(slice_s.size());
}

std::string die_file(const std::string& dir, std::uint64_t die) {
  return dir + "/dies/die-" + std::to_string(die) + ".fm";
}

std::unique_ptr<Server> start_daemon(ServerConfig cfg, const std::string& dir,
                                     unsigned nproc,
                                     const std::string& pristine) {
  fs::remove_all(dir);
  fs::create_directories(dir + "/data");
  if (!pristine.empty())
    fs::copy(pristine + "/dies", dir + "/data/dies",
             fs::copy_options::recursive);
  cfg.data_dir = dir + "/data";
  cfg.socket_path = dir + "/d.sock";
  cfg.workers = nproc;
  auto server = std::make_unique<Server>(cfg);
  server->start();
  return server;
}

int stop_daemon(std::unique_ptr<Server>& server) {
  server->request_drain();
  const int rc = server->wait();
  server.reset();
  return rc;
}

Answer classify(const Response& rs, std::uint64_t die) {
  switch (rs.status) {
    case Status::kOk:
      break;
    case Status::kOverloaded:
    case Status::kRateLimited:
    case Status::kDeadlineExceeded:
    case Status::kShuttingDown:
    case Status::kUnavailable:
      return Answer::kUnserved;
    default:
      return Answer::kWrong;
  }
  if (rs.op != Op::kVerify) return Answer::kWrong;
  if (rs.verdict == Verdict::kUnreadable) return Answer::kFalseReject;
  return rs.verdict == Verdict::kGenuine && rs.fields &&
                 rs.fields->die_id == die
             ? Answer::kGenuine
             : Answer::kWrong;
}

Answer classify(const VerifyReport& rep, std::uint64_t die) {
  if (rep.verdict == Verdict::kUnreadable) return Answer::kFalseReject;
  return rep.verdict == Verdict::kGenuine && rep.fields &&
                 rep.fields->die_id == die
             ? Answer::kGenuine
             : Answer::kWrong;
}

namespace {

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string report_diff(const VerifyReport& a, const VerifyReport& b) {
  std::string d;
  const auto add = [&d](bool differs, const char* what) {
    if (differs) d += std::string(d.empty() ? "" : ", ") + what;
  };
  add(a.verdict != b.verdict, "verdict");
  add(a.fields != b.fields, "fields");
  add(a.signature_checked != b.signature_checked, "signature_checked");
  add(a.signature_ok != b.signature_ok, "signature_ok");
  add(a.invalid_00_pairs != b.invalid_00_pairs, "invalid_00_pairs");
  add(a.invalid_11_pairs != b.invalid_11_pairs, "invalid_11_pairs");
  add(!same_bits(a.zero_fraction, b.zero_fraction), "zero_fraction");
  add(!same_bits(a.replica_disagreement, b.replica_disagreement),
      "replica_disagreement");
  add(a.extract_time.as_ns() != b.extract_time.as_ns(), "extract_time");
  add(a.ecc_corrected_blocks != b.ecc_corrected_blocks, "ecc_corrected");
  add(a.retries != b.retries, "retries");
  return d;
}

}  // namespace

std::string reference_mismatch(const std::string& pristine_dir,
                               const ServerConfig& cfg, std::uint64_t die,
                               const Response& rs) {
  VerifyOptions vo = cfg.verify;
  vo.key = cfg.key;
  vo.n_replicas = cfg.n_replicas;
  const auto run = [&](KernelMode mode) {
    auto dev = flashmark::load_device_file(die_file(pristine_dir, die));
    dev->array().set_kernel_mode(mode);
    const flashmark::Addr addr =
        dev->config().geometry.segment_base(cfg.segment);
    return flashmark::verify_watermark(dev->hal(), addr, vo);
  };
  const VerifyReport ref = run(KernelMode::kReference);
  const VerifyReport bat = run(KernelMode::kBatched);
  std::string d = report_diff(ref, bat);
  if (!d.empty()) return "kBatched vs kReference differ in " + d;
  VerifyReport wire;  // the VerifyReport fields the wire carries
  wire = ref;
  wire.verdict = rs.verdict;
  wire.fields = rs.fields;
  wire.zero_fraction = rs.zero_fraction;
  wire.replica_disagreement = rs.replica_disagreement;
  wire.extract_time =
      flashmark::SimTime::ns(static_cast<std::int64_t>(rs.extract_ns));
  wire.ecc_corrected_blocks = rs.ecc_corrected;
  wire.retries = rs.retries;
  d = report_diff(ref, wire);
  if (!d.empty()) return "daemon vs kReference differ in " + d;
  return {};
}

double peak_rss_mb() {
  double kb = 0;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) kb = std::atof(line.c_str() + 6);
  rusage ru{};
  if (getrusage(RUSAGE_CHILDREN, &ru) == 0)
    kb = std::max(kb, static_cast<double>(ru.ru_maxrss));
  return kb / 1024.0;
}

namespace {

std::atomic<std::uint64_t> g_next_request_id{1};

std::uint64_t reserve_ids(std::size_t n) {
  return g_next_request_id.fetch_add(n + 1);
}

void absorb_failures(const LoadResult& r, const char* phase, Outcome& out) {
  out.attempted += r.attempted;
  out.failed += r.failed();
  // A wrong answer is an incorrect output. False rejects, shed load and
  // lost transport are failures the program is charged with (fail_frac),
  // not incorrect outputs.
  if (r.wrong != 0)
    out.error(std::string(phase) + ": " + std::to_string(r.wrong) +
              " verify(s) answered something other than genuine or "
              "unreadable for a genuine die");
  if (r.failed() != 0) {
    std::fprintf(stderr,
                 "flashbench: %s: %llu failed (%llu false rejects, %llu "
                 "unserved, %llu unanswered, %llu wrong)\n",
                 phase, static_cast<unsigned long long>(r.failed()),
                 static_cast<unsigned long long>(r.rejected),
                 static_cast<unsigned long long>(r.unserved),
                 static_cast<unsigned long long>(r.transport),
                 static_cast<unsigned long long>(r.wrong));
    for (const std::string& s : r.samples)
      std::fprintf(stderr, "flashbench: %s: %s\n", phase, s.c_str());
  }
}

struct VerifyPhase {
  double setup_s = 0;
  LoadResult load;
  flashmark::serve::ServerStats stats;
  flashmark::store::DieStoreStats store;
  std::uint64_t queue_max = 0;
};

/// One phase on a fresh daemon over a fresh copy of the pristine
/// population: restore, start, warm up (every die verified once; the first
/// kReferenceSample of them compared with in-process kReference runs),
/// then the measured load.
VerifyPhase verify_phase(const Params& p, const ServerConfig& base,
                         const std::string& pristine, const std::string& dir,
                         std::size_t n_dies, std::size_t resident,
                         bool latency, double phase_seconds, double rate,
                         std::uint64_t phase_seed, bool traced,
                         Outcome& out) {
  VerifyPhase ph;
  const Clock::time_point t0 = Clock::now();
  ServerConfig cfg = base;
  cfg.max_dies = n_dies;
  cfg.max_resident = resident;
  auto server = start_daemon(cfg, dir, p.nproc, pristine);
  const std::string& sock = server->config().socket_path;

  const std::vector<std::uint64_t> warm =
      balanced_order(n_dies, n_dies, derive(phase_seed, kWarmTag));
  const std::size_t sample = std::min(kReferenceSample, n_dies);
  std::vector<std::pair<std::uint64_t, Response>> first;
  {
    flashmark::serve::Client client(sock);
    for (std::size_t i = 0; i < sample; ++i)
      first.emplace_back(warm[i], client.call_once(verify_request(
                                      reserve_ids(1), warm[i])));
  }
  const std::vector<std::uint64_t> rest(warm.begin() + sample, warm.end());
  LoadResult warm_load =
      run_closed_loop(sock, rest, n_dies, 0,
                      reserve_ids(rest.size()));
  ph.setup_s = seconds_between(t0, Clock::now());

  // Measured load, in balanced die order within the wear budget.
  std::vector<std::uint64_t> dies;
  {
    std::unique_ptr<QueueSampler> sampler;
    if (traced) sampler = std::make_unique<QueueSampler>(*server);
    if (latency) {
      const std::size_t count =
          static_cast<std::size_t>(std::llround(rate * phase_seconds));
      std::mt19937_64 rng(derive(phase_seed, kArrivalTag));
      std::exponential_distribution<double> gap(rate);
      std::vector<double> due(count);
      double t = 0;
      for (double& d : due) d = (t += gap(rng));
      dies = balanced_order(n_dies, count, derive(phase_seed, kOrderTag));
      ph.load = run_open_loop(sock, due, dies, n_dies,
                              reserve_ids(count));
    } else {
      const std::size_t cap = (kVerifyBudget - 1) * n_dies;
      dies = balanced_order(n_dies, cap, derive(phase_seed, kOrderTag));
      ph.load = run_closed_loop(sock, dies, n_dies, phase_seconds,
                                reserve_ids(cap));
    }
    if (sampler) ph.queue_max = sampler->max_depth();
  }
  ph.stats = server->stats();
  ph.store = server->store().stats();
  const int rc = stop_daemon(server);
  if (rc != 0) out.error("daemon drain exited " + std::to_string(rc));

  // Correctness, outside the timed window.
  LoadResult warm_all = warm_load;
  for (const auto& [die, rs] : first) {
    ++warm_all.attempted;
    ++warm_all.sent_per_die[die];
    switch (classify(rs, die)) {
      case Answer::kGenuine: ++warm_all.ok; break;
      case Answer::kFalseReject: ++warm_all.rejected; break;
      case Answer::kUnserved: ++warm_all.unserved; break;
      case Answer::kWrong: ++warm_all.wrong; break;
    }
    // Whatever the verdict, the daemon must have computed what the
    // reference model computes for the same die state.
    if (rs.status == Status::kOk) {
      const std::string mm = reference_mismatch(pristine, base, die, rs);
      if (!mm.empty()) out.error("die " + std::to_string(die) + ": " + mm);
    }
  }
  absorb_failures(warm_all, "warm-up", out);
  absorb_failures(ph.load, latency ? "latency phase" : "capacity phase", out);
  for (std::size_t d = 0; d < n_dies; ++d) {
    const std::uint32_t used = warm_all.sent_per_die[d] +
                               ph.load.sent_per_die[d];
    if (used > kVerifyBudget)
      out.error("wear budget: die " + std::to_string(d) + " got " +
                std::to_string(used) + " verifies (budget " +
                std::to_string(kVerifyBudget) + ")");
  }
  fs::remove_all(dir);
  return ph;
}

}  // namespace

void run_verify(const Params& p, bool cold, bool traced, Outcome& out) {
  constexpr double kRateWindowS = 0.5;
  constexpr std::size_t kLatencyChunk = 1000;
  constexpr std::size_t kImprintSlices = 4;
  const std::size_t n_dies = p.size.verify_dies;
  const std::size_t resident = cold ? p.size.cold_resident : n_dies;
  const double rate = cold ? p.size.cold_rate : p.size.hot_rate;
  const double lat_s = p.seconds * kLatencyShare;
  const double cap_s = p.seconds - lat_s;
  const std::size_t lat_count =
      static_cast<std::size_t>(std::llround(rate * lat_s));
  if ((lat_count + n_dies - 1) / n_dies + 1 > kVerifyBudget) {
    out.error("configuration: the latency phase would exceed the per-die "
              "verify budget");
    return;
  }
  const ServerConfig base = base_server_config(derive(p.seed, kMasterTag));
  const std::string root = p.work_dir + (traced ? "/traced" : "/plain");
  const std::string pristine = root + "/pristine";

  fs::remove_all(root);
  const double imprint_s = populate(pristine, base, n_dies, kVerifyNpe,
                                    p.nproc, kImprintSlices);

  const VerifyPhase lat =
      verify_phase(p, base, pristine, root + "/lat", n_dies, resident, true,
                   lat_s, rate, derive(p.seed, 1), traced, out);
  const VerifyPhase cap =
      verify_phase(p, base, pristine, root + "/cap", n_dies, resident, false,
                   cap_s, rate, derive(p.seed, 2), traced, out);

  std::fprintf(stderr,
               "flashbench: setup: imprint %.3f s, phase set-ups %.3f / %.3f s\n",
               imprint_s, lat.setup_s, cap.setup_s);
  out.set("setup_s", imprint_s + median({lat.setup_s, cap.setup_s}), "s", 2);
  // The host's speed drifts by tens of percent at sub-second scale, so
  // each figure is a median over windows of its phase: throughput over
  // kRateWindowS windows of answers, latency quantiles over consecutive
  // runs of kLatencyChunk requests (each long enough for its own p99).
  // Rate windows cover only the span the loop kept sending: it stops at
  // cap_s or when the wear budget's request list runs out.
  std::vector<double> rates;
  if (cap.load.sent_until_s >= 2 * kRateWindowS) {
    for (const auto& w : by_window(cap.load.done_s, cap.load.done_s,
                                   kRateWindowS, cap.load.sent_until_s))
      rates.push_back(double(w.size()) / kRateWindowS);
  } else if (cap.load.elapsed_s > 0) {  // too short to window (toy sizes)
    rates.push_back(double(cap.load.ok) / cap.load.elapsed_s);
  }
  out.set("throughput_ops_s", median(rates), "1/s", cap.load.ok);
  std::vector<double> p50s, p99s;
  const std::size_t chunks =
      std::max<std::size_t>(1, lat.load.latency_ms.size() / kLatencyChunk);
  for (const auto& w :
       by_window(lat.load.start_s, lat.load.latency_ms, lat_s / chunks,
                 lat_s)) {
    p50s.push_back(quantile(w, 0.50));
    p99s.push_back(quantile(w, 0.99));
  }
  out.set("p50_ms", median(p50s), "ms", lat.load.latency_ms.size());
  out.set("p99_ms", median(p99s), "ms", lat.load.latency_ms.size());
  // The generator's lateness at p99 — or, below 1000 requests, at the
  // highest percentile that still has ten requests beyond it.
  const double late_q =
      std::max(0.5, std::min(0.99, 1.0 - 10.0 / double(std::max<std::size_t>(
                                                     1, lat.load.late_ms.size()))));
  const double late_p99 = quantile(lat.load.late_ms, late_q);
  if (late_p99 > kLateBoundMs)
    out.error("open loop invalid: generator lateness " +
              std::to_string(late_p99) + " ms at p" +
              std::to_string(int(late_q * 100)) + " exceeds the " +
              std::to_string(kLateBoundMs) + " ms bound");

  if (traced) {
    out.set("gen.late_p99_ms", late_p99, "ms", lat.load.late_ms.size());
    out.set("gen.outstanding_max", double(lat.load.outstanding_max), "count");
    out.set("serve.queue_depth_max",
            double(std::max(lat.queue_max, cap.queue_max)), "count");
    const double requests = double(lat.stats.requests + cap.stats.requests);
    out.set("serve.shed_frac",
            requests > 0
                ? double(lat.stats.overloaded + cap.stats.overloaded) / requests
                : 0.0,
            "ratio");
    const double pins = double(lat.store.hits + lat.store.misses +
                               cap.store.hits + cap.store.misses);
    const double misses = double(lat.store.misses + cap.store.misses);
    out.set("store.hit_ratio",
            pins > 0 ? double(lat.store.hits + cap.store.hits) / pins : 0.0,
            "ratio", static_cast<std::uint64_t>(pins));
    out.set("store.eviction_saves_per_miss",
            misses > 0 ? double(lat.store.eviction_saves +
                                cap.store.eviction_saves) /
                             misses
                       : 0.0,
            "ratio", static_cast<std::uint64_t>(misses));
  }
  fs::remove_all(root);
}

void run_enroll(const Params& p, bool traced, Outcome& out) {
  constexpr int kSetupReps = 15;
  const ServerConfig base = base_server_config(derive(p.seed, kMasterTag));
  const std::string root = p.work_dir + (traced ? "/traced" : "/plain");
  fs::remove_all(root);

  // Set-up: a fresh daemon over an empty data dir, started kSetupReps
  // times; the last one serves the workload. Its store keeps one round of
  // dies resident and spills older ones to disk, so peak RSS does not grow
  // with the number of rounds a run fits in.
  ServerConfig cfg = base;
  cfg.max_resident = p.nproc;
  std::vector<double> setups;
  std::unique_ptr<Server> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (server) stop_daemon(server);
    const Clock::time_point t0 = Clock::now();
    server =
        start_daemon(cfg, root + "/d" + std::to_string(rep), p.nproc, {});
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  out.set("setup_s", median(setups), "s", setups.size());
  const std::string& sock = server->config().socket_path;

  // Closed loop in rounds: each round, nproc clients enroll one fresh die
  // each; a new round starts while time is left. Full rounds only, so the
  // load never drops to a few stragglers at the deadline.
  const std::uint64_t die_base = derive(p.seed, kEnrollTag) % 100'000;
  std::uint64_t next = 0;
  std::mutex mu;
  std::vector<double> latency_ms;
  std::vector<std::uint64_t> enrolled;
  std::uint64_t attempted = 0, failed = 0;
  std::unique_ptr<QueueSampler> sampler;
  if (traced) sampler = std::make_unique<QueueSampler>(*server);
  std::vector<std::unique_ptr<flashmark::serve::Client>> clients;
  for (unsigned c = 0; c < p.nproc; ++c)
    clients.push_back(
        std::make_unique<flashmark::serve::Client>(sock));
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < p.seconds) {
    std::vector<std::thread> round;
    for (unsigned c = 0; c < p.nproc; ++c) {
      const std::uint64_t die = die_base + next++;
      round.emplace_back([&, c, die] {
        Request rq;
        rq.request_id = reserve_ids(1);
        rq.op = Op::kEnroll;
        rq.die = die;
        rq.npe = kEnrollNpe;
        rq.deadline_ms = 60'000;
        const Clock::time_point s = Clock::now();
        const Response rs = clients[c]->call_once(rq);
        const double ms =
            std::chrono::duration<double, std::milli>(Clock::now() - s)
                .count();
        std::lock_guard<std::mutex> lk(mu);
        ++attempted;
        if (rs.status == Status::kOk && rs.cycles_run == kEnrollNpe) {
          latency_ms.push_back(ms);
          enrolled.push_back(die);
        } else {
          ++failed;
          out.error("enroll of die " + std::to_string(die) + ": status " +
                    flashmark::serve::to_string(rs.status) + ", cycles_run " +
                    std::to_string(rs.cycles_run) + " (want " +
                    std::to_string(kEnrollNpe) + ")" +
                    (rs.message.empty() ? "" : ": " + rs.message));
        }
      });
    }
    for (auto& t : round) t.join();
  }
  const double wall_s = seconds_between(t0, Clock::now());
  const std::uint64_t queue_max = sampler ? sampler->max_depth() : 0;
  sampler.reset();
  clients.clear();

  out.set("throughput_ops_s", double(enrolled.size()) / wall_s, "1/s",
          enrolled.size());
  // p50 only: a run holds too few enrolls for a p99.
  out.set("p50_ms", quantile(latency_ms, 0.50), "ms", latency_ms.size());

  // Correctness, outside the timed window: every enrolled die verifies
  // genuine with its own die_id (a false reject is a failed operation).
  {
    flashmark::serve::Client client(sock);
    for (std::uint64_t die : enrolled) {
      const Response rs =
          client.call_once(verify_request(reserve_ids(1), die));
      ++attempted;
      const Answer a = classify(rs, die);
      if (a == Answer::kGenuine) continue;
      ++failed;
      const std::string what =
          "enrolled die " + std::to_string(die) + " did not verify genuine: " +
          "status " + flashmark::serve::to_string(rs.status) + ", verdict " +
          flashmark::to_string(rs.verdict);
      if (a == Answer::kWrong) out.error(what);
      else std::fprintf(stderr, "flashbench: %s\n", what.c_str());
    }
  }
  const flashmark::serve::ServerStats st = server->stats();
  const flashmark::store::DieStoreStats ss = server->store().stats();
  if (stop_daemon(server) != 0) out.error("daemon drain failed");
  out.attempted += attempted;
  out.failed += failed;

  if (traced) {
    out.set("serve.queue_depth_max", double(queue_max), "count");
    out.set("serve.shed_frac",
            st.requests ? double(st.overloaded) / double(st.requests) : 0.0,
            "ratio");
    const double pins = double(ss.hits + ss.misses);
    out.set("store.hit_ratio", pins > 0 ? double(ss.hits) / pins : 0.0,
            "ratio", static_cast<std::uint64_t>(pins));
    out.set("store.eviction_saves_per_miss",
            ss.misses ? double(ss.eviction_saves) / double(ss.misses) : 0.0,
            "ratio", ss.misses);
  }
  fs::remove_all(root);
}

namespace {

std::uint64_t lot_failures(const flashmark::lot::LotResult& r) {
  std::uint64_t failed = 0;
  for (const auto& c : r.cells) failed += c.failed;
  return failed;
}

}  // namespace

void run_lot_study(const Params& p, bool traced, Outcome& out) {
  flashmark::lot::LotConfig cfg;
  cfg.master_seed = derive(p.seed, kMasterTag);
  flashmark::lot::LotOptions opts;
  opts.shards = p.nproc;
  opts.threads = 1;

  // Set-up: small warm-up lots (fork path, allocator, page cache).
  std::vector<double> setups;
  for (int rep = 0; rep < 3; ++rep) {
    flashmark::lot::LotConfig warm = cfg;
    warm.n_dies = p.size.lot_warmup_dies;
    const Clock::time_point t0 = Clock::now();
    const auto r = flashmark::lot::run_lot(warm, opts);
    setups.push_back(seconds_between(t0, Clock::now()));
    if (r.shards_lost != 0 || lot_failures(r) != 0)
      out.error("warm-up lot lost a shard or a die");
  }
  out.set("setup_s", median(setups), "s", setups.size());

  cfg.n_dies = p.size.lot_dies;
  std::vector<double> dies_per_s, die_ms, eff;
  std::string detection, ber;
  std::uint64_t attempted = 0, failed = 0;
  const Clock::time_point t0 = Clock::now();
  do {
    const Clock::time_point s = Clock::now();
    const auto r = flashmark::lot::run_lot(cfg, opts);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - s).count();
    dies_per_s.push_back(double(cfg.n_dies) / (ms / 1e3));
    die_ms.push_back(r.die_wall_ms.mean());
    eff.push_back(r.fleet.cpu_ms / (r.wall_ms * double(r.shards_used)));
    attempted += cfg.n_dies;
    const std::uint64_t bad =
        r.shards_lost != 0 ? cfg.n_dies : lot_failures(r);
    failed += bad;
    if (bad != 0) out.error("lot run lost a shard or failed a die");
    if (detection.empty()) {
      detection = r.detection_csv();
      ber = r.ber_csv();
    } else if (r.detection_csv() != detection || r.ber_csv() != ber) {
      out.error("lot CSVs differ between repeated runs of one config");
    }
  } while (seconds_between(t0, Clock::now()) < p.seconds);

  // Two separate timings: dies/s of whole lots (fork, wire and merge
  // included) and the per-die job wall time inside the shards
  // (LotResult::die_wall_ms mean), each a median over the lots. No p99:
  // die_wall_ms keeps no per-die quantiles.
  out.set("throughput_ops_s", median(dies_per_s), "1/s", dies_per_s.size());
  out.set("p50_ms", median(die_ms), "ms", die_ms.size());
  if (traced) {
    out.set("lot.die_ms", median(die_ms), "ms", die_ms.size());
    out.set("lot.parallel_eff", median(eff), "ratio", eff.size());
  }

  // Correctness, outside the timed window: the sharded CSVs equal a
  // one-shard run of the same config byte for byte.
  flashmark::lot::LotOptions one;
  one.shards = 1;
  one.threads = 1;
  const auto ref = flashmark::lot::run_lot(cfg, one);
  if (ref.detection_csv() != detection || ref.ber_csv() != ber)
    out.error("lot CSVs with shards=" + std::to_string(p.nproc) +
              " differ from shards=1");
  out.attempted += attempted;
  out.failed += failed;
}

}  // namespace flashbench
