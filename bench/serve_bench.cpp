// Serving perf smoke: drives an in-process flashmarkd (src/serve) with 10^4
// concurrent verify requests from a fleet of persistent-connection clients
// and pins the verify throughput and latency quantiles in BENCH_serve.json
// (repo root).
//
//   serve_bench --write [path]  re-measure and (over)write the pin file
//   serve_bench --check [path]  exit 2 before measuring if the pin file is
//                                 missing, malformed, or pins a zero/NaN
//                                 value; re-measure and FAIL (exit 1) if
//                                 * any request fails (non-kOk), or
//                                 * throughput < 50 rps absolute, or
//                                 * throughput < 0.75x its pinned value, or
//                                 * p99 latency > 3x its pinned value
//   serve_bench                 measure and print, no file I/O
//
// `ctest -L perf` runs the --check mode (bench/CMakeLists.txt). Absolute
// rps is host-dependent, so the gate is relative to the pin plus a very
// conservative floor; what the smoke really guards is the request plane —
// an accidental lock across verify_watermark, a queue that serializes, or a
// per-request connection/allocation regression all collapse the measured
// concurrency well past 25%.
//
// The population is pre-imprinted out-of-band (store-backed imprint_batch
// with the fast batch-wear strategy) so the bench measures the serving hot
// path, not enrollment; the daemon discovers the die files at start().
//
// Same deliberate plain-chrono harness as kernel_bench: the check mode
// needs a machine-readable artifact with our own pass/fail policy and no
// JSON dependency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fleet/fleet.hpp"
#include "pin_gate.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "store/die_store.hpp"

namespace flashmark {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kDies = 64;
constexpr std::size_t kRequests = 10'000;
constexpr std::size_t kClients = 16;
constexpr unsigned kWorkers = 8;
constexpr std::uint32_t kNpe = 60'000;

std::string bench_dir() {
  const char* env = std::getenv("TMPDIR");
  std::string dir = (env && *env) ? env : "/tmp";
  dir += "/flashmark_serve_bench";
  return dir;
}

/// Imprint kDies dies directly into `<data_dir>/dies` with the exact spec
/// the daemon would use for enrollment (seed/key/replicas/ecc), except via
/// the fast batch-wear strategy — the serving plane only sees the final die
/// files, so enrollment speed is out of scope here.
void populate(const serve::ServerConfig& cfg) {
  store::DieStoreConfig sc;
  sc.dir = cfg.data_dir + "/dies";
  sc.device = cfg.device;
  sc.max_resident = kDies;
  sc.seed_of = [&cfg](std::size_t die) {
    return fleet::derive_die_seed(cfg.master_seed, die);
  };
  fs::create_directories(sc.dir);
  store::DieStore dies(sc);

  const auto spec_of = [&cfg](std::size_t die) {
    WatermarkSpec spec;
    spec.fields.manufacturer_id = cfg.manufacturer_id;
    spec.fields.die_id = static_cast<std::uint32_t>(die);
    spec.fields.speed_grade = cfg.speed_grade;
    spec.fields.status = TestStatus::kAccept;
    spec.fields.date_code = cfg.date_code;
    spec.key = cfg.key;
    spec.n_replicas = cfg.n_replicas;
    spec.npe = kNpe;
    spec.strategy = ImprintStrategy::kBatchWear;
    spec.ecc = cfg.verify.ecc;
    return spec;
  };
  fleet::FleetOptions fo;
  fo.threads = kWorkers;
  fleet::imprint_batch(dies, kDies, cfg.segment, spec_of, fo);
  if (!dies.flush_all()) {
    std::fprintf(stderr, "FAIL: population flush: %s\n",
                 dies.last_save_error().error.c_str());
    std::exit(1);
  }
}

struct Results {
  double wall_s = 0;
  double throughput_rps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  std::uint64_t failures = 0;
};

Results run_load(const std::string& endpoint, std::size_t n_requests) {
  std::vector<double> latency_ms(n_requests, 0.0);
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> failures{0};

  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::Client client(endpoint);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_requests) return;
        serve::Request rq;
        rq.request_id = i + 1;
        rq.op = serve::Op::kVerify;
        rq.die = i % kDies;
        rq.deadline_ms = 20'000;
        const Clock::time_point s = Clock::now();
        const serve::Response rs = client.call(rq);
        latency_ms[i] =
            std::chrono::duration<double, std::milli>(Clock::now() - s)
                .count();
        if (rs.status != serve::Status::kOk ||
            rs.verdict != Verdict::kGenuine)
          failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : clients) t.join();

  Results r;
  r.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  r.throughput_rps = double(n_requests) / r.wall_s;
  r.failures = failures.load();
  std::sort(latency_ms.begin(), latency_ms.end());
  r.p50_ms = latency_ms[n_requests / 2];
  r.p99_ms = latency_ms[(n_requests * 99) / 100];
  return r;
}

std::string to_json(const Results& r) {
  char buf[64];
  std::ostringstream os;
  os << "{\n";
  os << "  \"n_requests\": " << kRequests << ",\n";
  os << "  \"clients\": " << kClients << ",\n";
  os << "  \"workers\": " << kWorkers << ",\n";
  os << "  \"dies\": " << kDies << ",\n";
  std::snprintf(buf, sizeof buf, "%.1f", r.throughput_rps);
  os << "  \"throughput_rps\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", r.p50_ms);
  os << "  \"p50_ms\": " << buf << ",\n";
  std::snprintf(buf, sizeof buf, "%.3f", r.p99_ms);
  os << "  \"p99_ms\": " << buf << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace
}  // namespace flashmark

int main(int argc, char** argv) {
  using namespace flashmark;
  bool write = false, check = false;
  std::string path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0)
      write = true;
    else if (std::strcmp(argv[i], "--check") == 0)
      check = true;
    else
      path = argv[i];
  }

  std::optional<util::PinFile> pins;
  if (check) {
    pins = bench::load_gate_pins(path, {"throughput_rps", "p99_ms"});
    if (!pins) return 2;
  }

  const std::string dir = bench_dir();
  fs::remove_all(dir);
  fs::create_directories(dir);

  serve::ServerConfig cfg;
  cfg.socket_path = dir + "/bench.sock";
  cfg.data_dir = dir + "/data";
  cfg.workers = kWorkers;
  cfg.queue_capacity = 256;
  cfg.max_connections = kClients + 8;
  cfg.max_dies = kDies;
  cfg.max_resident = kDies;
  // The production incoming-inspection recipe (multi-round majority reads,
  // 30us window): single-read verification leaves borderline cells at the
  // mercy of per-read noise, which would make the failure gate flaky.
  cfg.verify.t_pew = SimTime::us(30);
  cfg.verify.rounds = 3;
  cfg.verify.n_reads = 3;

  std::printf("populating %zu dies (npe %u, batch wear)...\n", kDies,
              unsigned(kNpe));
  populate(cfg);

  serve::Server server(cfg);
  server.start();
  // Warm-up: first-touch costs (store loads, allocator, page cache) land in
  // a discarded pass so the measured tail reflects steady-state serving.
  (void)run_load(cfg.socket_path, 1'000);
  std::printf("driving %zu verifies over %zu clients x %u workers...\n",
              kRequests, kClients, kWorkers);
  const Results r = run_load(cfg.socket_path, kRequests);
  server.request_drain();
  const int drain_rc = server.wait();
  fs::remove_all(dir);

  std::printf(
      "verify  %zu requests in %.2f s   %8.1f rps   p50 %7.3f ms   p99 "
      "%7.3f ms   failures %llu\n",
      kRequests, r.wall_s, r.throughput_rps, r.p50_ms, r.p99_ms,
      static_cast<unsigned long long>(r.failures));

  bool ok = true;
  if (r.failures != 0) {
    std::fprintf(stderr, "FAIL: %llu requests did not verify genuine\n",
                 static_cast<unsigned long long>(r.failures));
    ok = false;
  }
  if (drain_rc != 0) {
    std::fprintf(stderr, "FAIL: drain exited %d\n", drain_rc);
    ok = false;
  }

  if (check) {
    if (r.throughput_rps < 50.0) {
      std::fprintf(stderr, "FAIL: throughput %.1f rps under the 50 rps floor\n",
                   r.throughput_rps);
      ok = false;
    }
    const double pin_rps = *pins->get("throughput_rps");
    const double pin_p99 = *pins->get("p99_ms");
    if (r.throughput_rps < 0.75 * pin_rps) {
      std::fprintf(stderr,
                   "FAIL: throughput %.1f rps < 0.75x pinned %.1f rps\n",
                   r.throughput_rps, pin_rps);
      ok = false;
    }
    // 3x headroom: the p99 of a loaded box is far noisier than the
    // aggregate rps, and the throughput gate already catches uniform
    // slowdowns — this one exists for tail-only regressions (a stall
    // under the queue lock, a serialized store path).
    if (r.p99_ms > pin_p99 * 3.0) {
      std::fprintf(stderr, "FAIL: p99 %.3f ms > 3x pinned %.3f ms\n",
                   r.p99_ms, pin_p99);
      ok = false;
    }
  }
  if (write && ok) {
    std::ofstream out(path);
    out << to_json(r);
    std::printf("wrote %s\n", path.c_str());
  }
  return ok ? 0 : 1;
}
