// Lot-scale population study (src/lot): detection-probability and BER
// curves with confidence intervals over 10^5..10^6 simulated dies, sharded
// over worker processes.
//
//   lot_study [--dies N] [--shards S] [--threads T]
//       run one study (default 4096 dies over the full npe x condition
//       grid), write lot_detection.csv + lot_ber.csv next to the binary,
//       print a summary. The 10^5-die reproduction recipe is in
//       EXPERIMENTS.md ("Lot-scale detection curves").
//
//   lot_study --write [path]   smoke-size the study, verify the
//       shard-invariance contract, measure throughput, (over)write the pin
//       file (default BENCH_lot.json in the CWD; ctest passes the repo
//       root).
//   lot_study --check [path]   exit 2 before measuring if the pin file is
//       missing, malformed, or pins a zero/NaN dies_per_s; otherwise the
//       same measurement, then FAIL (exit 1) if
//       * any shard x thread split of {1,2,8} x {1,4} produces different
//         curve bytes (the REPRODUCIBILITY.md §9 contract), or
//       * throughput < 100 dies/s floor, or
//       * throughput < 0.75x the pinned dies_per_s.
//
// `ctest -L perf` runs the --check mode (lot_perf_smoke). Absolute dies/s
// is host-dependent, but a 25% collapse against the pin on the same host
// means the per-die pipeline grew real work (e.g. the imprint fell off the
// batched-wear path) — the ratio gate catches that without flakiness, and
// the byte-identity gate is exact. Same plain-chrono, no-JSON-dependency
// harness as kernel_bench / diestore_bench.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "lot/lot.hpp"
#include "pin_gate.hpp"

namespace flashmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Full-grid study configuration (the paper-style sweep): three imprint
/// depths crossed with fresh/hot/recycled corners.
lot::LotConfig full_config(std::uint64_t dies) {
  lot::LotConfig cfg;
  cfg.n_dies = dies;
  return cfg;  // defaults: npe {20k,40k,60k} x {25C/70C} x {w0/w1500}
}

/// Smoke-size grid for the pin/check modes: 2x2 cells, enough dies that
/// every cell has a meaningful Wilson interval, small enough that the
/// 6-run invariance matrix stays in seconds.
lot::LotConfig smoke_config() {
  lot::LotConfig cfg;
  cfg.n_dies = 768;
  cfg.npe_points = {20'000, 60'000};
  cfg.conditions = {{25.0, 0.0}, {70.0, 1'500.0}};
  return cfg;
}

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return out.good();
}

struct SmokeResult {
  bool invariant = true;
  std::string first_divergence;  // "shards=2,threads=4 detection" etc.
  double dies_per_s = 0.0;
  std::uint64_t dies_total = 0;
  int runs = 0;
};

/// Run the shard x thread invariance matrix on the smoke lot, byte-compare
/// every split's curves against the shards=1/threads=1 reference, and
/// measure aggregate throughput across the matrix.
SmokeResult run_smoke() {
  const lot::LotConfig cfg = smoke_config();
  SmokeResult r;

  lot::LotOptions ref_opts;
  ref_opts.shards = 1;
  ref_opts.threads = 1;
  const auto t0 = Clock::now();
  const lot::LotResult ref = lot::run_lot(cfg, ref_opts);
  const std::string want_det = ref.detection_csv();
  const std::string want_ber = ref.ber_csv();
  r.dies_total += cfg.n_dies;
  ++r.runs;

  for (unsigned shards : {1u, 2u, 8u}) {
    for (unsigned threads : {1u, 4u}) {
      if (shards == 1 && threads == 1) continue;
      lot::LotOptions opts;
      opts.shards = shards;
      opts.threads = threads;
      const lot::LotResult got = lot::run_lot(cfg, opts);
      r.dies_total += cfg.n_dies;
      ++r.runs;
      const bool det_ok = got.detection_csv() == want_det;
      const bool ber_ok = got.ber_csv() == want_ber;
      if ((!det_ok || !ber_ok) && r.invariant) {
        r.invariant = false;
        char buf[64];
        std::snprintf(buf, sizeof buf, "shards=%u,threads=%u %s", shards,
                      threads, det_ok ? "ber" : "detection");
        r.first_divergence = buf;
      }
    }
  }
  r.dies_per_s = double(r.dies_total) / seconds_since(t0);
  return r;
}

std::string to_json(const SmokeResult& r) {
  std::ostringstream os;
  char buf[64];
  os << "{\n";
  os << "  \"smoke_dies\": " << r.dies_total << ",\n";
  os << "  \"matrix_runs\": " << r.runs << ",\n";
  // 0/1, not a JSON bool: the pin file is read back by the strict
  // numbers-only parser (util/pinfile.hpp).
  os << "  \"shard_invariant\": " << (r.invariant ? 1 : 0) << ",\n";
  std::snprintf(buf, sizeof buf, "%.1f", r.dies_per_s);
  os << "  \"dies_per_s\": " << buf << "\n";
  os << "}\n";
  return os.str();
}

int run_study(std::uint64_t dies, unsigned shards, unsigned threads) {
  const lot::LotConfig cfg = full_config(dies);
  lot::LotOptions opts;
  opts.shards = shards;
  opts.threads = threads;
  std::printf("lot study: %llu dies, %zu cells, %u shard(s) x %u thread(s)\n",
              static_cast<unsigned long long>(dies), cfg.n_cells(), shards,
              threads);
  const lot::LotResult r = lot::run_lot(cfg, opts);

  const std::string det = r.detection_csv();
  const std::string ber = r.ber_csv();
  std::cout << "\n" << det << "\n" << ber << "\n";
  if (write_file("lot_detection.csv", det))
    std::printf("[csv written: lot_detection.csv]\n");
  if (write_file("lot_ber.csv", ber))
    std::printf("[csv written: lot_ber.csv]\n");
  r.print_summary(std::cerr);
  if (r.interrupted_signal != 0) {
    // The library contained the signal (partial result above is honest);
    // exiting on it is the binary's call — die with the conventional
    // signal disposition so callers (shells, CI) see the interruption.
    std::fprintf(stderr, "interrupted by signal %d\n", r.interrupted_signal);
    std::signal(r.interrupted_signal, SIG_DFL);
    std::raise(r.interrupted_signal);
  }
  if (r.shards_lost) {
    std::fprintf(stderr, "FAIL: %llu shard(s) lost\n",
                 static_cast<unsigned long long>(r.shards_lost));
    return 1;
  }
  return 0;
}

int run(int argc, char** argv) {
  bool write = false, check = false;
  std::string path = "BENCH_lot.json";
  std::uint64_t dies = 4096;
  unsigned shards = 4, threads = 1;
  for (int i = 1; i < argc; ++i) {
    const auto num = [&](std::uint64_t* out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "usage: lot_study [--dies N] [--shards S] "
                             "[--threads T] | --write|--check [path]\n");
        std::exit(2);
      }
      *out = std::strtoull(argv[++i], nullptr, 10);
    };
    std::uint64_t v = 0;
    if (std::strcmp(argv[i], "--write") == 0)
      write = true;
    else if (std::strcmp(argv[i], "--check") == 0)
      check = true;
    else if (std::strcmp(argv[i], "--dies") == 0)
      num(&dies);
    else if (std::strcmp(argv[i], "--shards") == 0) {
      num(&v);
      shards = static_cast<unsigned>(v);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      num(&v);
      threads = static_cast<unsigned>(v);
    } else
      path = argv[i];
  }

  if (!write && !check) return run_study(dies, shards, threads);

  std::optional<util::PinFile> pins;
  if (check) {
    pins = bench::load_gate_pins(path, {"dies_per_s"});
    if (!pins) return 2;
  }

  const SmokeResult r = run_smoke();
  std::printf("smoke: %llu dies over %d runs, %.1f dies/s, invariance %s\n",
              static_cast<unsigned long long>(r.dies_total), r.runs,
              r.dies_per_s,
              r.invariant ? "ok" : r.first_divergence.c_str());

  if (write) {
    if (!r.invariant) {
      std::fprintf(stderr, "FAIL: shard-invariance broken (%s) — refusing "
                           "to pin\n",
                   r.first_divergence.c_str());
      return 1;
    }
    if (!write_file(path, to_json(r))) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("[pin written: %s]\n", path.c_str());
    return 0;
  }

  bool ok = true;
  if (!r.invariant) {
    std::fprintf(stderr,
                 "FAIL: curve CSVs diverge across shard/thread splits (%s) — "
                 "the REPRODUCIBILITY.md §9 contract is broken\n",
                 r.first_divergence.c_str());
    ok = false;
  }
  if (r.dies_per_s < 100.0) {
    std::fprintf(stderr,
                 "FAIL: %.1f dies/s < 100 dies/s floor (per-die pipeline "
                 "fell off the batched-wear path?)\n",
                 r.dies_per_s);
    ok = false;
  }
  const double pin = *pins->get("dies_per_s");
  if (r.dies_per_s < 0.75 * pin) {
    std::fprintf(stderr,
                 "FAIL: %.1f dies/s regressed >25%% vs pinned %.1f (%s)\n",
                 r.dies_per_s, pin, path.c_str());
    ok = false;
  }
  if (ok)
    std::printf("[check ok: %.1f dies/s vs pinned %.1f, invariance ok]\n",
                r.dies_per_s, pin);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flashmark

int main(int argc, char** argv) { return flashmark::run(argc, argv); }
