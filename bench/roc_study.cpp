// Detector-calibration ROC study (src/scenario): genuine vs. adversary
// populations at lot scale, emitting ROC curves and calibrated operating
// thresholds per scenario.
//
//   roc_study [--dies N] [--shards S] [--threads T] [--csv-out DIR]
//       run the full scenario battery (genuine + six adversary pathways) at
//       N dies per population (default 256), write roc_curves.csv +
//       roc_thresholds.csv (into DIR, default CWD), print the thresholds.
//       The 10^4-die reproduction recipe is in EXPERIMENTS.md ("Adversary
//       ROC calibration").
//
//   roc_study --write [path]   smoke-size the study, verify the shard x
//       thread invariance matrix, measure throughput, (over)write the pin
//       file (default BENCH_roc.json in the CWD; ctest passes the repo
//       root).
//   roc_study --check [path]   exit 2 before measuring if the pin file is
//       missing, malformed, or pins a zero/NaN dies_per_s; otherwise the
//       same measurement, then FAIL (exit 1) if
//       * any shard x thread split of {1,2} x {1,4} produces different
//         curve or threshold bytes (REPRODUCIBILITY.md §9/§11), or
//       * throughput < 2 dies/s floor, or
//       * throughput < 0.75x the pinned dies_per_s.
//
// `ctest -L perf` runs the --check mode (roc_perf_smoke). A die here is
// far heavier than a lot_study die (a full scenario chain plus six
// challenge interrogations), so the floor is low; the byte-identity gate
// is exact and the 25% ratio gate catches the per-die pipeline growing
// real work (e.g. the scenario imprint falling off the batched-wear path).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "pin_gate.hpp"
#include "scenario/roc.hpp"

namespace flashmark {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The full threat-model battery (DESIGN.md §16): populations[0] genuine,
/// the rest the canned counterfeit pathways.
scenario::RocConfig full_config(std::uint64_t dies_per_population) {
  scenario::RocConfig cfg;
  cfg.dies_per_population = dies_per_population;
  cfg.populations = {
      scenario::Scenario::genuine_fresh(),
      scenario::Scenario::recycled_resale(),
      scenario::Scenario::recycled_bake(),
      scenario::Scenario::recycled_remap(),
      scenario::Scenario::remarked_recycled(),
      scenario::Scenario::partial_clone(),
      scenario::Scenario::full_clone(),
  };
  return cfg;
}

/// Smoke battery for the pin/check modes: the two scenario families with
/// the most machinery behind them (FTL aging + freshness probing, partial
/// cloning + subset decode) against genuine, small enough that the 4-run
/// invariance matrix stays under a minute.
scenario::RocConfig smoke_config() {
  scenario::RocConfig cfg;
  cfg.dies_per_population = 16;
  cfg.base.n_challenges = 3;
  cfg.populations = {
      scenario::Scenario::genuine_fresh(),
      scenario::Scenario::recycled_resale(),
      scenario::Scenario::partial_clone(),
  };
  return cfg;
}

bool write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  return out.good();
}

struct SmokeResult {
  bool invariant = true;
  std::string first_divergence;  // "shards=2,threads=4 roc" etc.
  double dies_per_s = 0.0;
  std::uint64_t dies_total = 0;
  int runs = 0;
};

/// Run the shard x thread invariance matrix on the smoke battery,
/// byte-compare every split's CSVs against the shards=1/threads=1
/// reference, and measure aggregate throughput across the matrix.
SmokeResult run_smoke() {
  const scenario::RocConfig cfg = smoke_config();
  const std::uint64_t dies_per_run =
      cfg.dies_per_population * cfg.populations.size();
  SmokeResult r;

  scenario::RocOptions ref_opts;
  ref_opts.shards = 1;
  ref_opts.threads = 1;
  const auto t0 = Clock::now();
  const scenario::RocResult ref = scenario::run_roc_study(cfg, ref_opts);
  const std::string want_roc = ref.roc_csv();
  const std::string want_thr = ref.thresholds_csv();
  r.dies_total += dies_per_run;
  ++r.runs;

  for (unsigned shards : {1u, 2u}) {
    for (unsigned threads : {1u, 4u}) {
      if (shards == 1 && threads == 1) continue;
      scenario::RocOptions opts;
      opts.shards = shards;
      opts.threads = threads;
      const scenario::RocResult got = scenario::run_roc_study(cfg, opts);
      r.dies_total += dies_per_run;
      ++r.runs;
      const bool roc_ok = got.roc_csv() == want_roc;
      const bool thr_ok = got.thresholds_csv() == want_thr;
      if ((!roc_ok || !thr_ok) && r.invariant) {
        r.invariant = false;
        char buf[64];
        std::snprintf(buf, sizeof buf, "shards=%u,threads=%u %s", shards,
                      threads, roc_ok ? "thresholds" : "roc");
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
  std::snprintf(buf, sizeof buf, "%.1f", r.dies_per_s);
  os << "  \"dies_per_s\": " << buf << "\n";
  os << "}\n";
  return os.str();
}

int run_study(std::uint64_t dies, unsigned shards, unsigned threads,
              const std::string& csv_dir) {
  const scenario::RocConfig cfg = full_config(dies);
  scenario::RocOptions opts;
  opts.shards = shards;
  opts.threads = threads;
  std::printf("roc study: %llu dies x %zu populations, %u shard(s) x %u "
              "thread(s)\n",
              static_cast<unsigned long long>(dies), cfg.populations.size(),
              shards, threads);
  const scenario::RocResult r = scenario::run_roc_study(cfg, opts);

  const std::string roc = r.roc_csv();
  const std::string thr = r.thresholds_csv();
  std::printf("\n%s\n", thr.c_str());
  const std::string prefix = csv_dir.empty() ? "" : csv_dir + "/";
  if (write_file(prefix + "roc_curves.csv", roc))
    std::printf("[csv written: %sroc_curves.csv]\n", prefix.c_str());
  if (write_file(prefix + "roc_thresholds.csv", thr))
    std::printf("[csv written: %sroc_thresholds.csv]\n", prefix.c_str());
  return 0;
}

int run(int argc, char** argv) {
  bool write = false, check = false;
  std::string path = "BENCH_roc.json";
  std::string csv_dir;
  std::uint64_t dies = 256;
  unsigned shards = 2, threads = 4;
  for (int i = 1; i < argc; ++i) {
    const auto str = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "usage: roc_study [--dies N] [--shards S] [--threads T] "
                     "[--csv-out DIR] | --write|--check [path]\n");
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--write") == 0)
      write = true;
    else if (std::strcmp(argv[i], "--check") == 0)
      check = true;
    else if (std::strcmp(argv[i], "--dies") == 0)
      dies = std::strtoull(str(), nullptr, 10);
    else if (std::strcmp(argv[i], "--shards") == 0)
      shards = static_cast<unsigned>(std::strtoul(str(), nullptr, 10));
    else if (std::strcmp(argv[i], "--threads") == 0)
      threads = static_cast<unsigned>(std::strtoul(str(), nullptr, 10));
    else if (std::strcmp(argv[i], "--csv-out") == 0)
      csv_dir = str();
    else
      path = argv[i];
  }

  if (!write && !check) return run_study(dies, shards, threads, csv_dir);

  // Validate the pin BEFORE measuring: a corrupt pin must exit 2 fast.
  std::optional<util::PinFile> pins;
  if (check) {
    pins = bench::load_gate_pins(path, {"dies_per_s"});
    if (!pins) return 2;
  }

  const SmokeResult r = run_smoke();
  std::printf("smoke: %llu dies over %d runs, %.2f dies/s, invariance %s\n",
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
                 "FAIL: ROC CSVs diverge across shard/thread splits (%s) — "
                 "the REPRODUCIBILITY.md §9 contract is broken\n",
                 r.first_divergence.c_str());
    ok = false;
  }
  if (r.dies_per_s < 2.0) {
    std::fprintf(stderr,
                 "FAIL: %.2f dies/s < 2 dies/s floor (scenario pipeline "
                 "fell off the batched-wear path?)\n",
                 r.dies_per_s);
    ok = false;
  }
  const double pin = *pins->get("dies_per_s");
  if (r.dies_per_s < 0.75 * pin) {
    std::fprintf(stderr,
                 "FAIL: %.2f dies/s regressed >25%% vs pinned %.1f (%s)\n",
                 r.dies_per_s, pin, path.c_str());
    ok = false;
  }
  if (ok)
    std::printf("[check ok: %.2f dies/s vs pinned %.1f, invariance ok]\n",
                r.dies_per_s, pin);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace flashmark

int main(int argc, char** argv) { return flashmark::run(argc, argv); }
