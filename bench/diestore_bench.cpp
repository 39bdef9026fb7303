// Out-of-core store perf smoke: measures the columnar die format v3
// (flash/die_format.*) against the v2 text format on the operations the
// DieStore pays for — checkpoint (serialize + atomic replace of a dirty
// die) and resume (load_device_file of an existing die file) — plus the
// end-to-end eviction throughput of a thrashing DieStore, and pins the
// results in BENCH_diestore.json (repo root).
//
//   diestore_bench --write [path]  re-measure and (over)write the pin file
//   diestore_bench --check [path]  exit 2 before measuring if the pin file
//                                  is missing, malformed, or pins a zero/NaN
//                                  speedup; re-measure and FAIL (exit 1) if
//                                  * checkpoint speedup (v2 / v3) < 2.0x, or
//                                  * resume speedup (v2 / v3) < 2.0x, or
//                                  * either speedup < 0.75x its pinned value
//   diestore_bench                 measure and print, no file I/O
//
// `ctest -L perf` runs the --check mode (bench/CMakeLists.txt). As with
// kernel_bench, absolute ns are host-dependent but the v2/v3 *ratios* are
// stable: both formats persist the same die on the same disk, so a ratio
// collapse means the columnar path lost its memcpy property (someone added
// per-cell work to serialize_die_v3 or eager hydration to the v3 loader).
//
// Same deliberate plain-chrono harness as kernel_bench: the check mode
// needs a machine-readable artifact with our own pass/fail policy and no
// JSON dependency.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "mcu/device.hpp"
#include "mcu/persist.hpp"
#include "pin_gate.hpp"
#include "store/die_store.hpp"
#include "util/fsio.hpp"

namespace flashmark {
namespace {

constexpr std::uint64_t kSeed = 0xD1E5'70;
constexpr double kMinSeconds = 0.15;  // per measured case

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string bench_dir() {
  const char* env = std::getenv("TMPDIR");
  std::string dir = (env && *env) ? env : "/tmp";
  dir += "/flashmark_diestore_bench";
  return dir;
}

/// A die in the checkpoint-relevant state: several segments carrying
/// watermark-like wear so the columns hold real (non-fresh) data.
std::unique_ptr<Device> make_dirty_die(int segments) {
  auto dev = std::make_unique<Device>(DeviceConfig::msp430f5438(), kSeed);
  const FlashGeometry& g = dev->config().geometry;
  const std::vector<std::uint16_t> zeros(256, 0);
  for (int s = 0; s < segments; ++s) {
    dev->array().program_words(g.segment_base(std::size_t(s)), zeros.data(),
                               zeros.size());
    dev->array().partial_erase_segment(std::size_t(s), 26.0);
  }
  return dev;
}

/// ns per full checkpoint (serialize + atomic file replace) of a 4-segment
/// dirty die. Out parameter reports the die-file size for the bytes/s rate.
double bench_checkpoint(DieFileFormat fmt, std::size_t* file_bytes) {
  const auto dev = make_dirty_die(4);
  const std::string path = bench_dir() + "/ckpt.fm";
  auto rep = [&] {
    if (const IoStatus st = save_device_file(*dev, path, fmt); !st) {
      std::fprintf(stderr, "FAIL: checkpoint: %s\n", st.error.c_str());
      std::exit(1);
    }
  };
  rep();  // warm-up; also leaves the file for the size probe
  {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    *file_bytes = std::size_t(in.tellg());
  }
  long reps = 0;
  const auto t0 = Clock::now();
  do {
    rep();
    ++reps;
  } while (seconds_since(t0) < kMinSeconds);
  return seconds_since(t0) * 1e9 / double(reps);
}

/// ns per resume (load_device_file of an existing die file). For v3 this is
/// the map-and-go path: validation touches every blob CRC but no cell is
/// hydrated; for v2 it is the full text parse.
double bench_resume(DieFileFormat fmt) {
  const auto dev = make_dirty_die(4);
  const std::string path = bench_dir() + "/resume.fm";
  if (const IoStatus st = save_device_file(*dev, path, fmt); !st) {
    std::fprintf(stderr, "FAIL: resume setup: %s\n", st.error.c_str());
    std::exit(1);
  }
  std::size_t sink = 0;
  auto rep = [&] {
    sink += load_device_file(path)->config().geometry.n_segments();
  };
  rep();
  long reps = 0;
  const auto t0 = Clock::now();
  do {
    rep();
    ++reps;
  } while (seconds_since(t0) < kMinSeconds);
  if (sink == std::size_t(-1)) std::cerr << "";  // keep sink live
  return seconds_since(t0) * 1e9 / double(reps);
}

/// Dies per second through a thrashing DieStore: population 64, residency 8,
/// every pin dirties the die so each eviction pays a columnar save. One rep
/// walks the whole population once (64 pins, ~56 evictions after warm-up).
double bench_eviction(std::size_t* population, std::size_t* residency) {
  *population = 64;
  *residency = 8;
  store::DieStoreConfig cfg;
  cfg.dir = bench_dir() + "/evict";
  cfg.device = DeviceConfig::msp430f5438();
  cfg.max_resident = *residency;
  store::DieStore dies(cfg);
  const std::vector<std::uint16_t> zeros(256, 0);
  auto rep = [&] {
    for (std::size_t die = 0; die < *population; ++die) {
      store::DieStore::PinnedDie d = dies.pin(die);
      const Addr base = d->config().geometry.segment_base(0);
      d->array().program_words(base, zeros.data(), zeros.size());
      d->array().partial_erase_segment(0, 26.0);
    }
  };
  rep();  // warm-up: manufactures the population, seeds the die files
  long reps = 0;
  const auto t0 = Clock::now();
  do {
    rep();
    ++reps;
  } while (seconds_since(t0) < kMinSeconds);
  const double elapsed = seconds_since(t0);
  return double(reps) * double(*population) / elapsed;
}

struct Results {
  double ckpt_v2_ns = 0, ckpt_v3_ns = 0;
  std::size_t ckpt_v2_bytes = 0, ckpt_v3_bytes = 0;
  double resume_v2_ns = 0, resume_v3_ns = 0;
  double evict_dies_per_s = 0;
  std::size_t evict_population = 0, evict_residency = 0;

  double checkpoint_speedup() const { return ckpt_v2_ns / ckpt_v3_ns; }
  double resume_speedup() const { return resume_v2_ns / resume_v3_ns; }
  double checkpoint_v3_bytes_per_s() const {
    return double(ckpt_v3_bytes) * 1e9 / ckpt_v3_ns;
  }
};

std::string to_json(const Results& r) {
  std::ostringstream os;
  char buf[64];
  os << "{\n";
  os << "  \"checkpoint_v2_ns\": " << long(r.ckpt_v2_ns) << ",\n";
  os << "  \"checkpoint_v3_ns\": " << long(r.ckpt_v3_ns) << ",\n";
  os << "  \"checkpoint_v2_bytes\": " << r.ckpt_v2_bytes << ",\n";
  os << "  \"checkpoint_v3_bytes\": " << r.ckpt_v3_bytes << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", r.checkpoint_speedup());
  os << "  \"checkpoint_speedup\": " << buf << ",\n";
  os << "  \"checkpoint_v3_bytes_per_s\": "
     << long(r.checkpoint_v3_bytes_per_s()) << ",\n";
  os << "  \"resume_v2_ns\": " << long(r.resume_v2_ns) << ",\n";
  os << "  \"resume_v3_ns\": " << long(r.resume_v3_ns) << ",\n";
  std::snprintf(buf, sizeof buf, "%.2f", r.resume_speedup());
  os << "  \"resume_speedup\": " << buf << ",\n";
  os << "  \"evict_population\": " << r.evict_population << ",\n";
  os << "  \"evict_residency\": " << r.evict_residency << ",\n";
  std::snprintf(buf, sizeof buf, "%.1f", r.evict_dies_per_s);
  os << "  \"evict_dies_per_s\": " << buf << "\n";
  os << "}\n";
  return os.str();
}

int run(int argc, char** argv) {
  bool write = false, check = false;
  std::string path = "BENCH_diestore.json";
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
    pins = bench::load_gate_pins(path,
                                 {"checkpoint_speedup", "resume_speedup"});
    if (!pins) return 2;
  }

  if (const IoStatus st = make_dirs(bench_dir()); !st) {
    std::fprintf(stderr, "FAIL: %s\n", st.error.c_str());
    return 1;
  }

  Results r;
  r.ckpt_v2_ns = bench_checkpoint(DieFileFormat::kTextV2, &r.ckpt_v2_bytes);
  r.ckpt_v3_ns = bench_checkpoint(DieFileFormat::kColumnarV3, &r.ckpt_v3_bytes);
  r.resume_v2_ns = bench_resume(DieFileFormat::kTextV2);
  r.resume_v3_ns = bench_resume(DieFileFormat::kColumnarV3);
  r.evict_dies_per_s = bench_eviction(&r.evict_population, &r.evict_residency);

  std::printf("checkpoint  v2 %10.0f ns (%zu B)   v3 %10.0f ns (%zu B)   %5.2fx\n",
              r.ckpt_v2_ns, r.ckpt_v2_bytes, r.ckpt_v3_ns, r.ckpt_v3_bytes,
              r.checkpoint_speedup());
  std::printf("resume      v2 %10.0f ns          v3 %10.0f ns          %5.2fx\n",
              r.resume_v2_ns, r.resume_v3_ns, r.resume_speedup());
  std::printf("eviction    %zu dies / residency %zu: %.0f dies/s\n",
              r.evict_population, r.evict_residency, r.evict_dies_per_s);

  if (write) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << to_json(r);
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("[pin written: %s]\n", path.c_str());
    return 0;
  }

  if (check) {
    bool ok = true;
    if (r.checkpoint_speedup() < 2.0) {
      std::fprintf(stderr,
                   "FAIL: checkpoint speedup %.2fx < 2.0x floor "
                   "(columnar serialize lost its memcpy property?)\n",
                   r.checkpoint_speedup());
      ok = false;
    }
    if (r.resume_speedup() < 2.0) {
      std::fprintf(stderr,
                   "FAIL: resume speedup %.2fx < 2.0x floor "
                   "(v3 loader hydrating eagerly?)\n",
                   r.resume_speedup());
      ok = false;
    }
    const double pin_ckpt = *pins->get("checkpoint_speedup");
    const double pin_resume = *pins->get("resume_speedup");
    if (r.checkpoint_speedup() < 0.75 * pin_ckpt) {
      std::fprintf(stderr,
                   "FAIL: checkpoint speedup %.2fx regressed >25%% vs "
                   "pinned %.2fx (%s)\n",
                   r.checkpoint_speedup(), pin_ckpt, path.c_str());
      ok = false;
    }
    if (r.resume_speedup() < 0.75 * pin_resume) {
      std::fprintf(stderr,
                   "FAIL: resume speedup %.2fx regressed >25%% vs "
                   "pinned %.2fx (%s)\n",
                   r.resume_speedup(), pin_resume, path.c_str());
      ok = false;
    }
    if (ok)
      std::printf("[check ok: ckpt %.2fx vs %.2fx, resume %.2fx vs %.2fx]\n",
                  r.checkpoint_speedup(), pin_ckpt, r.resume_speedup(),
                  pin_resume);
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace
}  // namespace flashmark

int main(int argc, char** argv) { return flashmark::run(argc, argv); }
