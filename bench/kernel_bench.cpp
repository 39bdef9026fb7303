// Kernel-layer perf smoke: measures the segment-granularity kernels
// (src/phys/kernels.*) in both KernelMode paths on identical recipes and
// pins the batched/reference speedup in BENCH_kernels.json (repo root).
//
//   kernel_bench --write [path]   re-measure and (over)write the pin file
//   kernel_bench --check [path]   re-measure and FAIL (exit 1) if
//                                 * erase-pulse speedup < 4.5x, or
//                                 * any case's speedup < 0.75x its pinned
//                                   value (a >25% regression vs the pin)
//   kernel_bench                  measure and print, no file I/O
//
// `ctest -L perf` runs the --check mode (bench/CMakeLists.txt). The pin is
// host-dependent in absolute ns but the *speedup ratio* is stable enough to
// gate on: both paths run the same physics on the same core, so a ratio
// collapse means someone de-vectorized the batched path (or sped up the
// reference path without moving the kernels — also worth a look).
//
// --check validates the pin file BEFORE measuring (bench/pin_gate.hpp): a
// missing, corrupt, truncated, zero or NaN pin exits 2 with a message
// instead of flowing through as -1/NaN and silently passing every ratio
// comparison. A fresh host pins first with --write.
//
// This deliberately uses a plain chrono harness instead of google-benchmark:
// the check mode needs a machine-readable artifact with our own pass/fail
// policy, and the JSON must be trivially parseable without a JSON dep.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "flash/array.hpp"
#include "flash/geometry.hpp"
#include "phys/kernels.hpp"
#include "phys/params.hpp"
#include "pin_gate.hpp"

namespace flashmark {
namespace {

constexpr std::uint64_t kSeed = 0xBEAC'0DE5;

// Each mode is scored as the MINIMUM ns/op over several short windows, and
// the two modes' windows are INTERLEAVED (ref, batched, ref, batched, …).
// Scheduler preemption and noisy-neighbor interference only ever ADD time,
// so the min window is the closest estimate of the undisturbed cost; the
// interleave matters because interference arrives in epochs longer than a
// whole measurement — back-to-back measurement lets one mode soak a bad
// epoch the other never sees, skewing the ratio the gates check.
constexpr int kWindows = 12;
constexpr double kWindowSeconds = 0.025;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One mode's workload: the state lives in the rep closure (shared_ptrs), so
/// both modes' workloads can be alive at once for interleaved measurement.
struct Workload {
  std::function<void()> rep;
  double units_per_rep = 1.0;
};

double one_window_ns_per_unit(const Workload& w) {
  long reps = 0;
  const auto t0 = Clock::now();
  do {
    w.rep();
    ++reps;
  } while (seconds_since(t0) < kWindowSeconds);
  return seconds_since(t0) * 1e9 / (double(reps) * w.units_per_rep);
}

/// Interleaved min-of-windows for a (reference, batched) pair.
std::pair<double, double> measure_pair(const Workload& ref,
                                       const Workload& bat) {
  ref.rep();  // warm-up: materializes segments, touches the tte caches
  bat.rep();
  double ref_ns = std::numeric_limits<double>::infinity();
  double bat_ns = ref_ns;
  for (int w = 0; w < kWindows; ++w) {
    ref_ns = std::min(ref_ns, one_window_ns_per_unit(ref));
    bat_ns = std::min(bat_ns, one_window_ns_per_unit(bat));
  }
  return {ref_ns, bat_ns};
}

/// ns per erase pulse on the extract-shaped workload: one rep = program
/// all-zeros + 4 pulses of 30 us (the paper's partial-erase window). Pulse 1
/// hits a fully programmed segment (per-cell jitter draws); later pulses see
/// the mixed programmed/erased population extraction and characterization
/// sweeps spend their time in. Every rep starts from the same state, and the
/// amortized program step is included identically in both modes.
Workload make_erase_pulse(KernelMode mode) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  auto a = std::make_shared<FlashArray>(g, PhysParams::msp430_calibrated(),
                                        kSeed);
  a->set_kernel_mode(mode);
  auto zeros = std::make_shared<std::vector<std::uint16_t>>(256, 0);
  constexpr int kPulses = 4;
  return {[g, a, zeros] {
            a->erase_segment(0);
            a->program_words(g.segment_base(0), zeros->data(), zeros->size());
            for (int i = 0; i < kPulses; ++i) a->partial_erase_segment(0, 30.0);
          },
          double(kPulses)};
}

/// ns per 3-read majority segment read (the analyze/extract hot loop).
Workload make_read_majority(KernelMode mode) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  auto a = std::make_shared<FlashArray>(g, PhysParams::msp430_calibrated(),
                                        kSeed);
  a->set_kernel_mode(mode);
  const std::vector<std::uint16_t> zeros(256, 0);
  a->program_words(g.segment_base(0), zeros.data(), zeros.size());
  a->partial_erase_segment(0, 26.0);  // mid-transition: metastable cells draw
  auto sink = std::make_shared<std::size_t>(0);  // escapes: result stays live
  return {[a, sink] { *sink += a->read_segment_majority(0, 3).popcount(); },
          1.0};
}

/// ns per 256-word all-zeros block program (fresh erase each rep).
Workload make_program_words(KernelMode mode) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  auto a = std::make_shared<FlashArray>(g, PhysParams::msp430_calibrated(),
                                        kSeed);
  a->set_kernel_mode(mode);
  auto zeros = std::make_shared<std::vector<std::uint16_t>>(256, 0);
  return {[g, a, zeros] {
            a->erase_segment(0);
            a->program_words(g.segment_base(0), zeros->data(), zeros->size());
          },
          1.0};
}

struct Case {
  const char* key;
  Workload (*make)(KernelMode);
  double reference_ns = 0;
  double batched_ns = 0;
  double speedup() const { return reference_ns / batched_ns; }
};

std::string to_json(const std::vector<Case>& cases) {
  std::ostringstream os;
  os << "{\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    os << "  \"" << c.key << "_reference_ns\": " << long(c.reference_ns)
       << ",\n";
    os << "  \"" << c.key << "_batched_ns\": " << long(c.batched_ns) << ",\n";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f", c.speedup());
    os << "  \"" << c.key << "_speedup\": " << buf
       << (i + 1 < cases.size() ? ",\n" : "\n");
  }
  os << "}\n";
  return os.str();
}

int run(int argc, char** argv) {
  bool write = false, check = false;
  std::string path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--write") == 0)
      write = true;
    else if (std::strcmp(argv[i], "--check") == 0)
      check = true;
    else
      path = argv[i];
  }

  std::vector<Case> cases = {{"erase_pulse", &make_erase_pulse},
                             {"read_majority", &make_read_majority},
                             {"program_words", &make_program_words}};

  // Validate the pin before spending benchmark time: a corrupt pin must
  // fail in milliseconds, and must never reach the ratio comparisons.
  std::optional<util::PinFile> pins;
  if (check) {
    std::vector<std::string> keys;
    for (const Case& c : cases)
      for (const char* suffix : {"_reference_ns", "_batched_ns", "_speedup"})
        keys.push_back(std::string(c.key) + suffix);
    pins = bench::load_gate_pins(path, keys);
    if (!pins) return 2;
  }

  for (Case& c : cases) {
    const Workload ref = c.make(KernelMode::kReference);
    const Workload bat = c.make(KernelMode::kBatched);
    std::tie(c.reference_ns, c.batched_ns) = measure_pair(ref, bat);
    std::printf("%-14s reference %10.0f ns   batched %10.0f ns   %5.2fx\n",
                c.key, c.reference_ns, c.batched_ns, c.speedup());
  }

  if (write) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << to_json(cases);
    if (!out.good()) {
      std::fprintf(stderr, "FAIL: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("[pin written: %s]\n", path.c_str());
    return 0;
  }

  if (check) {
    const Case& pulse = cases[0];
    if (pulse.speedup() < 4.5) {
      std::fprintf(stderr,
                   "FAIL: erase_pulse speedup %.2fx < 4.5x floor "
                   "(batched kernels de-vectorized?)\n",
                   pulse.speedup());
      return 1;
    }
    for (const Case& c : cases) {
      const double pinned = *pins->get(std::string(c.key) + "_speedup");
      if (c.speedup() < 0.75 * pinned) {
        std::fprintf(stderr,
                     "FAIL: %s speedup %.2fx regressed >25%% vs "
                     "pinned %.2fx (%s)\n",
                     c.key, c.speedup(), pinned, path.c_str());
        return 1;
      }
    }
    std::printf("[check ok: %.2fx vs pinned %.2fx, floor 4.5x]\n",
                pulse.speedup(), *pins->get("erase_pulse_speedup"));
  }
  return 0;
}

}  // namespace
}  // namespace flashmark

int main(int argc, char** argv) { return flashmark::run(argc, argv); }
