// flashbench — the repository benchmark's load-generating process.
//
//   flashbench --workload verify_hot|verify_cold|enroll|lot_study
//              --seed N --seconds S --trace 0|1 --work-dir DIR --out FILE
//              [--trace-out FILE] [--toy]
//
// Runs one workload and writes one JSON object to --out: the host block,
// attempted/failed counts, every failed correctness check and every metric
// (value, unit, sample count). With --trace 1 it also runs the per-layer
// ladder, untraced, and then the ladder and the workload again with an
// obs::TraceCollector installed, and writes the Chrome trace to
// --trace-out. --toy selects kToySizes (smoke test). Exit code: 0 when
// every correctness check passed, 1 when one failed, 2 on a usage error.
// run.py is the intended entry point.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>

#include "harness.hpp"
#include "mcu/device.hpp"
#include "obs/trace.hpp"
#include "phys/kernels.hpp"
#include "util/fm_math.hpp"

// ---- operator-new counter (per thread) -----------------------------------

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flashbench {

std::uint64_t thread_allocs() { return t_allocs; }

namespace {

#ifndef FLASHBENCH_COMPILER
#define FLASHBENCH_COMPILER "unknown"
#endif
#ifndef FLASHBENCH_BUILD_TYPE
#define FLASHBENCH_BUILD_TYPE "unknown"
#endif

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // run.py rejects it
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::map<std::string, std::string> host_block(const Params& p) {
  return {
      {"cpu", cpu_model()},
      {"nproc", std::to_string(p.nproc)},
      {"isa", flashmark::fmm::to_string(flashmark::fmm::active_isa())},
      {"kernel_mode",
       flashmark::to_string(flashmark::DeviceConfig::msp430f5438().kernel_mode)},
      {"compiler", FLASHBENCH_COMPILER},
      {"build_type", FLASHBENCH_BUILD_TYPE},
  };
}

std::string to_json(const Params& p, const Outcome& out) {
  std::ostringstream os;
  os << "{\"workload\": \"" << json_escape(p.workload) << "\", \"seed\": "
     << p.seed << ", \"trace\": " << (p.trace ? 1 : 0) << ",\n \"host\": {";
  bool first = true;
  for (const auto& [k, v] : host_block(p)) {
    os << (first ? "" : ", ") << "\"" << k << "\": \"" << json_escape(v)
       << "\"";
    first = false;
  }
  os << "},\n \"attempted\": " << out.attempted
     << ", \"failed\": " << out.failed << ",\n \"errors\": [";
  first = true;
  for (const std::string& e : out.errors) {
    os << (first ? "" : ", ") << "\"" << json_escape(e) << "\"";
    first = false;
  }
  os << "],\n \"metrics\": {";
  first = true;
  for (const auto& [name, m] : out.metrics) {
    os << (first ? "\n  " : ",\n  ") << "\"" << json_escape(name)
       << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
       << json_escape(m.unit) << "\", \"n\": " << m.n << "}";
    first = false;
  }
  os << "\n }\n}\n";
  return os.str();
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "flashbench: %s\n", msg);
  std::exit(2);
}

double num(const char* flag, const char* v) {
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(d) || d < 0)
    usage((std::string("bad value for ") + flag).c_str());
  return d;
}

Params parse(int argc, char** argv, std::string* out_path) {
  Params p;
  p.nproc = std::max(1u, std::thread::hardware_concurrency());
  double trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string f = argv[i];
    if (f == "--toy") {
      p.size = kToySizes;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + f).c_str());
    const char* v = argv[++i];
    if (f == "--workload") p.workload = v;
    else if (f == "--seed") p.seed = std::strtoull(v, nullptr, 10);
    else if (f == "--seconds") p.seconds = num(argv[i - 1], v);
    else if (f == "--trace") trace = num(argv[i - 1], v);
    else if (f == "--work-dir") p.work_dir = v;
    else if (f == "--out") *out_path = v;
    else if (f == "--trace-out") p.trace_out = v;
    else usage(("unknown flag " + f).c_str());
  }
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  p.trace = trace == 1;
  if (p.workload != "verify_hot" && p.workload != "verify_cold" &&
      p.workload != "enroll" && p.workload != "lot_study")
    usage("unknown --workload");
  if (p.seconds <= 0 || p.work_dir.empty() || out_path->empty())
    usage("--seconds, --work-dir and --out are required");
  if (p.trace && p.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return p;
}

void run_workload(const Params& p, bool traced, Outcome& out) {
  if (p.workload == "verify_hot") run_verify(p, false, traced, out);
  else if (p.workload == "verify_cold") run_verify(p, true, traced, out);
  else if (p.workload == "enroll") run_enroll(p, traced, out);
  else run_lot_study(p, traced, out);
}

}  // namespace
}  // namespace flashbench

int main(int argc, char** argv) {
  using namespace flashbench;
  std::string out_path;
  const Params p = parse(argc, argv, &out_path);
  Outcome out;
  try {
    run_workload(p, false, out);
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    if (p.trace) {
      // Traced run. The per-layer ladder runs first with no collector, so
      // its timings hold no span cost and compare with the untraced
      // end-to-end numbers above. Then, with an obs::TraceCollector
      // installed, the ladder runs again (its spans only; it goes first so
      // they fit under the collector's event cap) and so does the workload,
      // whose copies of the end-to-end numbers give the tracing overhead.
      Outcome layers;
      run_ladder(p, layers);
      flashmark::obs::TraceCollector collector(400'000);
      flashmark::obs::TraceCollector::install(&collector);
      Outcome spans, traced;
      run_ladder(p, spans);
      run_workload(p, true, traced);
      flashmark::obs::TraceCollector::install(nullptr);
      std::string err;
      if (!collector.write_chrome_json(p.trace_out, &err))
        out.error("trace: " + err);
      // Workload-derived layer metrics replace the ladder's isolated ones.
      for (const auto& [name, m] : traced.metrics) layers.metrics[name] = m;
      if (p.workload == "verify_hot" || p.workload == "verify_cold")
        layers.set("ladder.p50_residual_us",
                   out.get("p50_ms") * 1e3 - layers.get("serve.verify_rtt_us"),
                   "us");
      const auto frac = [](double a, double b) {
        return b > 0 ? a / b - 1.0 : 0.0;
      };
      layers.set("trace.overhead_p50_frac",
                 frac(traced.get("p50_ms"), out.get("p50_ms")), "ratio");
      layers.set("trace.overhead_throughput_frac",
                 -frac(traced.get("throughput_ops_s"),
                       out.get("throughput_ops_s")),
                 "ratio");
      layers.set("trace.dropped_events", double(collector.dropped()),
                 "count");
      for (const auto& [name, m] : layers.metrics) {
        if (out.has(name)) out.metrics["traced." + name] = m;
        else out.metrics[name] = m;
      }
      for (const Outcome* o : {&layers, &spans, &traced}) {
        out.attempted += o->attempted;
        out.failed += o->failed;
        for (const std::string& e : o->errors) out.error(e);
      }
    }
  } catch (const std::exception& e) {
    out.error(std::string("aborted: ") + e.what());
  }
  std::ofstream f(out_path, std::ios::trunc);
  f << to_json(p, out);
  f.close();
  if (!f) {
    std::fprintf(stderr, "flashbench: cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "flashbench: FAILED CHECK: %s\n", e.c_str());
  return out.errors.empty() ? 0 : 1;
}
