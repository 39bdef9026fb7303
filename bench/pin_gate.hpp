// Fail-closed pin loading for the perf gates' --check mode.
//
// A gate compares a fresh measurement against values pinned in a BENCH_*.json
// file. A pin that is missing, unreadable, malformed, zero or NaN must stop
// the gate, not quietly turn it into a floor-only check: the caller exits 2
// when this returns nullopt, before it measures anything (the *_pin_reject
// ctests in bench/CMakeLists.txt hold every gate to that).
#pragma once

#include <cstdio>
#include <initializer_list>
#include <optional>
#include <string>

#include "util/pinfile.hpp"

namespace flashmark::bench {

/// Parse `path` with the strict pin-file parser (util/pinfile.hpp) and
/// require every key in `keys` to be present and > 0 (the parser already
/// guarantees finite). On any failure prints the cause and returns nullopt.
inline std::optional<util::PinFile> load_gate_pins(
    const std::string& path, std::initializer_list<const char*> keys) {
  std::string err;
  std::optional<util::PinFile> pins = util::load_pin_file(path, &err);
  if (!pins) {
    std::fprintf(stderr, "FAIL: bad pin file %s: %s\n", path.c_str(),
                 err.c_str());
    return std::nullopt;
  }
  for (const char* key : keys) {
    const std::optional<double> v = pins->get(key);
    if (!v) {
      std::fprintf(stderr, "FAIL: pin file %s: missing key \"%s\"\n",
                   path.c_str(), key);
      return std::nullopt;
    }
    if (!(*v > 0.0)) {
      std::fprintf(stderr, "FAIL: pin file %s: \"%s\" = %g must be > 0\n",
                   path.c_str(), key, *v);
      return std::nullopt;
    }
  }
  return pins;
}

}  // namespace flashmark::bench
