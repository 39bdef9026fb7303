#include "util/rng.hpp"

#include <cassert>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/fm_math.hpp"

namespace flashmark {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// The one affine-scaling expression both normal(mu, sigma) and normal_fill
// go through. A single inlined definition means the compiler makes the same
// contraction decision at every call site, so the two paths cannot drift.
inline double scale_normal(double mu, double sigma, double x) {
  return mu + sigma * x;
}

// One xoshiro256** step, shared by next_u64 and uniform_fill.
inline std::uint64_t xoshiro_next(std::array<std::uint64_t, 4>& s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

// Top 53 bits -> [0,1) double.
inline double unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() { return xoshiro_next(s_); }

double Rng::uniform() { return unit_double(next_u64()); }

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_u64(std::uint64_t n) {
  assert(n > 0);
  // Lemire-style rejection: draw until the draw lands in the largest multiple
  // of n that fits in 2^64.
  const std::uint64_t threshold = -n % n;  // (2^64 - n) mod n
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % n;
  }
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box–Muller, on the project's own deterministic math (util/fm_math.hpp):
  // fm_log + fm_sincos2pi + IEEE-exact sqrt, so the draw stream is
  // bit-identical across libm versions. u1 is kept away from 0 so the log
  // is finite.
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0x1.0p-60);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * fmm::fm_log(u1));
  double sn = 0.0;
  double cs = 0.0;
  fmm::fm_sincos2pi(u2, &sn, &cs);
  cached_normal_ = r * sn;
  has_cached_normal_ = true;
  return r * cs;
}

double Rng::normal(double mu, double sigma) {
  return scale_normal(mu, sigma, normal());
}

void Rng::normal_fill(double mu, double sigma, double* out, std::size_t n) {
  std::size_t i = 0;
  if (i < n && has_cached_normal_) {
    has_cached_normal_ = false;
    out[i++] = scale_normal(mu, sigma, cached_normal_);
  }
  if (i >= n) return;
  const std::size_t n_pairs = (n - i + 1) / 2;
  thread_local std::vector<double> u1v;
  thread_local std::vector<double> snv;
  thread_local std::vector<double> csv;
  if (u1v.size() < n_pairs) {
    u1v.resize(n_pairs);
    snv.resize(n_pairs);
    csv.resize(n_pairs);
  }
  // Phase 1: consume the uniform stream exactly as n sequential normal()
  // calls would — per pair, u1 with the small-value rejection, then u2.
  // u2 lands in snv; it is overwritten by the sine in phase 2.
  for (std::size_t k = 0; k < n_pairs; ++k) {
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0x1.0p-60);
    u1v[k] = u1;
    snv[k] = uniform();
  }
  // Phase 2: the transcendental half, 4-wide where the host allows. Every
  // step is covered by the fm_math bit-identity contract (sqrt and the
  // products are single IEEE operations).
  fmm::fm_sincos2pi_n(snv.data(), snv.data(), csv.data(), n_pairs);
  fmm::fm_log_n(u1v.data(), u1v.data(), n_pairs);
  for (std::size_t k = 0; k < n_pairs; ++k)
    u1v[k] = std::sqrt(-2.0 * u1v[k]);
  for (std::size_t k = 0; k < n_pairs; ++k) {
    const double r = u1v[k];
    out[i++] = scale_normal(mu, sigma, r * csv[k]);
    // normal() parks every pair's sine in the cache slot and consuming it
    // only clears the flag — the value stays behind. Serialized Rng::State
    // carries those bits, so mirror the dead store too.
    cached_normal_ = r * snv[k];
    if (i < n) {
      out[i++] = scale_normal(mu, sigma, cached_normal_);
      has_cached_normal_ = false;
    } else {
      has_cached_normal_ = true;
    }
  }
}

void Rng::uniform_fill(double* out, std::size_t n) {
  // The state lives in a local for the loop, so the compiler keeps the
  // xoshiro chain in registers instead of reloading it around each store.
  std::array<std::uint64_t, 4> st = s_;
  for (std::size_t i = 0; i < n; ++i) out[i] = unit_double(xoshiro_next(st));
  s_ = st;
}

double Rng::lognormal(double mu, double sigma) {
  return fmm::fm_exp(normal(mu, sigma));
}

double Rng::gamma(double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  if (shape < 1.0) {
    // Boosting trick: Gamma(k) = Gamma(k+1) * U^(1/k).
    double u = 0.0;
    do {
      u = uniform();
    } while (u <= 0.0);
    return gamma(shape + 1.0, scale) * fmm::fm_pow_pos(u, 1.0 / shape);
  }
  // Marsaglia–Tsang method.
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x = 0.0;
    double v = 0.0;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = uniform();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && fmm::fm_log(u) < 0.5 * x * x + d * (1.0 - v + fmm::fm_log(v)))
      return d * v * scale;
  }
}

std::uint64_t Rng::poisson(double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    const double x = normal(lambda, std::sqrt(lambda));
    return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
  }
  const double limit = fmm::fm_exp(-lambda);
  double prod = uniform();
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= uniform();
    ++n;
  }
  return n;
}

Rng Rng::split(std::uint64_t tag) {
  std::uint64_t sm = next_u64() ^ (tag * 0xD1B54A32D192ED03ull);
  return Rng(splitmix64(sm));
}

Rng::State Rng::state() const {
  State st;
  st.s = s_;
  std::memcpy(&st.cached_normal_bits, &cached_normal_, sizeof cached_normal_);
  st.has_cached_normal = has_cached_normal_;
  return st;
}

Rng Rng::from_state(const State& st) {
  Rng r;
  r.s_ = st.s;
  std::memcpy(&r.cached_normal_, &st.cached_normal_bits,
              sizeof r.cached_normal_);
  r.has_cached_normal_ = st.has_cached_normal;
  return r;
}

}  // namespace flashmark
