// Deterministic random number generation for the simulator.
//
// The whole reproduction must be bit-reproducible across platforms and
// standard-library versions, so we ship our own generator (xoshiro256**) and
// our own samplers instead of relying on std::normal_distribution etc., whose
// outputs are implementation-defined. The samplers' transcendentals go
// through util/fm_math (project-owned exp/log/pow/sincos), not libm, so the
// draw streams carry no dependence on the host's libm build either — the
// only <cmath> call left in a sampler is sqrt, which IEEE-754 rounds
// correctly everywhere.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace flashmark {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
/// Fast, 256-bit state, passes BigCrush; seeded via SplitMix64 so that any
/// 64-bit seed (including 0) yields a well-mixed state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0. Uses rejection to avoid
  /// modulo bias.
  std::uint64_t uniform_u64(std::uint64_t n);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Standard normal via Box–Muller (cached second variate).
  double normal();

  /// Normal with mean mu and standard deviation sigma.
  double normal(double mu, double sigma);

  /// Fill out[0..n) with draws BIT-IDENTICAL to n sequential
  /// normal(mu, sigma) calls — same uniforms consumed in the same order,
  /// same Box–Muller cache handoff at both ends — but with the
  /// transcendental half of each pair (fm_log / fm_sincos2pi / sqrt)
  /// evaluated 4-wide, which the fm_math contract guarantees cannot change
  /// the bits. The batched physics kernels use this to amortize draw cost;
  /// the reference kernels keep calling normal() per cell, and the
  /// differential harness (ctest -L kernel) asserts the streams agree.
  void normal_fill(double mu, double sigma, double* out, std::size_t n);

  /// Fill out[0..n) with draws BIT-IDENTICAL to n sequential uniform()
  /// calls: one next_u64 per draw, in order, and the Box–Muller cache left
  /// alone exactly as uniform() leaves it. The batched majority read
  /// (phys/kernels.cpp) draws a whole segment's read noise through it.
  void uniform_fill(double* out, std::size_t n);

  /// Log-normal: exp(N(mu, sigma)). mu/sigma are parameters of the
  /// underlying normal (i.e. of log X).
  double lognormal(double mu, double sigma);

  /// Gamma(shape k, scale theta) via Marsaglia–Tsang; handles k < 1 via the
  /// boosting trick. Both parameters must be > 0.
  double gamma(double shape, double scale);

  /// Poisson(lambda). Knuth's method for small lambda, normal approximation
  /// (rounded, clamped at 0) for lambda > 64 — plenty for our trap counts.
  std::uint64_t poisson(double lambda);

  /// Derive an independent child generator. Streams are decorrelated by
  /// hashing (parent-draw, tag) through SplitMix64. Used to give each die /
  /// segment / cell population its own stream so experiments compose without
  /// perturbing one another's sequences.
  Rng split(std::uint64_t tag);

  /// Complete serializable generator state: the xoshiro words plus the
  /// Box–Muller cache (the cached second variate is part of the stream —
  /// dropping it would shift every later normal() draw by one). The double
  /// travels as its IEEE-754 bit pattern so a save/load roundtrip through
  /// text is exact on every platform.
  struct State {
    std::array<std::uint64_t, 4> s{};
    std::uint64_t cached_normal_bits = 0;
    bool has_cached_normal = false;
  };

  State state() const;

  /// Rebuild a generator that continues the saved stream exactly.
  static Rng from_state(const State& st);

 private:
  std::array<std::uint64_t, 4> s_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// SplitMix64 step — also exposed for seed-derivation utilities.
std::uint64_t splitmix64(std::uint64_t& state);

}  // namespace flashmark
