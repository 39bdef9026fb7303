// Kernel differential harness (ctest -L kernel): KernelMode::kReference and
// KernelMode::kBatched must be BYTE-IDENTICAL for any operation sequence.
//
// The batched SoA kernels (src/phys/kernels.cpp) are only trustworthy if
// switching them on can never change a single bit of any result. These tests
// drive both modes through identical workloads — randomized array op soups,
// fleet imprint→extract→audit round trips at several thread counts, and
// fault-injected batches — and compare full serialized die state, extracted
// bitmaps, VerifyReports, RNG stream states and deterministic counters.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/imprint.hpp"
#include "core/watermark.hpp"
#include "fleet/fleet.hpp"
#include "mcu/persist.hpp"
#include "phys/kernels.hpp"
#include "store/die_store.hpp"
#include "util/fm_math.hpp"

namespace flashmark {
namespace {

constexpr std::uint64_t kMaster = 0x6B65726E;  // test-local master seed

namespace fs = std::filesystem;

/// Fresh scratch directory per test (removed on destruction).
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
};

/// Scoped ISA dispatch cap (util/fm_math.hpp). Restores the uncapped state
/// on destruction so tests cannot leak a forced-scalar world to each other.
struct IsaCapGuard {
  explicit IsaCapGuard(fmm::Isa cap) { fmm::set_isa_cap_for_test(cap); }
  ~IsaCapGuard() { fmm::set_isa_cap_for_test(fmm::Isa::kAvx512); }
};

/// The dispatch tiers this host can actually run, scalar first.
std::vector<fmm::Isa> testable_isas() {
  std::vector<fmm::Isa> isas = {fmm::Isa::kScalar};
  const int top = static_cast<int>(fmm::detected_isa());
  if (top >= static_cast<int>(fmm::Isa::kAvx2)) isas.push_back(fmm::Isa::kAvx2);
  if (top >= static_cast<int>(fmm::Isa::kAvx512))
    isas.push_back(fmm::Isa::kAvx512);
  return isas;
}

DeviceConfig config_with(KernelMode m) {
  DeviceConfig cfg = DeviceConfig::msp430f5438();
  cfg.kernel_mode = m;
  return cfg;
}

/// Full serialized state of an array: every materialized segment's cell
/// state plus the read-noise RNG stream position (so "same bytes" also
/// proves "same number and order of draws").
std::string dump_array(FlashArray& a) {
  std::ostringstream os;
  a.save_segments(os);
  const Rng::State st = a.noise_rng_state();
  os << st.s[0] << ' ' << st.s[1] << ' ' << st.s[2] << ' ' << st.s[3] << ' '
     << st.cached_normal_bits << ' ' << st.has_cached_normal << '\n';
  return os.str();
}

std::string dump_device(Device& dev) {
  std::ostringstream os;
  save_device(dev, os);
  return os.str();
}

WatermarkSpec diff_spec(std::size_t die) {
  WatermarkSpec spec;
  spec.fields = {0x7C05, static_cast<std::uint32_t>(die), 2,
                 TestStatus::kAccept, 0x155};
  spec.key = SipHashKey{0xD1F, 0x5EED};
  spec.n_replicas = 7;
  spec.npe = 60'000;
  spec.strategy = ImprintStrategy::kBatchWear;
  return spec;
}

VerifyOptions diff_verify() {
  VerifyOptions vo;
  vo.t_pew = SimTime::us(30);
  vo.key = SipHashKey{0xD1F, 0x5EED};
  vo.rounds = 3;
  vo.n_reads = 3;
  return vo;
}

/// Field-wise bitwise comparison of two VerifyReports (floating-point fields
/// with EXPECT_EQ on purpose: the contract is byte identity, not closeness).
void expect_reports_identical(const VerifyReport& a, const VerifyReport& b) {
  EXPECT_EQ(a.verdict, b.verdict);
  ASSERT_EQ(a.fields.has_value(), b.fields.has_value());
  if (a.fields) {
    EXPECT_EQ(a.fields->manufacturer_id, b.fields->manufacturer_id);
    EXPECT_EQ(a.fields->die_id, b.fields->die_id);
  }
  EXPECT_EQ(a.signature_checked, b.signature_checked);
  EXPECT_EQ(a.signature_ok, b.signature_ok);
  EXPECT_EQ(a.invalid_00_pairs, b.invalid_00_pairs);
  EXPECT_EQ(a.invalid_11_pairs, b.invalid_11_pairs);
  EXPECT_EQ(a.zero_fraction, b.zero_fraction);
  EXPECT_EQ(a.replica_disagreement, b.replica_disagreement);
  EXPECT_EQ(a.extract_time.as_ns(), b.extract_time.as_ns());
  EXPECT_EQ(a.ecc_corrected_blocks, b.ecc_corrected_blocks);
  EXPECT_EQ(a.retries, b.retries);
}

/// Deterministic slice of a fleet counter row (wall_ms excluded by design).
std::string counters_key(const fleet::DieCounters& c) {
  std::ostringstream os;
  os << c.die << '|' << c.pe_cycles << '|' << c.sim_time.as_ns() << '|'
     << c.erase_ops << '|' << c.program_ops << '|' << c.read_ops << '|'
     << c.faults_injected << '|' << c.retries << '|' << c.ecc_corrected << '|'
     << static_cast<int>(c.health) << '|' << static_cast<int>(c.reason);
  return os.str();
}

// ---------------------------------------------------------------------------
// Array-level differential: a randomized soup of every physical operation,
// applied to a reference-mode and a batched-mode array in lockstep. After
// every phase the full serialized state (cells + noise stream) must match.
// ---------------------------------------------------------------------------

TEST(KernelDiff, ArrayOpSoupByteIdentity) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  const PhysParams p = PhysParams::msp430_calibrated();
  FlashArray ref(g, p, /*die_seed=*/0xA11CE);
  FlashArray bat(g, p, /*die_seed=*/0xA11CE);
  ref.set_kernel_mode(KernelMode::kReference);
  bat.set_kernel_mode(KernelMode::kBatched);

  // One op script, replayed identically on both arrays. The script RNG is
  // separate from the arrays' noise streams.
  Rng script(0x5C121BE);
  const std::size_t kSegments = 3;  // keep the soup fast but multi-segment
  const Addr seg_base0 = g.segment_base(0);

  auto random_word_addr = [&](Rng& r) {
    const std::size_t seg = static_cast<std::size_t>(r.next_u64() % kSegments);
    const std::size_t words = g.segment_bytes(seg) / g.word_bytes;
    const std::size_t w = static_cast<std::size_t>(r.next_u64() % words);
    return g.segment_base(seg) + static_cast<Addr>(w * g.word_bytes);
  };

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t op = script.next_u64() % 12;
    const std::size_t seg = static_cast<std::size_t>(script.next_u64() % kSegments);
    switch (op) {
      case 0:
        ref.erase_segment(seg);
        bat.erase_segment(seg);
        break;
      case 1: {
        const double t = static_cast<double>(script.next_u64() % 4000) / 100.0;
        ref.partial_erase_segment(seg, t);
        bat.partial_erase_segment(seg, t);
        break;
      }
      case 2: {
        const Addr a = random_word_addr(script);
        const auto v = static_cast<std::uint16_t>(script.next_u64());
        ref.program_word(a, v);
        bat.program_word(a, v);
        break;
      }
      case 3: {  // block program of 4..32 words at a segment-interior base
        const std::size_t n = 4 + static_cast<std::size_t>(script.next_u64() % 29);
        std::vector<std::uint16_t> words(n);
        for (auto& w : words) w = static_cast<std::uint16_t>(script.next_u64());
        const std::size_t seg_words = g.segment_bytes(seg) / g.word_bytes;
        const std::size_t w0 =
            static_cast<std::size_t>(script.next_u64() % (seg_words - n));
        const Addr a = g.segment_base(seg) + static_cast<Addr>(w0 * g.word_bytes);
        ref.program_words(a, words.data(), n);
        bat.program_words(a, words.data(), n);
        break;
      }
      case 4: {
        const Addr a = random_word_addr(script);
        const auto v = static_cast<std::uint16_t>(script.next_u64());
        const double f = 0.05 + static_cast<double>(script.next_u64() % 100) / 100.0;
        ref.partial_program_word(a, v, f);
        bat.partial_program_word(a, v, f);
        break;
      }
      case 5: {
        const Addr a = random_word_addr(script);
        EXPECT_EQ(ref.read_word(a), bat.read_word(a));
        break;
      }
      case 6: {
        const int n_reads = 1 + 2 * static_cast<int>(script.next_u64() % 3);
        const BitVec r = ref.read_segment_majority(seg, n_reads);
        const BitVec b = bat.read_segment_majority(seg, n_reads);
        EXPECT_EQ(r, b);
        break;
      }
      case 7: {
        const double cycles = static_cast<double>(script.next_u64() % 5000);
        BitVec pattern(g.segment_cells(seg));
        for (std::size_t i = 0; i < pattern.size(); ++i)
          pattern.set(i, (script.next_u64() & 1) != 0);
        const bool use_pattern = (script.next_u64() & 1) != 0;
        ref.wear_segment(seg, cycles, use_pattern ? &pattern : nullptr);
        bat.wear_segment(seg, cycles, use_pattern ? &pattern : nullptr);
        break;
      }
      case 8: {
        const double years = static_cast<double>(script.next_u64() % 8);
        ref.age(years);
        bat.age(years);
        break;
      }
      case 9: {
        const double hours = static_cast<double>(script.next_u64() % 48);
        ref.bake(hours);
        bat.bake(hours);
        break;
      }
      case 10: {
        const double t = 25.0 + static_cast<double>(script.next_u64() % 60) - 20.0;
        ref.set_temperature_c(t);
        bat.set_temperature_c(t);
        break;
      }
      default: {
        // Queries must agree bitwise and leave no trace on the state.
        EXPECT_EQ(ref.time_to_full_erase_us(seg), bat.time_to_full_erase_us(seg));
        EXPECT_EQ(ref.count_erased(seg), bat.count_erased(seg));
        EXPECT_EQ(ref.snapshot(seg), bat.snapshot(seg));
        const SegmentWearStats wr = ref.wear_stats(seg);
        const SegmentWearStats wb = bat.wear_stats(seg);
        EXPECT_EQ(wr.tte_min_us, wb.tte_min_us);
        EXPECT_EQ(wr.tte_mean_us, wb.tte_mean_us);
        EXPECT_EQ(wr.tte_max_us, wb.tte_max_us);
        EXPECT_EQ(wr.eff_cycles_mean, wb.eff_cycles_mean);
        break;
      }
    }
    if (step % 50 == 49)
      ASSERT_EQ(dump_array(ref), dump_array(bat)) << "diverged at step " << step;
  }
  EXPECT_EQ(dump_array(ref), dump_array(bat));
  (void)seg_base0;
}

// The segment read kernel must equal the word-read loop it replaced: same
// majority bitmap AND same number/order of noise draws.
TEST(KernelDiff, ReadSegmentMatchesWordLoop) {
  for (KernelMode mode : {KernelMode::kReference, KernelMode::kBatched}) {
    Device seg_dev(config_with(mode), /*die_seed=*/0xBEE5);
    Device word_dev(config_with(mode), /*die_seed=*/0xBEE5);
    const FlashGeometry& g = seg_dev.config().geometry;
    const Addr base = g.segment_base(0);

    // Leave the segment metastable so reads actually draw noise.
    for (auto* d : {&seg_dev, &word_dev}) {
      d->array().wear_segment(0, 1000.0);
      std::vector<std::uint16_t> zeros(g.segment_bytes(0) / g.word_bytes, 0);
      d->array().program_words(base, zeros.data(), zeros.size());
      d->array().partial_erase_segment(0, 30.0);
    }

    const int n_reads = 5;
    const BitVec fast = seg_dev.array().read_segment_majority(0, n_reads);

    const std::size_t n_words = g.segment_bytes(0) / g.word_bytes;
    const std::size_t bpw = g.bits_per_word();
    BitVec slow(n_words * bpw);
    for (std::size_t w = 0; w < n_words; ++w) {
      const Addr wa = base + static_cast<Addr>(w * g.word_bytes);
      std::vector<int> ones(bpw, 0);
      for (int r = 0; r < n_reads; ++r) {
        const std::uint16_t v = word_dev.array().read_word(wa);
        for (std::size_t b = 0; b < bpw; ++b)
          ones[b] += static_cast<int>((v >> b) & 1u);
      }
      for (std::size_t b = 0; b < bpw; ++b)
        slow.set(w * bpw + b, ones[b] * 2 > n_reads);
    }

    EXPECT_EQ(fast, slow) << "mode " << to_string(mode);
    EXPECT_EQ(dump_array(seg_dev.array()), dump_array(word_dev.array()))
        << "noise stream diverged in mode " << to_string(mode);
  }
}

// ---------------------------------------------------------------------------
// Fleet-level differential: the full imprint→extract→audit pipeline must be
// byte-identical across kernel modes at every thread count (and across
// thread counts within a mode — the PR-1 contract, re-pinned here with the
// kernel switch in the loop).
// ---------------------------------------------------------------------------

struct PipelineSnapshot {
  std::vector<std::string> die_files;
  std::vector<std::string> extracted_bits;
  std::vector<std::string> counters;
  std::vector<VerifyReport> reports;
};

PipelineSnapshot run_pipeline(KernelMode mode, unsigned threads,
                              const fleet::FaultPolicy& faults = {}) {
  constexpr std::size_t kDies = 6;
  fleet::FleetOptions fo;
  fo.threads = threads;

  auto imprinted = fleet::imprint_batch(config_with(mode), kMaster, kDies, 0,
                                        diff_spec, fo, faults);
  ExtractOptions eo;
  eo.t_pew = SimTime::us(30);
  auto extracted = fleet::extract_batch(imprinted.dies, 0, eo, fo, faults);
  auto audited = fleet::audit_batch(imprinted.dies, 0, diff_verify(), fo, faults);

  PipelineSnapshot s;
  for (std::size_t d = 0; d < kDies; ++d) {
    s.die_files.push_back(dump_device(*imprinted.dies[d]));
    s.extracted_bits.push_back(extracted.results[d].bits.to_string());
    s.counters.push_back(counters_key(imprinted.fleet.dies[d]) + "//" +
                         counters_key(audited.fleet.dies[d]));
    s.reports.push_back(audited.reports[d]);
  }
  return s;
}

void expect_snapshots_identical(const PipelineSnapshot& a,
                                const PipelineSnapshot& b) {
  EXPECT_EQ(a.die_files, b.die_files);
  EXPECT_EQ(a.extracted_bits, b.extracted_bits);
  EXPECT_EQ(a.counters, b.counters);
  ASSERT_EQ(a.reports.size(), b.reports.size());
  for (std::size_t i = 0; i < a.reports.size(); ++i)
    expect_reports_identical(a.reports[i], b.reports[i]);
}

TEST(KernelDiff, PipelineByteIdenticalAcrossModesAndThreads) {
  const PipelineSnapshot ref1 = run_pipeline(KernelMode::kReference, 1);
  for (unsigned threads : {1u, 4u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_snapshots_identical(ref1,
                               run_pipeline(KernelMode::kReference, threads));
    expect_snapshots_identical(ref1,
                               run_pipeline(KernelMode::kBatched, threads));
  }
  // The round trips must actually verify (not all-failed snapshots that
  // trivially compare equal).
  for (const auto& r : ref1.reports) EXPECT_EQ(r.verdict, Verdict::kGenuine);
}

TEST(KernelDiff, PipelineByteIdenticalUnderFaultPolicy) {
  fleet::FaultPolicy faults;
  faults.config.stuck_at0_per_segment = 1.5;
  faults.config.stuck_at1_per_segment = 1.5;
  faults.config.read_burst_p = 2e-4;
  faults.config.erase_fail_p = 0.02;
  faults.config.program_fail_p = 1e-5;
  // Every die afflicted; no power losses, so no retry budget is needed and
  // every die completes (degraded, not failed).
  const PipelineSnapshot ref1 = run_pipeline(KernelMode::kReference, 1, faults);
  for (unsigned threads : {1u, 4u, 16u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_snapshots_identical(
        ref1, run_pipeline(KernelMode::kReference, threads, faults));
    expect_snapshots_identical(
        ref1, run_pipeline(KernelMode::kBatched, threads, faults));
  }
}

// ---------------------------------------------------------------------------
// ISA-dispatch differential: the SIMD lanes (util/fm_math.cpp + the masked
// pass-3 kernels in phys/kernels.cpp) are outside the determinism seed, like
// the kernel mode itself (docs/REPRODUCIBILITY.md §7). The full pipeline must
// be bit-identical — die dumps INCLUDING the RNG stream position — under
// forced-scalar, AVX2-capped and (where the host has it) AVX-512 dispatch,
// in both kernel modes, at several thread counts.
// ---------------------------------------------------------------------------

TEST(KernelDiff, PipelineByteIdenticalAcrossIsaDispatch) {
  PipelineSnapshot base;
  {
    IsaCapGuard scalar(fmm::Isa::kScalar);
    base = run_pipeline(KernelMode::kReference, 1);
  }
  for (const fmm::Isa cap : testable_isas()) {
    IsaCapGuard guard(cap);
    SCOPED_TRACE(std::string("isa cap ") + fmm::to_string(cap));
    for (unsigned threads : {1u, 4u, 16u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      expect_snapshots_identical(base,
                                 run_pipeline(KernelMode::kReference, threads));
      expect_snapshots_identical(base,
                                 run_pipeline(KernelMode::kBatched, threads));
    }
  }
  // Non-vacuous: the scalar baseline actually verified its watermarks.
  for (const auto& r : base.reports) EXPECT_EQ(r.verdict, Verdict::kGenuine);
}

// Per-die pulses on dies at different temperatures (worn segment 1) must
// equal the scalar reference bit for bit — per-die temperature scaling and
// noise streams included — under every dispatch tier and both modes.
TEST(KernelDiff, PerDiePulseMatchesScalarAcrossIsa) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  const PhysParams p = PhysParams::msp430_calibrated();
  constexpr std::size_t kDies = 5;
  auto run = [&](KernelMode mode) {
    std::string s;
    for (std::size_t k = 0; k < kDies; ++k) {
      FlashArray a(g, p, 0xD1E0 + k);
      a.set_kernel_mode(mode);
      a.set_temperature_c(15.0 + 7.0 * static_cast<double>(k));
      const std::size_t n_words = g.segment_bytes(1) / g.word_bytes;
      const std::vector<std::uint16_t> zeros(n_words, 0);
      a.wear_segment(1, 800.0);
      a.program_words(g.segment_base(1), zeros.data(), zeros.size());
      for (int pulse = 0; pulse < 3; ++pulse)
        a.partial_erase_segment(1, 9.0 + 7.0 * pulse);
      s += dump_array(a);
    }
    return s;
  };
  std::string base;
  {
    IsaCapGuard scalar(fmm::Isa::kScalar);
    base = run(KernelMode::kReference);
  }
  for (const fmm::Isa cap : testable_isas()) {
    IsaCapGuard guard(cap);
    SCOPED_TRACE(std::string("isa cap ") + fmm::to_string(cap));
    for (KernelMode mode : {KernelMode::kReference, KernelMode::kBatched}) {
      SCOPED_TRACE(to_string(mode));
      EXPECT_EQ(base, run(mode));
    }
  }
}

// ---------------------------------------------------------------------------
// Enroll-path differential: the daemon's kEnroll runs the P/E-loop imprint
// with the accelerated erase (an erase-verify query, then an erase pulse
// that ends at the queried time, every cycle) rather than batch wear. Die
// dumps (noise-RNG position included) and ImprintReports must match across
// kernel modes under every ISA tier. Die 1 carries factory defects: stuck
// cells keep their cache entries warm through every pulse, so its refills
// take the sparse path while die 0's take the dense one.
// ---------------------------------------------------------------------------

struct EnrollSnapshot {
  std::vector<std::string> dies;
  std::vector<std::int64_t> elapsed_ns;
  std::vector<std::int64_t> mean_cycle_ns;
  std::vector<double> final_query_us;
};

DeviceConfig enroll_config(KernelMode mode, std::size_t die) {
  DeviceConfig cfg = config_with(mode);
  if (die == 1) {
    cfg.phys.defect_stuck_erased_ppm = 2000.0;
    cfg.phys.defect_stuck_programmed_ppm = 1000.0;
  }
  return cfg;
}

EnrollSnapshot run_accelerated_imprint(KernelMode mode) {
  constexpr std::size_t kDies = 2;
  EnrollSnapshot snap;
  for (std::size_t d = 0; d < kDies; ++d) {
    Device dev(enroll_config(mode, d), kMaster + d);
    const auto& g = dev.config().geometry;
    WatermarkSpec spec = diff_spec(d);
    const BitVec pattern =
        encode_watermark(spec, g.segment_cells(0)).segment_pattern;
    ImprintOptions io;
    io.npe = 1'500;
    io.accelerated = true;
    const ImprintReport r =
        imprint_flashmark(dev.hal(), g.segment_base(0), pattern, io);
    snap.elapsed_ns.push_back(r.elapsed.as_ns());
    snap.mean_cycle_ns.push_back(r.mean_cycle_time.as_ns());
    snap.final_query_us.push_back(dev.array().time_to_full_erase_us(0));
    snap.dies.push_back(dump_device(dev) + dump_array(dev.array()));
  }
  return snap;
}

TEST(KernelDiff, AcceleratedImprintByteIdenticalAcrossModesAndIsa) {
  EnrollSnapshot base;
  {
    IsaCapGuard scalar(fmm::Isa::kScalar);
    base = run_accelerated_imprint(KernelMode::kReference);
  }
  for (const fmm::Isa cap : testable_isas()) {
    IsaCapGuard guard(cap);
    SCOPED_TRACE(std::string("isa cap ") + fmm::to_string(cap));
    for (KernelMode mode : {KernelMode::kReference, KernelMode::kBatched}) {
      SCOPED_TRACE(to_string(mode));
      const EnrollSnapshot got = run_accelerated_imprint(mode);
      EXPECT_EQ(base.dies, got.dies);
      EXPECT_EQ(base.elapsed_ns, got.elapsed_ns);
      EXPECT_EQ(base.mean_cycle_ns, got.mean_cycle_ns);
      EXPECT_EQ(base.final_query_us, got.final_query_us);
    }
  }
  // Non-vacuous: every cycle's erase was cut short of the full segment
  // erase, and the die still holds programmed cells to query.
  const std::int64_t full_erase_ns =
      DeviceConfig::msp430f5438().timing.t_erase_segment.as_ns();
  for (std::size_t d = 0; d < base.dies.size(); ++d) {
    EXPECT_LT(base.mean_cycle_ns[d], full_erase_ns);
    EXPECT_GT(base.final_query_us[d], 0.0);
  }
}

// The prime_tte contract: after an erase-verify query every cache entry is
// warm and bit-equals the scalar tte_fresh * slowdown(susc, eff) — on the
// dense refill (defect-free die) and the sparse one (defective die), under
// every ISA tier, checked after every cycle of an accelerated imprint.
TEST(KernelDiff, EraseVerifyQueryRefillsWholeCacheBitExact) {
  for (const fmm::Isa cap : testable_isas()) {
    IsaCapGuard guard(cap);
    SCOPED_TRACE(std::string("isa cap ") + fmm::to_string(cap));
    for (std::size_t d = 0; d < 2; ++d) {
      SCOPED_TRACE("die " + std::to_string(d));
      Device dev(enroll_config(KernelMode::kBatched, d), kMaster + d);
      const auto& g = dev.config().geometry;
      const Addr base = g.segment_base(0);
      const std::vector<std::uint16_t> words = pattern_to_words(
          g, 0, encode_watermark(diff_spec(d), g.segment_cells(0))
                    .segment_pattern);
      const PhysParams& p = dev.config().phys;
      std::size_t defects = 0;
      for (int cycle = 0; cycle < 64; ++cycle) {
        SCOPED_TRACE("cycle " + std::to_string(cycle));
        dev.hal().program_block(base, words);
        // The program left the programmed cells stale.
        const SegmentSoA* s = dev.array().materialized_segment(0);
        ASSERT_NE(s, nullptr);
        std::size_t stale = 0;
        for (std::size_t i = 0; i < s->size(); ++i) stale += !s->tte_cached(i);
        ASSERT_GT(stale, 0u);
        (void)dev.array().time_to_full_erase_us(0);
        defects = 0;
        for (std::size_t i = 0; i < s->size(); ++i) {
          ASSERT_TRUE(s->tte_cached(i)) << "cell " << i;
          const double want =
              static_cast<double>(s->tte_fresh_us[i]) *
              p.slowdown(static_cast<double>(s->susceptibility[i]),
                         s->eff_cycles[i]);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(s->tte_cache_data()[i]),
                    std::bit_cast<std::uint64_t>(want))
              << "cell " << i;
          defects += s->defect[i] != 0;
        }
        dev.hal().erase_segment_auto(base);
      }
      if (d == 1) EXPECT_GT(defects, 0u);  // the sparse path ran
    }
  }
}

// Cell::restore checks only the sign of eff_cycles, so a die file can hold
// +inf. With susceptibility 0 that cell's erase time is
// tte_fresh * fma(0, inf, 1) = NaN; the scalar max skips it, and so must
// every vector tier of the erase-verify query.
TEST(KernelDiff, EraseVerifyQueryMatchesScalarOnNaNEraseTimes) {
  const PhysParams p = PhysParams::msp430_calibrated();
  auto build = [] {
    SegmentSoA s(37);  // not a lane multiple: the scalar tails run too
    for (std::size_t i = 0; i < s.size(); ++i) {
      Cell::Snapshot c{24.0f, 1.0f, 500.0 * static_cast<double>(i), 0.0,
                       static_cast<std::uint8_t>(i % 3 == 0 ? 1 : 0), 0, 0,
                       0.0f};
      if (i == 13) c.tte_fresh_us = 1000.0f;  // the max sits mid-vector
      // NaN cells, programmed, some of them last in their vector lane
      if (i % 5 == 1 || i == 34) {
        c.susceptibility = 0.0f;
        c.eff_cycles = std::numeric_limits<double>::infinity();
        c.level = 0;
      }
      s.assign(i, c);
    }
    return s;
  };
  ASSERT_TRUE(std::isnan(Cell::restore(build().snapshot(1)).tte_us(p)));
  const double want =
      kernels::time_to_full_erase_us(KernelMode::kReference, build(), p);
  ASSERT_FALSE(std::isnan(want));
  for (const fmm::Isa cap : testable_isas()) {
    IsaCapGuard guard(cap);
    SCOPED_TRACE(std::string("isa cap ") + fmm::to_string(cap));
    const SegmentSoA s = build();
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  kernels::time_to_full_erase_us(KernelMode::kBatched, s, p)),
              std::bit_cast<std::uint64_t>(want));
  }
}

// ---------------------------------------------------------------------------
// SegmentSoA::prime_tte writes a mutable memo under const, so a resident die
// is single-owner by contract — and DieStore::pin is what enforces it at the
// fleet layer (a pin is exclusive per die). Two threads hammering the same
// die must serialize; `active` observing a second concurrent holder fails
// the test directly, and under TSan any broken exclusivity also surfaces as
// a data race on the prime_tte cache.
// ---------------------------------------------------------------------------

TEST(StoreKernel, ConcurrentSameDieExtractIsExclusive) {
  ScratchDir dir("fm_store_kernel_exclusive");
  store::DieStoreConfig cfg;
  cfg.dir = dir.str();
  cfg.device = config_with(KernelMode::kBatched);
  store::DieStore dies(cfg);
  {
    // Leave die 0 mid-transition so reads draw noise and the erase-time
    // cache is live (exactly the extract-shaped access pattern).
    store::DieStore::PinnedDie dev = dies.pin(0);
    const FlashGeometry& g = dev->config().geometry;
    std::vector<std::uint16_t> zeros(g.segment_bytes(0) / g.word_bytes, 0);
    dev->array().program_words(g.segment_base(0), zeros.data(), zeros.size());
    dev->array().partial_erase_segment(0, 26.0);
  }

  std::atomic<int> active{0};
  std::atomic<bool> overlapped{false};
  auto worker = [&] {
    for (int round = 0; round < 6; ++round) {
      store::DieStore::PinnedDie dev = dies.pin(0);
      if (active.fetch_add(1) != 0) overlapped = true;
      // prime_tte writers, both flavors: the const-path memo fill and the
      // pulse that invalidates + refills it.
      (void)dev->array().time_to_full_erase_us(0);
      dev->array().partial_erase_segment(0, 0.25);
      (void)dev->array().read_segment_majority(0, 3);
      active.fetch_sub(1);
    }
  };
  std::thread t1(worker), t2(worker), t3(worker);
  t1.join();
  t2.join();
  t3.join();
  EXPECT_FALSE(overlapped.load()) << "DieStore::pin admitted two concurrent "
                                     "holders of the same die";
}

// Kernel mode is an implementation knob, not die identity: it must not be
// persisted, and a die saved in one mode must reload byte-identically
// regardless of the mode it continues under.
TEST(KernelDiff, ModeExcludedFromPersistence) {
  Device dev(config_with(KernelMode::kBatched), /*die_seed=*/0x5AFE);
  dev.array().wear_segment(0, 2000.0);
  dev.array().partial_erase_segment(0, 25.0);
  const std::string saved = dump_device(dev);
  EXPECT_EQ(saved.find("kernel"), std::string::npos)
      << "kernel mode leaked into the die file";

  std::istringstream is(saved);
  auto back = load_device(is);
  ASSERT_NE(back, nullptr);
  // Loaded dies run the default (batched) mode; their state is the saved
  // bytes either way.
  EXPECT_EQ(back->array().kernel_mode(), KernelMode::kBatched);
  EXPECT_EQ(dump_device(*back), saved);
}

}  // namespace
}  // namespace flashmark
