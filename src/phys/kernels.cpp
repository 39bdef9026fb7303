#include "phys/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "util/fm_math.hpp"

// This file is compiled with -ffp-contract=off (src/CMakeLists.txt): the
// masked-SIMD kernels below pair explicit _mm*_mul_pd/_mm*_add_pd intrinsics
// to mirror scalar mul-then-add expressions, and a contraction pass fusing
// those pairs into fmadd inside the target("fma") functions would break
// byte-identity with the uncontracted baseline scalar code in phys/cell.cpp.
#if defined(__x86_64__) && defined(__GNUC__)
#define FM_KERNELS_X86 1
#include <immintrin.h>
#else
#define FM_KERNELS_X86 0
#endif

namespace flashmark {

const char* to_string(KernelMode m) {
  switch (m) {
    case KernelMode::kReference: return "reference";
    case KernelMode::kBatched: return "batched";
  }
  return "unknown";
}

SegmentSoA::SegmentSoA(std::size_t n)
    : tte_fresh_us(n, 24.0f),
      susceptibility(n, 1.0f),
      eff_cycles(n, 0.0),
      annealed(n, 0.0),
      level(n, static_cast<std::uint8_t>(CellLevel::kErased)),
      defect(n, static_cast<std::uint8_t>(CellDefect::kNone)),
      metastable(n, 0),
      margin_us(n, 0.0f),
      n_(n),
      tte_cache_(n, 0.0),
      tte_valid_(n, 0) {}

Cell::Snapshot SegmentSoA::snapshot(std::size_t i) const {
  return Cell::Snapshot{tte_fresh_us[i], susceptibility[i], eff_cycles[i],
                        annealed[i],     level[i],          defect[i],
                        metastable[i],   margin_us[i]};
}

void SegmentSoA::assign(std::size_t i, const Cell::Snapshot& s) {
  tte_fresh_us[i] = s.tte_fresh_us;
  susceptibility[i] = s.susceptibility;
  eff_cycles[i] = s.eff_cycles;
  annealed[i] = s.annealed;
  level[i] = s.level;
  defect[i] = s.defect;
  metastable[i] = s.metastable;
  margin_us[i] = s.margin_us;
  tte_valid_[i] = 0;
}

namespace kernels {

namespace {

constexpr std::uint8_t kErased = static_cast<std::uint8_t>(CellLevel::kErased);
constexpr std::uint8_t kNoDefect =
    static_cast<std::uint8_t>(CellDefect::kNone);

// Reference-path gather/scatter: materialize the scalar Cell, run the
// member function (the reference semantics, phys/cell.cpp), write it back.
Cell gather(const SegmentSoA& s, std::size_t i) {
  return Cell::restore(s.snapshot(i));
}

void scatter(SegmentSoA& s, std::size_t i, const Cell& c) {
  s.assign(i, c.snapshot_state());
}

// Settle cell i into `lvl` (Cell::settle).
inline void settle(SegmentSoA& s, std::size_t i, std::uint8_t lvl) {
  s.level[i] = lvl;
  s.metastable[i] = 0;
  s.margin_us[i] = 0.0f;
}

constexpr std::uint8_t kProgrammed8 =
    static_cast<std::uint8_t>(CellLevel::kProgrammed);

// Per-thread scratch arena for the batched kernels: one block of vectors
// reused by every kernel invocation on this thread, so steady-state pulses
// and reads allocate nothing (bench/perf_micro.cpp polices this with its
// allocation guards) and the fleet's parallel dies never share scratch. The
// erase-pulse buffers hold the concatenation across all jobs of one
// erase_pulse_segments call; job k's cells live at [job_cell_off[k],
// job_cell_off[k+1]).
struct KernelArena {
  std::vector<double> growth_in, growth_out;
  std::vector<std::size_t> stale_idx;
  std::vector<std::size_t> job_cell_off, job_stale_off, job_draw_off;
  std::vector<std::size_t> draw_idx;
  std::vector<double> jitter;       // packed draws, exponentiated in place
  std::vector<double> jitter_full;  // scattered per cell (dead lanes unread)
  // read-majority hoisting
  std::vector<double> pflip_seg, meta_x;
  std::vector<std::size_t> meta_idx;
};

KernelArena& arena() {
  static thread_local KernelArena a;
  return a;
}

// --- nominal-tte cache refill ---------------------------------------------
// Combine step after the pow batch: tte = tte_fresh * fma(k_damage*susc, g,
// 1.0), g = eff>0 ? pow_out : 0 (PhysParams::slowdown_from_growth). The
// dense case (every cache entry stale — the steady state under repeated
// pulses, which invalidate everything) runs vectorized; the sparse case
// walks the compacted index list scalar.

void combine_dense_scalar_range(const SegmentSoA& s, const PhysParams& p,
                                const double* growth_out, std::size_t i0,
                                std::size_t i1) {
  double* cache = s.tte_cache_data();
  for (std::size_t i = i0; i < i1; ++i) {
    const double g = s.eff_cycles[i] > 0.0 ? growth_out[i] : 0.0;
    cache[i] = static_cast<double>(s.tte_fresh_us[i]) *
               p.slowdown_from_growth(
                   static_cast<double>(s.susceptibility[i]), g);
  }
}

#if FM_KERNELS_X86

__attribute__((target("avx2,fma"))) void combine_dense_avx2(
    const SegmentSoA& s, const PhysParams& p, const double* growth_out,
    std::size_t n) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vkd = _mm256_set1_pd(p.k_damage);
  double* cache = s.tte_cache_data();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d eff = _mm256_loadu_pd(s.eff_cycles.data() + i);
    const __m256d pos = _mm256_cmp_pd(eff, vzero, _CMP_GT_OQ);
    // g = pos ? pow_out : +0.0 (bitwise AND with the all-ones/zero mask)
    const __m256d g = _mm256_and_pd(_mm256_loadu_pd(growth_out + i), pos);
    const __m256d susc =
        _mm256_cvtps_pd(_mm_loadu_ps(s.susceptibility.data() + i));
    const __m256d a = _mm256_mul_pd(vkd, susc);
    const __m256d slow = _mm256_fmadd_pd(a, g, vone);  // the std::fma
    const __m256d tf = _mm256_cvtps_pd(_mm_loadu_ps(s.tte_fresh_us.data() + i));
    _mm256_storeu_pd(cache + i, _mm256_mul_pd(tf, slow));
  }
  combine_dense_scalar_range(s, p, growth_out, i, n);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma"))) void
combine_dense_avx512(const SegmentSoA& s, const PhysParams& p,
                     const double* growth_out, std::size_t n) {
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512d vkd = _mm512_set1_pd(p.k_damage);
  double* cache = s.tte_cache_data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d eff = _mm512_loadu_pd(s.eff_cycles.data() + i);
    const __mmask8 pos = _mm512_cmp_pd_mask(eff, vzero, _CMP_GT_OQ);
    const __m512d g =
        _mm512_maskz_mov_pd(pos, _mm512_loadu_pd(growth_out + i));
    const __m512d susc =
        _mm512_cvtps_pd(_mm256_loadu_ps(s.susceptibility.data() + i));
    const __m512d a = _mm512_mul_pd(vkd, susc);
    const __m512d slow = _mm512_fmadd_pd(a, g, vone);
    const __m512d tf =
        _mm512_cvtps_pd(_mm256_loadu_ps(s.tte_fresh_us.data() + i));
    _mm512_storeu_pd(cache + i, _mm512_mul_pd(tf, slow));
  }
  combine_dense_scalar_range(s, p, growth_out, i, n);
}

#endif  // FM_KERNELS_X86

void combine_dense(const SegmentSoA& s, const PhysParams& p,
                   const double* growth_out, std::size_t n) {
#if FM_KERNELS_X86
  switch (fmm::active_isa()) {
    case fmm::Isa::kAvx512: combine_dense_avx512(s, p, growth_out, n); break;
    case fmm::Isa::kAvx2: combine_dense_avx2(s, p, growth_out, n); break;
    case fmm::Isa::kScalar:
      combine_dense_scalar_range(s, p, growth_out, 0, n);
      break;
  }
#else
  combine_dense_scalar_range(s, p, growth_out, 0, n);
#endif
  std::memset(s.tte_valid_data(), 1, n);
}

// Pow-batch input of one cell: growth() guards eff <= 0 -> 0, so those
// lanes get a benign 1.0 and the combine zeroes their result (the blend
// matches the scalar guard exactly). eff / 1000.0 is one IEEE division in
// every tier.
inline double growth_input(double eff) {
  return eff > 0.0 ? eff / 1000.0 : 1.0;
}

void dense_growth_in_scalar_range(const double* eff, double* in,
                                  std::size_t i0, std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) in[i] = growth_input(eff[i]);
}

#if FM_KERNELS_X86

__attribute__((target("avx2,fma"))) void dense_growth_in_avx2(
    const double* eff, double* in, std::size_t n) {
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vk = _mm256_set1_pd(1000.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d e = _mm256_loadu_pd(eff + i);
    const __m256d pos = _mm256_cmp_pd(e, vzero, _CMP_GT_OQ);
    _mm256_storeu_pd(in + i,
                     _mm256_blendv_pd(vone, _mm256_div_pd(e, vk), pos));
  }
  dense_growth_in_scalar_range(eff, in, i, n);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma"))) void
dense_growth_in_avx512(const double* eff, double* in, std::size_t n) {
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512d vk = _mm512_set1_pd(1000.0);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d e = _mm512_loadu_pd(eff + i);
    const __mmask8 pos = _mm512_cmp_pd_mask(e, vzero, _CMP_GT_OQ);
    _mm512_storeu_pd(in + i, _mm512_mask_div_pd(vone, pos, e, vk));
  }
  dense_growth_in_scalar_range(eff, in, i, n);
}

#endif  // FM_KERNELS_X86

void dense_growth_in(const double* eff, double* in, std::size_t n) {
#if FM_KERNELS_X86
  switch (fmm::active_isa()) {
    case fmm::Isa::kAvx512: dense_growth_in_avx512(eff, in, n); return;
    case fmm::Isa::kAvx2: dense_growth_in_avx2(eff, in, n); return;
    case fmm::Isa::kScalar: break;
  }
#endif
  dense_growth_in_scalar_range(eff, in, 0, n);
}

// The one erase-time cache refill, shared by every bulk reader of the cache
// (the erase-verify query and pass 1 of the erase pulse): gather every stale
// entry of every job, run one fm_pow_pos_n batch per run of jobs sharing
// damage_exponent (fm_pow_pos_n is bit-identical to the scalar growth() the
// cache getter runs, and elementwise, so grouping cannot change bits), then
// combine — vectorized when a job's whole segment is stale, through
// prime_tte otherwise. Each entry ends bit-identical to nominal_tte_us; the
// cache is a memo, so refilling early can change no observable state. `Job`
// is any type with `seg` and `phys` pointers (ErasePulseJob, CacheJob).
struct CacheJob {
  const SegmentSoA* seg;
  const PhysParams* phys;
};

template <class Job>
void refill_tte(const Job* jobs, std::size_t n_jobs) {
  KernelArena& a = arena();
  std::size_t total = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) total += jobs[j].seg->size();
  a.growth_in.resize(total);
  a.growth_out.resize(total);
  a.stale_idx.resize(total);
  a.job_stale_off.resize(n_jobs + 1);
  std::size_t n_stale = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    a.job_stale_off[j] = n_stale;
    const SegmentSoA& s = *jobs[j].seg;
    const std::size_t n = s.size();
    const std::uint8_t* valid = s.tte_valid_data();
    if (std::memchr(valid, 0, n) == nullptr) continue;  // all warm
    if (std::memchr(valid, 1, n) == nullptr) {  // every entry stale
      dense_growth_in(s.eff_cycles.data(), a.growth_in.data() + n_stale, n);
      n_stale += n;
      continue;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (valid[i]) continue;
      a.stale_idx[n_stale] = i;
      a.growth_in[n_stale] = growth_input(s.eff_cycles[i]);
      ++n_stale;
    }
  }
  a.job_stale_off[n_jobs] = n_stale;
  if (n_stale == 0) return;

  for (std::size_t j0 = 0; j0 < n_jobs;) {
    std::size_t j1 = j0 + 1;
    while (j1 < n_jobs &&
           jobs[j1].phys->damage_exponent == jobs[j0].phys->damage_exponent)
      ++j1;
    const std::size_t k0 = a.job_stale_off[j0];
    fmm::fm_pow_pos_n(a.growth_in.data() + k0, jobs[j0].phys->damage_exponent,
                      a.growth_out.data() + k0, a.job_stale_off[j1] - k0);
    j0 = j1;
  }

  for (std::size_t j = 0; j < n_jobs; ++j) {
    const SegmentSoA& s = *jobs[j].seg;
    const PhysParams& p = *jobs[j].phys;
    const std::size_t off = a.job_stale_off[j];
    const std::size_t cnt = a.job_stale_off[j + 1] - off;
    if (cnt == s.size()) {
      combine_dense(s, p, a.growth_out.data() + off, cnt);
      continue;
    }
    for (std::size_t k = 0; k < cnt; ++k) {
      const std::size_t i = a.stale_idx[off + k];
      const double g = s.eff_cycles[i] > 0.0 ? a.growth_out[off + k] : 0.0;
      s.prime_tte(i, static_cast<double>(s.tte_fresh_us[i]) *
                         p.slowdown_from_growth(
                             static_cast<double>(s.susceptibility[i]), g));
    }
  }
}

// --- erase-verify max over the warm cache ---------------------------------
// Max of the cached erase times of programmed cells (0 if none). Each lane
// folds x > acc ? x : acc from +0.0 — the scalar std::max(acc, x) — so a
// NaN entry never wins and no lane ever holds -0.0 or NaN. Max over such
// values is exact in any order: the vector folds return the scalar fold's
// bits.

double max_programmed_scalar_range(const SegmentSoA& s, std::size_t i0,
                                   std::size_t i1, double acc) {
  const double* cache = s.tte_cache_data();
  for (std::size_t i = i0; i < i1; ++i)
    if (s.level[i] != kErased) acc = std::max(acc, cache[i]);
  return acc;
}

#if FM_KERNELS_X86

__attribute__((target("avx2,fma"))) double max_programmed_avx2(
    const SegmentSoA& s) {
  const std::size_t n = s.size();
  const double* cache = s.tte_cache_data();
  __m256d vmax = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t lb;
    std::memcpy(&lb, s.level.data() + i, 4);
    const __m256d m_er = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(lb))),
        _mm256_set1_epi64x(kErased)));
    // erased lanes contribute +0.0, which never beats the zero start;
    // max_pd(x, acc) is x > acc ? x : acc
    vmax = _mm256_max_pd(_mm256_andnot_pd(m_er, _mm256_loadu_pd(cache + i)),
                         vmax);
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, vmax);
  double acc = 0.0;
  for (const double v : lanes) acc = std::max(acc, v);
  return max_programmed_scalar_range(s, i, n, acc);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma"))) double
max_programmed_avx512(const SegmentSoA& s) {
  const std::size_t n = s.size();
  const double* cache = s.tte_cache_data();
  __m512d vmax = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i lb = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(s.level.data() + i));
    const __mmask8 m_prog = static_cast<__mmask8>(_mm_cmpneq_epi8_mask(
        lb, _mm_set1_epi8(static_cast<char>(kErased))));
    vmax = _mm512_mask_max_pd(vmax, m_prog, _mm512_loadu_pd(cache + i), vmax);
  }
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, vmax);
  double acc = 0.0;
  for (const double v : lanes) acc = std::max(acc, v);
  return max_programmed_scalar_range(s, i, n, acc);
}

#endif  // FM_KERNELS_X86

double max_programmed_tte(const SegmentSoA& s) {
#if FM_KERNELS_X86
  switch (fmm::active_isa()) {
    case fmm::Isa::kAvx512: return max_programmed_avx512(s);
    case fmm::Isa::kAvx2: return max_programmed_avx2(s);
    case fmm::Isa::kScalar: break;
  }
#endif
  return max_programmed_scalar_range(s, 0, s.size(), 0.0);
}

// --- erase-pulse pass 3: the per-cell decision logic -----------------------
// Mirrors Cell::partial_erase branch-for-branch. The vector variants turn
// the branches into lane masks and compute both sides; every lane's
// surviving value went through exactly the scalar ops in the scalar order
// (div, min, mul, mul, add ...), so the blends cannot change any bit. The
// jitter factor comes pre-scattered per cell (jit[i]); lanes that never
// consult it (erased/defect) read initialized-but-meaningless values that
// are blended away (IEEE ops on them cannot trap under the default MXCSR).

void pass3_scalar_range(SegmentSoA& s, const PhysParams& p, double t_pe_us,
                        const double* jit, bool jittered, std::size_t i0,
                        std::size_t i1) {
  for (std::size_t i = i0; i < i1; ++i) {
    if (s.defect[i] != kNoDefect) continue;
    if (s.level[i] == kErased) {
      const double nominal = s.nominal_tte_us(i, p);
      const double frac =
          nominal > 0.0 ? std::min(t_pe_us / nominal, 1.0) : 1.0;
      s.eff_cycles[i] += p.stress_erase_idle * frac;
      s.invalidate_tte(i);
      continue;  // state unchanged; an erased cell stays erased
    }
    double tte = s.nominal_tte_us(i, p);
    if (jittered) tte *= jit[i];
    const double margin = tte - t_pe_us;
    if (margin <= 0.0) {
      s.eff_cycles[i] += p.stress_erase_transition;
      s.level[i] = kErased;
    } else {
      s.eff_cycles[i] +=
          p.stress_erase_transition * std::min(t_pe_us / tte, 1.0) * 0.5;
      s.level[i] = kProgrammed8;
    }
    s.invalidate_tte(i);
    s.metastable[i] = 1;
    s.margin_us[i] = static_cast<float>(margin);
  }
}

#if FM_KERNELS_X86

__attribute__((target("avx2,fma"))) void pass3_avx2(SegmentSoA& s,
                                                    const PhysParams& p,
                                                    double t_pe_us,
                                                    const double* jit,
                                                    bool jittered) {
  const std::size_t n = s.size();
  const __m256d vt = _mm256_set1_pd(t_pe_us);
  const __m256d vone = _mm256_set1_pd(1.0);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d videl = _mm256_set1_pd(p.stress_erase_idle);
  const __m256d vtrans = _mm256_set1_pd(p.stress_erase_transition);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  double* cache = s.tte_cache_data();
  std::uint8_t* valid = s.tte_valid_data();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    std::uint32_t db;
    std::uint32_t lb;
    std::memcpy(&db, s.defect.data() + i, 4);
    std::memcpy(&lb, s.level.data() + i, 4);
    const __m256d m_act = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(db))),
        _mm256_set1_epi64x(kNoDefect)));
    const __m256d m_er = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(lb))),
        _mm256_set1_epi64x(kErased)));
    const __m256d nominal = _mm256_loadu_pd(cache + i);
    // erased branch: frac = nominal > 0 ? min(t/nominal, 1) : 1
    const __m256d m_npos = _mm256_cmp_pd(nominal, vzero, _CMP_GT_OQ);
    __m256d frac_a = _mm256_min_pd(_mm256_div_pd(vt, nominal), vone);
    frac_a = _mm256_blendv_pd(vone, frac_a, m_npos);
    const __m256d delta_a = _mm256_mul_pd(videl, frac_a);
    // programmed branch: tte (*jitter), margin, full or prorated stress
    __m256d ttej = nominal;
    if (jittered) ttej = _mm256_mul_pd(nominal, _mm256_loadu_pd(jit + i));
    const __m256d margin = _mm256_sub_pd(ttej, vt);
    const __m256d m_le = _mm256_cmp_pd(margin, vzero, _CMP_LE_OQ);
    const __m256d frac_b = _mm256_min_pd(_mm256_div_pd(vt, ttej), vone);
    const __m256d delta_ab =
        _mm256_mul_pd(_mm256_mul_pd(vtrans, frac_b), vhalf);
    const __m256d delta_b = _mm256_blendv_pd(delta_ab, vtrans, m_le);
    // one masked eff update per lane, whichever branch the lane took
    const __m256d delta = _mm256_blendv_pd(delta_b, delta_a, m_er);
    const __m256d eff = _mm256_loadu_pd(s.eff_cycles.data() + i);
    const __m256d eff_new = _mm256_add_pd(eff, delta);
    _mm256_storeu_pd(s.eff_cycles.data() + i,
                     _mm256_blendv_pd(eff, eff_new, m_act));
    // byte-state epilogue: 4 narrow stores driven by the lane masks
    float mtmp[4];
    _mm_storeu_ps(mtmp, _mm256_cvtpd_ps(margin));
    const int act = _mm256_movemask_pd(m_act);
    const int er = _mm256_movemask_pd(m_er);
    const int le = _mm256_movemask_pd(m_le);
    for (int lane = 0; lane < 4; ++lane) {
      if (((act >> lane) & 1) == 0) continue;
      const std::size_t c = i + static_cast<std::size_t>(lane);
      valid[c] = 0;
      if ((er >> lane) & 1) continue;
      s.level[c] = ((le >> lane) & 1) ? kErased : kProgrammed8;
      s.metastable[c] = 1;
      s.margin_us[c] = mtmp[lane];
    }
  }
  pass3_scalar_range(s, p, t_pe_us, jit, jittered, i, n);
}

__attribute__((target("avx512f,avx512dq,avx512bw,avx512vl,avx2,fma"))) void
pass3_avx512(SegmentSoA& s, const PhysParams& p, double t_pe_us,
             const double* jit, bool jittered) {
  const std::size_t n = s.size();
  const __m512d vt = _mm512_set1_pd(t_pe_us);
  const __m512d vone = _mm512_set1_pd(1.0);
  const __m512d vzero = _mm512_setzero_pd();
  const __m512d videl = _mm512_set1_pd(p.stress_erase_idle);
  const __m512d vtrans = _mm512_set1_pd(p.stress_erase_transition);
  const __m512d vhalf = _mm512_set1_pd(0.5);
  double* cache = s.tte_cache_data();
  std::uint8_t* valid = s.tte_valid_data();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i db = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(s.defect.data() + i));
    const __m128i lb = _mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(s.level.data() + i));
    const __mmask8 m_act = static_cast<__mmask8>(_mm_cmpeq_epi8_mask(
        db, _mm_set1_epi8(static_cast<char>(kNoDefect))));
    const __mmask8 m_er = static_cast<__mmask8>(_mm_cmpeq_epi8_mask(
        lb, _mm_set1_epi8(static_cast<char>(kErased))));
    const __m512d nominal = _mm512_loadu_pd(cache + i);
    const __mmask8 m_npos = _mm512_cmp_pd_mask(nominal, vzero, _CMP_GT_OQ);
    __m512d frac_a = _mm512_min_pd(_mm512_div_pd(vt, nominal), vone);
    frac_a = _mm512_mask_mov_pd(vone, m_npos, frac_a);
    const __m512d delta_a = _mm512_mul_pd(videl, frac_a);
    __m512d ttej = nominal;
    if (jittered) ttej = _mm512_mul_pd(nominal, _mm512_loadu_pd(jit + i));
    const __m512d margin = _mm512_sub_pd(ttej, vt);
    const __mmask8 m_le = _mm512_cmp_pd_mask(margin, vzero, _CMP_LE_OQ);
    const __m512d frac_b = _mm512_min_pd(_mm512_div_pd(vt, ttej), vone);
    const __m512d delta_ab =
        _mm512_mul_pd(_mm512_mul_pd(vtrans, frac_b), vhalf);
    const __m512d delta_b = _mm512_mask_mov_pd(delta_ab, m_le, vtrans);
    const __m512d delta = _mm512_mask_mov_pd(delta_b, m_er, delta_a);
    const __m512d eff = _mm512_loadu_pd(s.eff_cycles.data() + i);
    _mm512_mask_storeu_pd(s.eff_cycles.data() + i, m_act,
                          _mm512_add_pd(eff, delta));
    // byte/float state via masked narrow stores (AVX-512BW/VL)
    const __mmask8 m_b = m_act & static_cast<__mmask8>(~m_er);
    _mm_mask_storeu_epi8(valid + i, static_cast<__mmask16>(m_act),
                         _mm_setzero_si128());
    const __m128i lv = _mm_mask_mov_epi8(
        _mm_set1_epi8(static_cast<char>(kProgrammed8)),
        static_cast<__mmask16>(m_le),
        _mm_set1_epi8(static_cast<char>(kErased)));
    _mm_mask_storeu_epi8(s.level.data() + i, static_cast<__mmask16>(m_b), lv);
    _mm_mask_storeu_epi8(s.metastable.data() + i,
                         static_cast<__mmask16>(m_b), _mm_set1_epi8(1));
    _mm256_mask_storeu_ps(s.margin_us.data() + i, m_b,
                          _mm512_cvtpd_ps(margin));
  }
  pass3_scalar_range(s, p, t_pe_us, jit, jittered, i, n);
}

#endif  // FM_KERNELS_X86

void pass3(SegmentSoA& s, const PhysParams& p, double t_pe_us,
           const double* jit, bool jittered) {
#if FM_KERNELS_X86
  switch (fmm::active_isa()) {
    case fmm::Isa::kAvx512: pass3_avx512(s, p, t_pe_us, jit, jittered); return;
    case fmm::Isa::kAvx2: pass3_avx2(s, p, t_pe_us, jit, jittered); return;
    case fmm::Isa::kScalar: break;
  }
#endif
  pass3_scalar_range(s, p, t_pe_us, jit, jittered, 0, s.size());
}

}  // namespace

void erase_full_segment(KernelMode m, SegmentSoA& s, const PhysParams& p) {
  const std::size_t n = s.size();
  if (m == KernelMode::kReference) {
    for (std::size_t i = 0; i < n; ++i) {
      Cell c = gather(s, i);
      c.full_erase(p);
      scatter(s, i, c);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (s.defect[i] != kNoDefect) continue;  // stuck cells never move
    s.eff_cycles[i] +=
        s.level[i] == kErased ? p.stress_erase_idle : p.stress_erase_transition;
    s.invalidate_tte(i);
    settle(s, i, kErased);
  }
}

void erase_pulse_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                         double t_pe_us, Rng& rng) {
  const ErasePulseJob job{&s, &p, t_pe_us, &rng};
  erase_pulse_segments(m, &job, 1);
}

void erase_pulse_segments(KernelMode m, const ErasePulseJob* jobs,
                          std::size_t n_jobs) {
  if (n_jobs == 0) return;
  if (m == KernelMode::kReference) {
    for (std::size_t j = 0; j < n_jobs; ++j) {
      SegmentSoA& s = *jobs[j].seg;
      const PhysParams& p = *jobs[j].phys;
      const std::size_t n = s.size();
      for (std::size_t i = 0; i < n; ++i) {
        Cell c = gather(s, i);
        c.partial_erase(p, jobs[j].t_pe_us, *jobs[j].rng);
        scatter(s, i, c);
      }
    }
    return;
  }
  // Mirrors Cell::partial_erase expression-for-expression, in three passes
  // run across ALL jobs so the transcendental batches see the concatenated
  // survivor sets (whole vector lanes even when each job's share is sparse):
  //
  //   1. refill stale nominal-erase-time cache entries vector-wide
  //      (refill_tte; after an erase-verify query the cache is already
  //      warm and this pass finds nothing to do);
  //   2. draw each job's per-cell jitter normals from that job's own RNG in
  //      exact scalar cell order (the RNG stream is observable state), then
  //      exponentiate the whole concatenation in one batch;
  //   3. apply the branch logic per job from the precomputed values
  //      (masked-SIMD when the dispatcher has lanes).
  //
  // Per-job results are byte-identical to sequential erase_pulse_segment
  // calls: passes 1/2 are elementwise (grouping cannot change bits) and
  // pass 3 touches one job at a time.
  refill_tte(jobs, n_jobs);

  KernelArena& a = arena();
  a.job_cell_off.resize(n_jobs + 1);
  std::size_t total = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    a.job_cell_off[j] = total;
    total += jobs[j].seg->size();
  }
  a.job_cell_off[n_jobs] = total;

  a.draw_idx.resize(total);
  a.jitter.resize(total);
  a.jitter_full.resize(total);
  a.job_draw_off.resize(n_jobs + 1);
  std::size_t n_draws = 0;
  for (std::size_t j = 0; j < n_jobs; ++j) {
    a.job_draw_off[j] = n_draws;
    const SegmentSoA& s = *jobs[j].seg;
    const PhysParams& p = *jobs[j].phys;
    if (!(p.tte_event_jitter_sigma > 0.0)) continue;
    const std::size_t n = s.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (s.defect[i] != kNoDefect || s.level[i] == kErased) continue;
      a.draw_idx[n_draws] = i;
      ++n_draws;
    }
    jobs[j].rng->normal_fill(0.0, p.tte_event_jitter_sigma,
                             a.jitter.data() + a.job_draw_off[j],
                             n_draws - a.job_draw_off[j]);
  }
  a.job_draw_off[n_jobs] = n_draws;
  fmm::fm_exp_n(a.jitter.data(), a.jitter.data(), n_draws);
  for (std::size_t j = 0; j < n_jobs; ++j) {
    const std::size_t cell0 = a.job_cell_off[j];
    for (std::size_t k = a.job_draw_off[j]; k < a.job_draw_off[j + 1]; ++k)
      a.jitter_full[cell0 + a.draw_idx[k]] = a.jitter[k];
  }

  for (std::size_t j = 0; j < n_jobs; ++j) {
    const PhysParams& p = *jobs[j].phys;
    pass3(*jobs[j].seg, p, jobs[j].t_pe_us,
          a.jitter_full.data() + a.job_cell_off[j],
          p.tte_event_jitter_sigma > 0.0);
  }
}

void program_words(KernelMode m, SegmentSoA& s, const PhysParams& p,
                   std::size_t cell0, const std::uint16_t* words,
                   std::size_t n_words, std::size_t bits_per_word) {
  if (m == KernelMode::kReference) {
    for (std::size_t w = 0; w < n_words; ++w)
      for (std::size_t b = 0; b < bits_per_word; ++b)
        if (((words[w] >> b) & 1u) == 0) {
          const std::size_t i = cell0 + w * bits_per_word + b;
          Cell c = gather(s, i);
          c.program(p);
          scatter(s, i, c);
        }
    return;
  }
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::uint16_t value = words[w];
    if (value == 0xFFFF) continue;  // nothing to program in this word
    const std::size_t base = cell0 + w * bits_per_word;
    for (std::size_t b = 0; b < bits_per_word; ++b) {
      if (((value >> b) & 1u) != 0) continue;
      const std::size_t i = base + b;
      if (s.defect[i] != kNoDefect) continue;
      s.eff_cycles[i] +=
          s.level[i] == kErased ? p.stress_program : p.stress_reprogram;
      s.invalidate_tte(i);
      settle(s, i, static_cast<std::uint8_t>(CellLevel::kProgrammed));
    }
  }
}

void partial_program_word(KernelMode m, SegmentSoA& s, const PhysParams& p,
                          std::size_t cell0, std::uint16_t value,
                          std::size_t bits_per_word, double fraction,
                          Rng& rng) {
  if (m == KernelMode::kReference) {
    for (std::size_t b = 0; b < bits_per_word; ++b)
      if (((value >> b) & 1u) == 0) {
        Cell c = gather(s, cell0 + b);
        c.partial_program(p, fraction, rng);
        scatter(s, cell0 + b, c);
      }
    return;
  }
  for (std::size_t b = 0; b < bits_per_word; ++b) {
    if (((value >> b) & 1u) != 0) continue;
    const std::size_t i = cell0 + b;
    if (s.defect[i] != kNoDefect) continue;
    if (s.level[i] != kErased) {
      s.eff_cycles[i] += p.stress_reprogram * std::min(fraction, 1.0);
      s.invalidate_tte(i);
      continue;
    }
    // Trap-assisted injection (Cell::partial_program): damage is evaluated
    // on the pre-pulse stress, then the pulse's own stress lands.
    const double damage =
        static_cast<double>(s.susceptibility[i]) * p.growth(s.eff_cycles[i]);
    const double threshold =
        rng.normal(p.prog_completion_mean, p.prog_completion_sigma) /
        (1.0 + p.k_prog_speedup * damage);
    const double margin = threshold - fraction;
    s.eff_cycles[i] += p.stress_program * std::min(fraction, 1.0);
    s.invalidate_tte(i);
    s.level[i] = margin <= 0.0
                     ? static_cast<std::uint8_t>(CellLevel::kProgrammed)
                     : kErased;
    s.metastable[i] = 1;
    s.margin_us[i] = static_cast<float>(margin * 10.0);
  }
}

std::uint16_t read_word(KernelMode m, const SegmentSoA& s,
                        const PhysParams& p, std::size_t cell0,
                        std::size_t bits_per_word, Rng& rng) {
  std::uint16_t value = 0;
  if (m == KernelMode::kReference) {
    for (std::size_t b = 0; b < bits_per_word; ++b)
      if (gather(s, cell0 + b).read(p, rng))
        value |= static_cast<std::uint16_t>(1u << b);
    return value;
  }
  for (std::size_t b = 0; b < bits_per_word; ++b) {
    const std::size_t i = cell0 + b;
    bool v = s.level[i] == kErased;
    if (s.defect[i] == kNoDefect && s.metastable[i]) {
      const double dist = std::abs(static_cast<double>(s.margin_us[i]));
      const double p_flip = 0.5 * fmm::fm_exp(-dist / p.read_noise_tau_us);
      if (rng.bernoulli(p_flip)) v = !v;
    }
    if (v) value |= static_cast<std::uint16_t>(1u << b);
  }
  return value;
}

void read_segment_majority(KernelMode m, const SegmentSoA& s,
                           const PhysParams& p, std::size_t bits_per_word,
                           int n_reads, Rng& rng, BitVec& out) {
  const std::size_t n_words = s.size() / bits_per_word;
  // The hoisting buffers below are sized for <= 16-bit words (every
  // supported geometry); wider words take the reference loop, which is
  // byte-identical by contract.
  if (m == KernelMode::kReference || bits_per_word > 16) {
    std::vector<int> ones(bits_per_word);
    for (std::size_t w = 0; w < n_words; ++w) {
      ones.assign(bits_per_word, 0);
      for (int r = 0; r < n_reads; ++r) {
        const std::uint16_t v = read_word(KernelMode::kReference, s, p,
                                          w * bits_per_word, bits_per_word,
                                          rng);
        for (std::size_t b = 0; b < bits_per_word; ++b)
          ones[b] += static_cast<int>((v >> b) & 1u);
      }
      for (std::size_t b = 0; b < bits_per_word; ++b)
        out.set(w * bits_per_word + b, ones[b] * 2 > n_reads);
    }
    return;
  }
  // Flip probabilities are read-invariant, so hoist them once for the whole
  // segment and run the exp batch vector-wide (bit-identical to the scalar
  // 0.5 * fm_exp(-dist / tau) per cell). Scratch lives in the per-thread
  // arena: parallel fleet dies never share it, steady-state reads allocate
  // nothing. Degenerate populations (all-defect, all-erased-and-settled)
  // leave n_meta == 0 — every bit reads deterministically from its level,
  // exactly as Cell::read does (defect cells return their level with no
  // draw; settled cells have no metastable noise window).
  const std::size_t n = s.size();
  KernelArena& a = arena();
  a.pflip_seg.resize(n);
  a.meta_idx.resize(n);
  a.meta_x.resize(n);
  std::vector<double>& pflip_seg = a.pflip_seg;
  std::size_t n_meta = 0;
  for (std::size_t i = 0; i < n; ++i) {
    pflip_seg[i] = -1.0;  // < 0 marks "deterministic, no draw"
    if (s.defect[i] == kNoDefect && s.metastable[i]) {
      const double dist = std::abs(static_cast<double>(s.margin_us[i]));
      a.meta_idx[n_meta] = i;
      a.meta_x[n_meta] = -dist / p.read_noise_tau_us;
      ++n_meta;
    }
  }
  fmm::fm_exp_n(a.meta_x.data(), a.meta_x.data(), n_meta);
  for (std::size_t k = 0; k < n_meta; ++k)
    pflip_seg[a.meta_idx[k]] = 0.5 * a.meta_x[k];

  // Per word: hoist each bit's settled value, then spin the n_reads
  // Bernoulli draws in the exact scalar order (read-major, bit-ascending).
  int ones[16];
  bool settled_val[16];
  double p_flip[16];
  for (std::size_t w = 0; w < n_words; ++w) {
    const std::size_t base = w * bits_per_word;
    for (std::size_t b = 0; b < bits_per_word; ++b) {
      const std::size_t i = base + b;
      ones[b] = 0;
      settled_val[b] = s.level[i] == kErased;
      p_flip[b] = pflip_seg[i];
    }
    for (int r = 0; r < n_reads; ++r)
      for (std::size_t b = 0; b < bits_per_word; ++b) {
        bool v = settled_val[b];
        if (p_flip[b] >= 0.0 && rng.bernoulli(p_flip[b])) v = !v;
        ones[b] += v ? 1 : 0;
      }
    for (std::size_t b = 0; b < bits_per_word; ++b)
      out.set(base + b, ones[b] * 2 > n_reads);
  }
}

void wear_cells(KernelMode m, SegmentSoA& s, const PhysParams& p,
                double cycles, const BitVec* pattern) {
  const std::size_t n = s.size();
  if (m == KernelMode::kReference) {
    for (std::size_t i = 0; i < n; ++i) {
      Cell c = gather(s, i);
      c.batch_stress(p, cycles, pattern ? !pattern->get(i) : true,
                     /*end_programmed=*/pattern != nullptr);
      scatter(s, i, c);
    }
    return;
  }
  if (cycles < 0.0) cycles = 0.0;
  const bool end_programmed = pattern != nullptr;
  for (std::size_t i = 0; i < n; ++i) {
    if (s.defect[i] != kNoDefect) continue;
    const bool programmed_each_cycle = pattern ? !pattern->get(i) : true;
    const double per_cycle =
        programmed_each_cycle ? p.stress_program + p.stress_erase_transition
                              : p.stress_erase_idle;
    s.eff_cycles[i] += cycles * per_cycle;
    s.invalidate_tte(i);
    settle(s, i,
           programmed_each_cycle && end_programmed
               ? static_cast<std::uint8_t>(CellLevel::kProgrammed)
               : kErased);
  }
}

void age_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                 double years, Rng& rng) {
  const std::size_t n = s.size();
  if (m == KernelMode::kReference) {
    for (std::size_t i = 0; i < n; ++i) {
      Cell c = gather(s, i);
      c.age(p, years, rng);
      scatter(s, i, c);
    }
    return;
  }
  if (years <= 0.0) return;  // Cell::age draws nothing in this case
  for (std::size_t i = 0; i < n; ++i) {
    if (s.defect[i] != kNoDefect) continue;
    if (s.level[i] == kErased) continue;  // only programmed cells leak
    const double damage =
        static_cast<double>(s.susceptibility[i]) * p.growth(s.eff_cycles[i]);
    const double halflife =
        p.retention_halflife_years / (1.0 + p.retention_wear_accel * damage);
    const double p_lost = 1.0 - std::exp2(-years / halflife);
    if (rng.bernoulli(p_lost)) settle(s, i, kErased);
    // Damage is untouched: the erase-time cache stays warm through aging.
  }
}

void bake_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                  double hours) {
  const std::size_t n = s.size();
  if (m == KernelMode::kReference) {
    for (std::size_t i = 0; i < n; ++i) {
      Cell c = gather(s, i);
      c.bake(p, hours);
      scatter(s, i, c);
    }
    return;
  }
  if (hours <= 0.0) return;
  for (std::size_t i = 0; i < n; ++i) {
    const double lifetime_stress = s.eff_cycles[i] + s.annealed[i];
    const double budget = std::max(
        0.0, p.anneal_recovery_frac * lifetime_stress - s.annealed[i]);
    const double delta =
        budget * (1.0 - fmm::fm_exp(-hours / p.anneal_tau_hours));
    s.eff_cycles[i] -= delta;
    s.annealed[i] += delta;
    s.invalidate_tte(i);
  }
}

double time_to_full_erase_us(KernelMode m, const SegmentSoA& s,
                             const PhysParams& p) {
  if (m == KernelMode::kReference) {
    double max_tte = 0.0;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const Cell c = gather(s, i);
      if (!c.erased()) max_tte = std::max(max_tte, c.tte_us(p));
    }
    return max_tte;
  }
  // Refill the whole cache, not only the programmed cells the max needs:
  // the erase pulse that follows the query then finds it warm.
  const CacheJob job{&s, &p};
  refill_tte(&job, 1);
  return max_programmed_tte(s);
}

}  // namespace kernels

}  // namespace flashmark
