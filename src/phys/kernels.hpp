// Segment-granularity physics kernels over structure-of-arrays cell state.
//
// The scalar Cell class (phys/cell.hpp) is the reference semantics: one
// object per cell, every transition a member function. That layout is ideal
// for reasoning and terrible for throughput — imprint/extract/audit advance
// 4096 cells tens of thousands of times, and the array-of-structs walk
// touches ~40 bytes per cell to update one double. This module stores a
// segment's cells as parallel arrays (SegmentSoA) and advances all of them
// in tight loops (erase_pulse_segment, program_words, read_segment_majority,
// ...), with a per-cell nominal-erase-time cache that is invalidated only
// when a cell's damage (eff_cycles) changes.
//
// Contract: for any operation sequence, kBatched and kReference produce
// BYTE-IDENTICAL state, RNG streams, and outputs. The batched loops mirror
// the Cell member functions expression-for-expression (same FP operations in
// the same order, same conditional RNG draws); the reference loops gather a
// Cell, call the member function, and scatter it back. The differential
// harness (tests/kernel_diff_test.cpp, ctest -L kernel) asserts the
// equivalence over seeded imprint→extract→audit round trips; the mode knob
// is deliberately outside the determinism seed (docs/REPRODUCIBILITY.md §7).
#pragma once

#include <cstdint>
#include <vector>

#include "phys/cell.hpp"
#include "phys/params.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace flashmark {

/// Which implementation of the segment physics kernels an array runs.
enum class KernelMode : std::uint8_t {
  kReference = 0,  ///< scalar path: gather Cell, member function, scatter
  kBatched = 1,    ///< SoA tight loops with the erase-time cache (default)
};

const char* to_string(KernelMode m);

/// Structure-of-arrays state of one segment's cells. Field semantics match
/// Cell exactly (phys/cell.hpp); `level`/`defect`/`metastable` store the raw
/// enum/bool codes of Cell::Snapshot. The nominal-erase-time cache carries
/// tte_us() results between queries and pulses; entries are invalidated by
/// every eff_cycles update and by nothing else (reads, aging and snapshots
/// leave damage untouched, so they keep the cache warm).
class SegmentSoA {
 public:
  SegmentSoA() = default;
  explicit SegmentSoA(std::size_t n);

  std::size_t size() const { return n_; }

  /// Value snapshot of cell `i` (same encoding as Cell::snapshot_state).
  Cell::Snapshot snapshot(std::size_t i) const;

  /// Scatter a snapshot into cell `i`; invalidates its erase-time cache.
  /// No domain validation — callers restoring untrusted data go through
  /// Cell::restore first.
  void assign(std::size_t i, const Cell::Snapshot& s);

  /// Nominal (jitter-free) time-to-erase of cell `i`, microseconds. Cached;
  /// bit-identical to Cell::tte_us (the cache only memoizes the identical
  /// pure computation).
  double nominal_tte_us(std::size_t i, const PhysParams& p) const {
    if (!tte_valid_[i]) {
      tte_cache_[i] = static_cast<double>(tte_fresh_us[i]) *
                      p.slowdown(static_cast<double>(susceptibility[i]),
                                 eff_cycles[i]);
      tte_valid_[i] = 1;
    }
    return tte_cache_[i];
  }

  /// Drop cell `i`'s cached erase time (call after any eff_cycles update).
  void invalidate_tte(std::size_t i) { tte_valid_[i] = 0; }

  /// True when cell `i`'s erase-time cache is warm.
  bool tte_cached(std::size_t i) const { return tte_valid_[i] != 0; }

  /// Install a precomputed nominal erase time for cell `i`. The value MUST
  /// be bit-identical to what nominal_tte_us would compute — the vectorized
  /// cache refill (shared by the erase-verify query and the erase pulse)
  /// satisfies this by evaluating the same fm_pow / slowdown_from_growth
  /// pipeline 4/8-wide (util/fm_math.hpp).
  ///
  /// THREAD CONTRACT (single-owner): prime_tte / nominal_tte_us write the
  /// mutable cache under `const`, so a SegmentSoA — and therefore the die
  /// that owns it — must only ever be touched by one thread at a time, even
  /// for logically read-only ops. DieStore::pin enforces this at the fleet
  /// layer: a pin is exclusive per die (a second pin of the same die blocks
  /// until the first unpins; see store/die_store.hpp). The TSan regression
  /// for the contract is StoreKernel.ConcurrentSameDieExtractIsExclusive in
  /// tests/kernel_diff_test.cpp (ctest -L kernel).
  void prime_tte(std::size_t i, double v) const {
    tte_cache_[i] = v;
    tte_valid_[i] = 1;
  }

  /// Raw cache arrays for the vectorized kernels (masked lane stores need
  /// contiguous memory). Same single-owner contract as prime_tte.
  double* tte_cache_data() const { return tte_cache_.data(); }
  std::uint8_t* tte_valid_data() const { return tte_valid_.data(); }

  // Parallel per-cell arrays (see Cell for field semantics). Public on
  // purpose: the kernels below are the only writers, and white-box tests
  // read them directly.
  std::vector<float> tte_fresh_us;
  std::vector<float> susceptibility;
  std::vector<double> eff_cycles;
  std::vector<double> annealed;
  std::vector<std::uint8_t> level;       ///< CellLevel raw value
  std::vector<std::uint8_t> defect;      ///< CellDefect raw value
  std::vector<std::uint8_t> metastable;  ///< 0/1
  std::vector<float> margin_us;

 private:
  std::size_t n_ = 0;
  mutable std::vector<double> tte_cache_;
  mutable std::vector<std::uint8_t> tte_valid_;
};

namespace kernels {

// Every kernel takes the mode first and dispatches internally, so call
// sites (flash/array.cpp) stay switch-free. All loops run cell-ascending;
// conditional RNG draws happen in exactly the order the scalar path draws
// them — that equivalence is what keeps the two modes byte-identical.

/// Full segment-erase pulse over every cell (Cell::full_erase).
void erase_full_segment(KernelMode m, SegmentSoA& s, const PhysParams& p);

/// Erase pulse aborted after `t_pe_us` effective microseconds
/// (Cell::partial_erase; the caller applies temperature acceleration).
void erase_pulse_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                         double t_pe_us, Rng& rng);

/// Program pulses for `n_words` consecutive words starting at cell
/// `cell0`: bits that are 0 in `words[w]` program their cells
/// (Cell::program), bits that are 1 leave them untouched.
void program_words(KernelMode m, SegmentSoA& s, const PhysParams& p,
                   std::size_t cell0, const std::uint16_t* words,
                   std::size_t n_words, std::size_t bits_per_word);

/// Aborted program pulse at `fraction` of the nominal word time for one
/// word (Cell::partial_program).
void partial_program_word(KernelMode m, SegmentSoA& s, const PhysParams& p,
                          std::size_t cell0, std::uint16_t value,
                          std::size_t bits_per_word, double fraction,
                          Rng& rng);

/// One noisy read of the word at `cell0` (Cell::read per bit, ascending).
std::uint16_t read_word(KernelMode m, const SegmentSoA& s,
                        const PhysParams& p, std::size_t cell0,
                        std::size_t bits_per_word, Rng& rng);

/// `n_reads` noisy reads of every word, majority-voted per bit into `out`
/// (sized to s.size()). Loop order is word-major, then read, then bit —
/// exactly a read_word sweep repeated n_reads times per word, so the RNG
/// stream matches the scalar analyze loop draw-for-draw. The batched path
/// hoists each metastable cell's flip probability out of the read loop
/// (the value is read-invariant; only the Bernoulli draw repeats).
void read_segment_majority(KernelMode m, const SegmentSoA& s,
                           const PhysParams& p, std::size_t bits_per_word,
                           int n_reads, Rng& rng, BitVec& out);

/// Batch imprint-wear accelerator (Cell::batch_stress per cell).
void wear_cells(KernelMode m, SegmentSoA& s, const PhysParams& p,
                double cycles, const BitVec* pattern);

/// Shelf aging (Cell::age per cell; draws only for programmed cells).
void age_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                 double years, Rng& rng);

/// High-temperature bake (Cell::bake per cell).
void bake_segment(KernelMode m, SegmentSoA& s, const PhysParams& p,
                  double hours);

/// Max nominal tte over still-programmed cells (0 if none) — the
/// controller-side erase-verify query. The batched path refills every stale
/// erase-time cache entry (not only the programmed cells the max needs) with
/// the same vectorized refill the erase pulse runs as its pass 1, so the
/// pulse that follows the query finds the cache warm.
double time_to_full_erase_us(KernelMode m, const SegmentSoA& s,
                             const PhysParams& p);

}  // namespace kernels

}  // namespace flashmark
