// The flash cell matrix of one die.
//
// Owns every cell, maps word addresses onto cells, and implements the
// physical side of each controller command. Per-cell state lives in
// structure-of-arrays form (phys/kernels.hpp) and every operation runs as a
// segment-granularity kernel; `set_kernel_mode` switches between the batched
// fast path (default) and the scalar Cell reference path — both byte
// identical by contract (tests/kernel_diff_test.cpp). Segments are
// manufactured lazily, each from its own RNG stream derived from (die seed,
// segment index), so a given die always grows the same cells no matter which
// experiment touches which segment first.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "flash/geometry.hpp"
#include "phys/cell.hpp"
#include "phys/kernels.hpp"
#include "phys/params.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace flashmark {

class DieFileMap;

/// Wear summary of a segment, used by the recycled-flash detector baseline
/// and by white-box tests.
struct SegmentWearStats {
  double eff_cycles_min = 0.0;
  double eff_cycles_mean = 0.0;
  double eff_cycles_max = 0.0;
  double tte_min_us = 0.0;
  double tte_mean_us = 0.0;
  double tte_max_us = 0.0;
};

class FlashArray {
 public:
  FlashArray(FlashGeometry geometry, PhysParams phys, std::uint64_t die_seed);

  const FlashGeometry& geometry() const { return geom_; }
  const PhysParams& phys() const { return phys_; }
  std::uint64_t die_seed() const { return die_seed_; }

  /// Kernel implementation selector. Not part of the die's identity: any
  /// mode produces byte-identical state/outputs for the same seed and
  /// operation sequence, so the mode is excluded from persistence and from
  /// the determinism seed (docs/REPRODUCIBILITY.md §7).
  void set_kernel_mode(KernelMode m) { mode_ = m; }
  KernelMode kernel_mode() const { return mode_; }

  /// Junction temperature in Celsius (default 25). Erase physics speeds up
  /// when hot: a partial-erase pulse of t delivers an effective exposure of
  /// t * (1 + temp_erase_accel_per_K * (T - 25)). Models verifying on a
  /// hot/cold production line with a 25 C-published window.
  void set_temperature_c(double t);
  double temperature_c() const { return temperature_c_; }

  // --- physical operations (called by the controller) -------------------
  /// Full erase pulse over one segment.
  void erase_segment(std::size_t seg);
  /// Erase pulse over one segment aborted after t_pe_us microseconds.
  void partial_erase_segment(std::size_t seg, double t_pe_us);
  /// Program `value` into the word at `addr`: bits that are 0 receive a
  /// program pulse; bits that are 1 leave their cells untouched (NOR flash
  /// can only clear bits).
  void program_word(Addr addr, std::uint16_t value);
  /// Program `n_words` consecutive words starting at `addr` (block-write
  /// granularity; the whole span must lie within one segment). Equivalent
  /// to n_words program_word calls, executed as one kernel sweep.
  void program_words(Addr addr, const std::uint16_t* words,
                     std::size_t n_words);
  /// Program pulse aborted at `fraction` (0..1] of the nominal word time.
  void partial_program_word(Addr addr, std::uint16_t value, double fraction);
  /// One (noisy) read of the word at `addr`.
  std::uint16_t read_word(Addr addr);
  /// `n_reads` noisy reads of every word of segment `seg`, majority-voted
  /// per bit. Bit i of the result is cell i's voted value. The read/draw
  /// order is word-major then read then bit — exactly a read_word loop —
  /// so the noise stream matches the scalar path draw-for-draw.
  BitVec read_segment_majority(std::size_t seg, int n_reads);

  // --- introspection ------------------------------------------------------
  /// Noise-free count of erased cells in a segment.
  std::size_t count_erased(std::size_t seg);
  /// Noise-free snapshot of a segment: bit i == 1 iff cell i is erased.
  BitVec snapshot(std::size_t seg);
  /// Time (us) an erase pulse must run before every currently-programmed
  /// cell of the segment has transitioned (max nominal tte). Models the
  /// controller-side erase-verify used by the accelerated imprint. Returns 0
  /// for a fully-erased segment.
  double time_to_full_erase_us(std::size_t seg);
  SegmentWearStats wear_stats(std::size_t seg);
  /// Value snapshot of one cell for white-box tests and physics dumps.
  /// (Cells are stored SoA; the returned Cell is materialized on demand.)
  Cell cell(std::size_t seg, std::size_t idx);

  // --- persistence ---------------------------------------------------------
  /// True if the segment's cells have been manufactured (touched) already.
  bool segment_materialized(std::size_t seg) const;

  // --- columnar backing (die-format v3) ------------------------------------
  /// Attach a validated v3 die map as the source of persisted cell state.
  /// Segments present in the map hydrate from it on first touch — one
  /// memcpy per column instead of per-cell manufacture — so loading a die is
  /// map-and-go: no cell data moves until a segment is used. Segments absent
  /// from the map stay lazily seed-manufactured as always. Throws
  /// std::runtime_error if the map's shape does not match this geometry.
  void set_backing(std::shared_ptr<const DieFileMap> map);
  const std::shared_ptr<const DieFileMap>& backing() const { return backing_; }

  /// True when the segment carries state beyond fresh manufacture — hydrated
  /// in memory or present in the backing map. Exactly the set of segments a
  /// save must persist.
  bool segment_present(std::size_t seg) const;
  /// The segment's in-memory SoA if hydrated, nullptr if lazy or still
  /// resting in the backing map.
  const SegmentSoA* materialized_segment(std::size_t seg) const;

  // --- dirty tracking ------------------------------------------------------
  /// True when array state has diverged since the last mark_clean(): any
  /// segment mutated, the shared noise RNG consumed (reads dirty the die —
  /// the draw position is persisted state), or the temperature changed.
  bool dirty() const;
  /// Declare the current state persisted (or equal to the fresh-manufacture
  /// state, for a new die). Checkpoint paths call this after a save so clean
  /// dies can be evicted without rewriting their files.
  void mark_clean();
  /// Write all materialized segments as a versioned text block ("FMSEGS").
  void save_segments(std::ostream& os) const;
  /// Restore segments from a save_segments block. Untouched segments stay
  /// lazy (they re-manufacture identically from the die seed). Throws
  /// std::runtime_error on format errors.
  void load_segments(std::istream& is);

  /// Serializable state of the shared read-noise stream (die-format v2).
  /// Persisting it makes a reloaded die continue the *exact* noise draw
  /// sequence of the saved one — the property resumable imprint sessions
  /// need for byte-identical crash recovery.
  Rng::State noise_rng_state() const { return noise_rng_.state(); }
  void restore_noise_rng(const Rng::State& st) { noise_rng_ = Rng::from_state(st); }

  /// High-temperature bake of the whole die for `hours` (thermal, not a
  /// digital command — the counterfeiter's refurbishing oven). Applies the
  /// bake kernel to every manufactured cell; untouched segments are fresh
  /// and unaffected by definition.
  void bake(double hours);

  /// Shelf aging of the whole die by `years`: programmed cells may leak
  /// below the sense level (age kernel); wear is untouched. Stored data
  /// decays; the watermark contrast survives.
  void age(double years);

  // --- simulation-only accelerator ---------------------------------------
  /// Apply the stress of `cycles` imprint P/E cycles in O(cells): cells
  /// whose `pattern` bit is 0 are treated as programmed every cycle, bit 1
  /// as kept erased. With a pattern the segment finishes holding the
  /// pattern (the Fig. 7 imprint loop ends on a program); a null pattern
  /// stresses every cell and finishes erased (the §III pre-conditioning
  /// loop ends on an erase). Verified against the real loop by tests.
  void wear_segment(std::size_t seg, double cycles,
                    const BitVec* pattern = nullptr);

 private:
  SegmentSoA& ensure_segment(std::size_t seg);
  /// Gather one cell's snapshot out of the backing map (text-format saves of
  /// a still-backed segment).
  Cell::Snapshot backing_snapshot(std::size_t seg, std::size_t i) const;
  /// Maps a word address to (segment, first cell index); validates
  /// alignment and range.
  std::pair<std::size_t, std::size_t> locate_word(Addr addr) const;

  FlashGeometry geom_;
  PhysParams phys_;
  std::uint64_t die_seed_;
  KernelMode mode_ = KernelMode::kBatched;
  double temperature_c_ = 25.0;
  Rng noise_rng_;
  std::vector<std::unique_ptr<SegmentSoA>> segments_;
  std::shared_ptr<const DieFileMap> backing_;
  std::vector<std::uint8_t> seg_dirty_;
  bool meta_dirty_ = false;
};

}  // namespace flashmark
