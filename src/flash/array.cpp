#include "flash/array.hpp"

#include <cstring>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flash/die_format.hpp"

namespace flashmark {

FlashArray::FlashArray(FlashGeometry geometry, PhysParams phys,
                       std::uint64_t die_seed)
    : geom_(geometry),
      phys_(phys),
      die_seed_(die_seed),
      noise_rng_(die_seed ^ 0xC0FFEE5EED5A11ADull),
      segments_(geometry.n_segments()),
      seg_dirty_(geometry.n_segments(), 0) {
  geom_.validate();
  phys_.validate();
}

SegmentSoA& FlashArray::ensure_segment(std::size_t seg) {
  if (seg >= segments_.size())
    throw std::out_of_range("FlashArray: segment index out of range");
  auto& slot = segments_[seg];
  if (!slot) {
    const std::size_t n = geom_.segment_cells(seg);
    slot = std::make_unique<SegmentSoA>(n);
    if (backing_ && backing_->has_segment(seg)) {
      // Hydrate from the columnar map: one memcpy per column. The map was
      // fully validated at open, so no per-cell checks here.
      const auto col = [&](v3::ColumnId c) {
        return backing_->column_data(seg, c);
      };
      std::memcpy(slot->tte_fresh_us.data(), col(v3::ColumnId::kTteFreshUs),
                  n * sizeof(float));
      std::memcpy(slot->susceptibility.data(),
                  col(v3::ColumnId::kSusceptibility), n * sizeof(float));
      std::memcpy(slot->eff_cycles.data(), col(v3::ColumnId::kEffCycles),
                  n * sizeof(double));
      std::memcpy(slot->annealed.data(), col(v3::ColumnId::kAnnealed),
                  n * sizeof(double));
      std::memcpy(slot->level.data(), col(v3::ColumnId::kLevel), n);
      std::memcpy(slot->defect.data(), col(v3::ColumnId::kDefect), n);
      std::memcpy(slot->metastable.data(), col(v3::ColumnId::kMetastable), n);
      std::memcpy(slot->margin_us.data(), col(v3::ColumnId::kMarginUs),
                  n * sizeof(float));
      for (std::size_t i = 0; i < n; ++i) slot->invalidate_tte(i);
    } else {
      // Per-segment manufacturing stream: independent of touch order.
      std::uint64_t sm = die_seed_ ^ (0x9E3779B97F4A7C15ull * (seg + 1));
      Rng seg_rng(splitmix64(sm));
      for (std::size_t i = 0; i < n; ++i)
        slot->assign(i, Cell::manufacture(phys_, seg_rng).snapshot_state());
    }
  }
  return *slot;
}

void FlashArray::set_backing(std::shared_ptr<const DieFileMap> map) {
  if (map) {
    if (map->n_segments() != geom_.n_segments())
      throw std::runtime_error("set_backing: segment count mismatch");
    for (std::size_t seg = 0; seg < geom_.n_segments(); ++seg)
      if (map->has_segment(seg) &&
          map->segment_cells(seg) != geom_.segment_cells(seg))
        throw std::runtime_error("set_backing: segment cell-count mismatch");
  }
  backing_ = std::move(map);
}

bool FlashArray::segment_present(std::size_t seg) const {
  if (seg >= segments_.size())
    throw std::out_of_range("segment_present: segment out of range");
  return segments_[seg] != nullptr || (backing_ && backing_->has_segment(seg));
}

const SegmentSoA* FlashArray::materialized_segment(std::size_t seg) const {
  if (seg >= segments_.size())
    throw std::out_of_range("materialized_segment: segment out of range");
  return segments_[seg].get();
}

bool FlashArray::dirty() const {
  if (meta_dirty_) return true;
  for (const std::uint8_t d : seg_dirty_)
    if (d) return true;
  return false;
}

void FlashArray::mark_clean() {
  meta_dirty_ = false;
  std::fill(seg_dirty_.begin(), seg_dirty_.end(), 0);
}

std::pair<std::size_t, std::size_t> FlashArray::locate_word(Addr addr) const {
  if (!geom_.valid(addr))
    throw std::out_of_range("FlashArray: address outside flash");
  if (!geom_.word_aligned(addr))
    throw std::invalid_argument("FlashArray: unaligned word address");
  const std::size_t seg = geom_.segment_index(addr);
  const Addr base = geom_.segment_base(seg);
  const std::size_t cell0 = static_cast<std::size_t>(addr - base) * 8;
  return {seg, cell0};
}

void FlashArray::erase_segment(std::size_t seg) {
  kernels::erase_full_segment(mode_, ensure_segment(seg), phys_);
  seg_dirty_[seg] = 1;
}

void FlashArray::set_temperature_c(double t) {
  const double factor = 1.0 + phys_.temp_erase_accel_per_K * (t - 25.0);
  if (factor <= 0.05)
    throw std::invalid_argument("set_temperature_c: temperature out of model range");
  if (t != temperature_c_) meta_dirty_ = true;
  temperature_c_ = t;
}

void FlashArray::partial_erase_segment(std::size_t seg, double t_pe_us) {
  if (t_pe_us < 0.0)
    throw std::invalid_argument("partial_erase_segment: negative time");
  // Hot silicon erases faster: the same wall-clock pulse delivers more
  // effective exposure.
  const double effective =
      t_pe_us *
      (1.0 + phys_.temp_erase_accel_per_K * (temperature_c_ - 25.0));
  kernels::erase_pulse_segment(mode_, ensure_segment(seg), phys_, effective,
                               noise_rng_);
  seg_dirty_[seg] = 1;
  meta_dirty_ = true;  // noise RNG advanced
}

void FlashArray::program_word(Addr addr, std::uint16_t value) {
  const auto [seg, cell0] = locate_word(addr);
  kernels::program_words(mode_, ensure_segment(seg), phys_, cell0, &value, 1,
                         geom_.bits_per_word());
  seg_dirty_[seg] = 1;
}

void FlashArray::program_words(Addr addr, const std::uint16_t* words,
                               std::size_t n_words) {
  if (n_words == 0) return;
  const auto [seg, cell0] = locate_word(addr);
  SegmentSoA& s = ensure_segment(seg);
  if (cell0 + n_words * geom_.bits_per_word() > s.size())
    throw std::out_of_range("program_words: span crosses segment end");
  kernels::program_words(mode_, s, phys_, cell0, words, n_words,
                         geom_.bits_per_word());
  seg_dirty_[seg] = 1;
}

void FlashArray::partial_program_word(Addr addr, std::uint16_t value,
                                      double fraction) {
  if (fraction <= 0.0)
    throw std::invalid_argument("partial_program_word: fraction must be > 0");
  const auto [seg, cell0] = locate_word(addr);
  kernels::partial_program_word(mode_, ensure_segment(seg), phys_, cell0,
                                value, geom_.bits_per_word(), fraction,
                                noise_rng_);
  seg_dirty_[seg] = 1;
  meta_dirty_ = true;  // noise RNG advanced
}

std::uint16_t FlashArray::read_word(Addr addr) {
  const auto [seg, cell0] = locate_word(addr);
  meta_dirty_ = true;  // a read consumes noise draws: the stream position
                       // is persisted state (resume continuity)
  return kernels::read_word(mode_, ensure_segment(seg), phys_, cell0,
                            geom_.bits_per_word(), noise_rng_);
}

BitVec FlashArray::read_segment_majority(std::size_t seg, int n_reads) {
  if (n_reads <= 0)
    throw std::invalid_argument("read_segment_majority: n_reads must be > 0");
  SegmentSoA& s = ensure_segment(seg);
  BitVec out(s.size());
  meta_dirty_ = true;  // noise RNG advances
  kernels::read_segment_majority(mode_, s, phys_, geom_.bits_per_word(),
                                 n_reads, noise_rng_, out);
  return out;
}

std::size_t FlashArray::count_erased(std::size_t seg) {
  const SegmentSoA& s = ensure_segment(seg);
  std::size_t n = 0;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (s.level[i] == static_cast<std::uint8_t>(CellLevel::kErased)) ++n;
  return n;
}

BitVec FlashArray::snapshot(std::size_t seg) {
  const SegmentSoA& s = ensure_segment(seg);
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    v.set(i, s.level[i] == static_cast<std::uint8_t>(CellLevel::kErased));
  return v;
}

double FlashArray::time_to_full_erase_us(std::size_t seg) {
  return kernels::time_to_full_erase_us(mode_, ensure_segment(seg), phys_);
}

SegmentWearStats FlashArray::wear_stats(std::size_t seg) {
  const SegmentSoA& cells = ensure_segment(seg);
  SegmentWearStats s;
  bool first = true;
  double sum_cycles = 0.0;
  double sum_tte = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const double n = cells.eff_cycles[i];
    const double tte = cells.nominal_tte_us(i, phys_);
    if (first) {
      s.eff_cycles_min = s.eff_cycles_max = n;
      s.tte_min_us = s.tte_max_us = tte;
      first = false;
    } else {
      s.eff_cycles_min = std::min(s.eff_cycles_min, n);
      s.eff_cycles_max = std::max(s.eff_cycles_max, n);
      s.tte_min_us = std::min(s.tte_min_us, tte);
      s.tte_max_us = std::max(s.tte_max_us, tte);
    }
    sum_cycles += n;
    sum_tte += tte;
  }
  if (cells.size() > 0) {
    s.eff_cycles_mean = sum_cycles / static_cast<double>(cells.size());
    s.tte_mean_us = sum_tte / static_cast<double>(cells.size());
  }
  return s;
}

Cell FlashArray::cell(std::size_t seg, std::size_t idx) {
  const SegmentSoA& cells = ensure_segment(seg);
  if (idx >= cells.size())
    throw std::out_of_range("FlashArray::cell: cell index out of range");
  return Cell::restore(cells.snapshot(idx));
}

bool FlashArray::segment_materialized(std::size_t seg) const {
  if (seg >= segments_.size())
    throw std::out_of_range("segment_materialized: segment out of range");
  return segments_[seg] != nullptr;
}

Cell::Snapshot FlashArray::backing_snapshot(std::size_t seg,
                                            std::size_t i) const {
  // Gather one cell from the validated columnar map (little-endian host —
  // a DieFileMap never validates on a big-endian one).
  const auto col = [&](v3::ColumnId c) { return backing_->column_data(seg, c); };
  Cell::Snapshot s{};
  std::memcpy(&s.tte_fresh_us, col(v3::ColumnId::kTteFreshUs) + 4 * i, 4);
  std::memcpy(&s.susceptibility, col(v3::ColumnId::kSusceptibility) + 4 * i, 4);
  std::memcpy(&s.eff_cycles, col(v3::ColumnId::kEffCycles) + 8 * i, 8);
  std::memcpy(&s.annealed, col(v3::ColumnId::kAnnealed) + 8 * i, 8);
  s.level = col(v3::ColumnId::kLevel)[i];
  s.defect = col(v3::ColumnId::kDefect)[i];
  s.metastable = col(v3::ColumnId::kMetastable)[i];
  std::memcpy(&s.margin_us, col(v3::ColumnId::kMarginUs) + 4 * i, 4);
  return s;
}

void FlashArray::save_segments(std::ostream& os) const {
  std::size_t n = 0;
  for (std::size_t seg = 0; seg < segments_.size(); ++seg)
    if (segment_present(seg)) ++n;
  os << "FMSEGS 1\n" << n << "\n";
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    if (!segment_present(seg)) continue;
    const SegmentSoA* cells = segments_[seg].get();
    const std::size_t ncells = geom_.segment_cells(seg);
    os << "SEG " << seg << " " << ncells << "\n";
    for (std::size_t i = 0; i < ncells; ++i) {
      const Cell::Snapshot s =
          cells ? cells->snapshot(i) : backing_snapshot(seg, i);
      os << s.tte_fresh_us << ' ' << s.susceptibility << ' ' << s.eff_cycles
         << ' ' << s.annealed << ' ' << static_cast<int>(s.level) << ' '
         << static_cast<int>(s.defect) << ' ' << static_cast<int>(s.metastable)
         << ' ' << s.margin_us << "\n";
    }
  }
  os << "END\n";
}

void FlashArray::load_segments(std::istream& is) {
  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != "FMSEGS" || version != 1)
    throw std::runtime_error("load_segments: bad header");
  std::size_t n = 0;
  if (!(is >> n)) throw std::runtime_error("load_segments: bad segment count");
  for (std::size_t i = 0; i < n; ++i) {
    std::string tag;
    std::size_t seg = 0, ncells = 0;
    if (!(is >> tag >> seg >> ncells) || tag != "SEG")
      throw std::runtime_error("load_segments: bad segment header");
    if (seg >= segments_.size() || ncells != geom_.segment_cells(seg))
      throw std::runtime_error("load_segments: segment shape mismatch");
    auto cells = std::make_unique<SegmentSoA>(ncells);
    for (std::size_t c = 0; c < ncells; ++c) {
      Cell::Snapshot s{};
      int level = 0, defect = 0, meta = 0;
      if (!(is >> s.tte_fresh_us >> s.susceptibility >> s.eff_cycles >>
            s.annealed >> level >> defect >> meta >> s.margin_us))
        throw std::runtime_error("load_segments: truncated cell data");
      s.level = static_cast<std::uint8_t>(level);
      s.defect = static_cast<std::uint8_t>(defect);
      s.metastable = static_cast<std::uint8_t>(meta);
      // Round-trip through Cell::restore for domain validation.
      cells->assign(c, Cell::restore(s).snapshot_state());
    }
    segments_[seg] = std::move(cells);
  }
  std::string end;
  if (!(is >> end) || end != "END")
    throw std::runtime_error("load_segments: missing END");
}

void FlashArray::bake(double hours) {
  // A segment resting in the backing map is NOT fresh — it must hydrate so
  // the bake applies to its persisted state, not to a lazy re-manufacture.
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    if (!segment_present(seg)) continue;
    kernels::bake_segment(mode_, ensure_segment(seg), phys_, hours);
    seg_dirty_[seg] = 1;
  }
}

void FlashArray::age(double years) {
  for (std::size_t seg = 0; seg < segments_.size(); ++seg) {
    if (!segment_present(seg)) continue;
    kernels::age_segment(mode_, ensure_segment(seg), phys_, years, noise_rng_);
    seg_dirty_[seg] = 1;
  }
  meta_dirty_ = true;  // noise RNG advances
}

void FlashArray::wear_segment(std::size_t seg, double cycles,
                              const BitVec* pattern) {
  SegmentSoA& cells = ensure_segment(seg);
  if (pattern && pattern->size() != cells.size())
    throw std::invalid_argument(
        "wear_segment: pattern length must equal cell count");
  kernels::wear_cells(mode_, cells, phys_, cycles, pattern);
  seg_dirty_[seg] = 1;
}

}  // namespace flashmark
