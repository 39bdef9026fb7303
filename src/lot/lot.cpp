#include "lot/lot.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/metrics.hpp"
#include "lot/lot_internal.hpp"
#include "obs/metrics.hpp"
#include "util/shards.hpp"

namespace flashmark::lot {
namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Deterministic shortest-round-trip-ish rendering for CSV cells. %.10g is
/// enough to distinguish every value these curves can take and renders the
/// same bytes for the same double on every fold order (the values
/// themselves are bit-identical by the integer-sum construction).
std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

WatermarkSpec spec_for(const LotConfig& cfg, std::uint64_t die,
                       std::uint32_t npe) {
  WatermarkSpec spec;
  spec.fields = cfg.fields_for(die);
  spec.key = cfg.key;
  spec.n_replicas = cfg.n_replicas;
  spec.npe = npe;
  // Batched wear: the lot flow imprints each die in one kernel pass — the
  // per-cycle loop would make a 10^5-die study take days, and the two
  // strategies are byte-identical by the kernel contract.
  spec.strategy = ImprintStrategy::kBatchWear;
  return spec;
}

void validate(const LotConfig& cfg) {
  if (cfg.n_dies == 0) throw std::invalid_argument("run_lot: empty lot");
  if (cfg.npe_points.empty())
    throw std::invalid_argument("run_lot: no npe points");
  if (cfg.conditions.empty())
    throw std::invalid_argument("run_lot: no conditions");
  if (cfg.segment >= cfg.device.geometry.n_main_segments())
    throw std::invalid_argument("run_lot: segment out of range");
}

}  // namespace

std::string LotCondition::label() const {
  std::string s = fmt_g(temperature_c);
  s += "C_w";
  s += fmt_g(pre_wear_cycles);
  return s;
}

WatermarkFields LotConfig::fields_for(std::uint64_t die) const {
  WatermarkFields f;
  f.manufacturer_id = 0x0F1A;
  f.die_id = static_cast<std::uint32_t>(die);
  f.speed_grade = 4;
  f.date_code = static_cast<std::uint16_t>((26u << 6) | 32u);  // 2026-W32
  return f;
}

std::size_t LotConfig::cell_of(std::uint64_t die) const {
  const std::size_t point = die % npe_points.size();
  const std::size_t cond = (die / npe_points.size()) % conditions.size();
  return point * conditions.size() + cond;
}

void LotCellAccum::merge(const LotCellAccum& other) {
  if (point_idx != other.point_idx || cond_idx != other.cond_idx)
    throw std::invalid_argument("LotCellAccum::merge: cell identity mismatch");
  auto merge_bits = [](std::uint64_t& mine, std::uint64_t theirs) {
    // A shard that completed no die in this cell (or a synthesized lost
    // range) reports width 0; widths must agree whenever both sides saw
    // completed dies.
    if (mine != 0 && theirs != 0 && mine != theirs)
      throw std::invalid_argument("LotCellAccum::merge: bit-width mismatch");
    if (mine == 0) mine = theirs;
  };
  merge_bits(raw_bits_per_die, other.raw_bits_per_die);
  merge_bits(vote_bits_per_die, other.vote_bits_per_die);
  n += other.n;
  detected += other.detected;
  failed += other.failed;
  raw_err += other.raw_err;
  raw_err_sq += other.raw_err_sq;
  vote_err += other.vote_err;
  vote_err_sq += other.vote_err_sq;
}

namespace internal {

std::vector<LotCellAccum> make_cell_grid(const LotConfig& cfg) {
  const WatermarkSpec probe = spec_for(cfg, 0, cfg.npe_points[0]);
  const std::uint64_t raw_bits =
      cfg.device.geometry.segment_cells(cfg.segment);
  const std::uint64_t vote_bits = probe.replica_bits();
  std::vector<LotCellAccum> cells(cfg.n_cells());
  for (std::size_t p = 0; p < cfg.npe_points.size(); ++p)
    for (std::size_t c = 0; c < cfg.conditions.size(); ++c) {
      LotCellAccum& cell = cells[p * cfg.conditions.size() + c];
      cell.point_idx = static_cast<std::uint32_t>(p);
      cell.cond_idx = static_cast<std::uint32_t>(c);
      cell.raw_bits_per_die = raw_bits;
      cell.vote_bits_per_die = vote_bits;
    }
  return cells;
}

ShardOutcome run_shard_range(const LotConfig& cfg, std::uint64_t begin,
                             std::uint64_t end, const LotOptions& opts,
                             bool allow_crash_hook) {
  ShardOutcome out;
  out.cells = make_cell_grid(cfg);
  const std::size_t n_local = static_cast<std::size_t>(end - begin);

  // Per-die outcomes land in die-indexed slots (never shared accumulators)
  // so the fold below is a sequential pass — thread count cannot reorder it.
  struct DieRes {
    std::uint32_t raw_err = 0;
    std::uint32_t vote_err = 0;
    std::uint8_t detected = 0;
  };
  std::vector<DieRes> res(n_local);

  const std::size_t P = cfg.npe_points.size();
  const std::size_t C = cfg.conditions.size();
  const Addr addr = cfg.device.geometry.segment_base(cfg.segment);
  const std::size_t seg_cells = cfg.device.geometry.segment_cells(cfg.segment);

  fleet::FleetOptions fo;
  fo.threads = opts.threads;
  fleet::FleetReport report = fleet::run_dies(
      n_local,
      [&](std::size_t i, fleet::DieCounters& counters) {
        const std::uint64_t die = begin + i;
        if (allow_crash_hook && die == opts.crash_at_die) _exit(3);
        const std::uint32_t npe = cfg.npe_points[die % P];
        const LotCondition& cond = cfg.conditions[(die / P) % C];

        Device dev(cfg.device, fleet::derive_die_seed(cfg.master_seed, die));
        dev.array().set_temperature_c(cond.temperature_c);
        FlashHal& hal = dev.hal();
        if (cond.pre_wear_cycles > 0.0)
          hal.wear_segment(addr, cond.pre_wear_cycles, nullptr);

        const WatermarkSpec spec = spec_for(cfg, die, npe);
        const EncodedWatermark enc = encode_watermark(spec, seg_cells);
        ImprintOptions io;
        io.npe = npe;
        io.strategy = ImprintStrategy::kBatchWear;
        io.accelerated = spec.accelerated;
        imprint_flashmark(hal, addr, enc.segment_pattern, io);

        ExtractOptions eo;
        eo.t_pew = cfg.t_pew;
        const ExtractResult ext = extract_flashmark(hal, addr, eo);

        VerifyOptions vo;
        vo.t_pew = cfg.t_pew;
        vo.n_replicas = cfg.n_replicas;
        vo.key = cfg.key;
        const VerifyReport vr = judge_extracted_bits(ext.bits, vo);

        DieRes& r = res[i];
        r.detected = vr.verdict == Verdict::kGenuine && vr.fields &&
                     vr.fields->die_id == static_cast<std::uint32_t>(die);
        r.raw_err = static_cast<std::uint32_t>(
            compare_bits(enc.segment_pattern, ext.bits).errors);
        const BitVec voted =
            decode_replicas(ext.bits, enc.layout, VoteMode::kMajority);
        r.vote_err =
            static_cast<std::uint32_t>(compare_bits(enc.replica, voted).errors);

        counters.absorb(dev);
        counters.absorb_recovery(vr);
      },
      fo);

  for (std::size_t i = 0; i < n_local; ++i) {
    fleet::DieCounters& row = report.dies[i];
    row.die = static_cast<std::size_t>(begin + i);  // shard-absolute id
    out.die_wall_ms.add(row.wall_ms);
    LotCellAccum& cell = out.cells[cfg.cell_of(begin + i)];
    ++cell.n;
    if (row.failed) {
      ++cell.failed;
      continue;
    }
    const DieRes& r = res[i];
    cell.detected += r.detected;
    cell.raw_err += r.raw_err;
    cell.raw_err_sq +=
        static_cast<std::uint64_t>(r.raw_err) * r.raw_err;
    cell.vote_err += r.vote_err;
    cell.vote_err_sq +=
        static_cast<std::uint64_t>(r.vote_err) * r.vote_err;
  }

  out.fleet.threads_used = report.threads_used;
  out.fleet.wall_ms = report.wall_ms;
  out.fleet.cpu_ms = report.cpu_ms;
  if (opts.keep_all_rows) {
    out.fleet.dies = std::move(report.dies);
  } else {
    for (auto& row : report.dies)
      if (row.health != fleet::DieHealth::kClean)
        out.fleet.dies.push_back(std::move(row));
  }
  return out;
}

}  // namespace internal

std::string LotResult::detection_csv(double z) const {
  std::ostringstream os;
  os << "npe,temperature_c,pre_wear_cycles,dies,failed,detected,p_detect,"
        "ci_lo,ci_hi\n";
  for (const auto& cell : cells) {
    const LotCondition& cond = config.conditions[cell.cond_idx];
    os << config.npe_points[cell.point_idx] << ','
       << fmt_g(cond.temperature_c) << ',' << fmt_g(cond.pre_wear_cycles)
       << ',' << cell.n << ',' << cell.failed << ',' << cell.detected << ',';
    if (cell.n == 0) {
      // An interval over zero trials does not exist; print the absence
      // explicitly instead of calling wilson_interval (which would throw).
      os << "nan,nan,nan\n";
      continue;
    }
    const WilsonInterval w = wilson_interval(cell.detected, cell.n, z);
    os << fmt_g(w.p_hat) << ',' << fmt_g(w.lo) << ',' << fmt_g(w.hi) << '\n';
  }
  return os.str();
}

std::string LotResult::ber_csv(double z) const {
  std::ostringstream os;
  os << "npe,temperature_c,pre_wear_cycles,kind,dies_ok,bits_per_die,errors,"
        "mean_ber,ci_lo,ci_hi\n";
  for (const auto& cell : cells) {
    const LotCondition& cond = config.conditions[cell.cond_idx];
    const std::uint64_t n_ok = cell.n - cell.failed;
    const auto emit = [&](const char* kind, std::uint64_t bits,
                          std::uint64_t err, std::uint64_t err_sq) {
      os << config.npe_points[cell.point_idx] << ','
         << fmt_g(cond.temperature_c) << ',' << fmt_g(cond.pre_wear_cycles)
         << ',' << kind << ',' << n_ok << ',' << bits << ',' << err << ',';
      if (n_ok == 0 || bits == 0) {
        os << "nan,nan,nan\n";
        return;
      }
      const double nb = static_cast<double>(n_ok) * static_cast<double>(bits);
      const double mean_ber = static_cast<double>(err) / nb;
      os << fmt_g(mean_ber) << ',';
      if (n_ok < 2) {
        // variance_from_counts throws below two samples by design; the
        // undefined interval is printed as nan, never as a silent zero.
        os << "nan,nan\n";
        return;
      }
      const double sd = std::sqrt(variance_from_counts(err, err_sq, n_ok));
      const double half =
          z * sd / std::sqrt(static_cast<double>(n_ok)) /
          static_cast<double>(bits);
      os << fmt_g(std::max(0.0, mean_ber - half)) << ','
         << fmt_g(std::min(1.0, mean_ber + half)) << '\n';
    };
    emit("raw", cell.raw_bits_per_die, cell.raw_err, cell.raw_err_sq);
    emit("voted", cell.vote_bits_per_die, cell.vote_err, cell.vote_err_sq);
  }
  return os.str();
}

void LotResult::fold_into(obs::MetricsRegistry& reg,
                          const std::string& prefix) const {
  std::uint64_t dies = 0, detected = 0, failed = 0;
  for (const auto& cell : cells) {
    const std::string base = prefix + ".npe" +
                             std::to_string(config.npe_points[cell.point_idx]) +
                             '.' + config.conditions[cell.cond_idx].label();
    reg.counter(base + ".dies").add(cell.n);
    reg.counter(base + ".detected").add(cell.detected);
    reg.counter(base + ".failed").add(cell.failed);
    reg.counter(base + ".raw_err").add(cell.raw_err);
    reg.counter(base + ".raw_err_sq").add(cell.raw_err_sq);
    reg.counter(base + ".vote_err").add(cell.vote_err);
    reg.counter(base + ".vote_err_sq").add(cell.vote_err_sq);
    dies += cell.n;
    detected += cell.detected;
    failed += cell.failed;
  }
  reg.counter(prefix + ".dies").add(dies);
  reg.counter(prefix + ".detected").add(detected);
  reg.counter(prefix + ".failed").add(failed);
}

void LotResult::print_summary(std::ostream& os) const {
  std::uint64_t dies = 0, detected = 0, failed = 0;
  for (const auto& cell : cells) {
    dies += cell.n;
    detected += cell.detected;
    failed += cell.failed;
  }
  os << "[lot] " << dies << " dies over " << cells.size() << " cells, "
     << shards_used << " shard(s)";
  if (shards_lost) os << " (" << shards_lost << " LOST)";
  os << ": " << detected << " detected";
  if (failed) os << ", " << failed << " failed";
  os << ", wall " << wall_ms << " ms (cpu " << fleet.cpu_ms << " ms)";
  if (die_wall_ms.count())
    os << ", die wall mean " << die_wall_ms.mean() << " ms";
  os << "\n";
}

LotResult run_lot(const LotConfig& cfg, const LotOptions& opts) {
  validate(cfg);
  const auto t0 = std::chrono::steady_clock::now();

  LotResult result;
  result.config = cfg;
  result.cells = internal::make_cell_grid(cfg);

  const unsigned slots = std::max(
      1u, static_cast<unsigned>(std::min<std::uint64_t>(
              opts.shards ? opts.shards : 1, cfg.n_dies)));
  result.shards_used = slots;

  // slots > 1: forked workers, one contiguous die range each. A worker
  // that died, or whose frame does not validate, leaves its range lost.
  std::vector<std::optional<std::string>> frames;
  if (slots > 1)
    frames = util::run_forked_shards(
        cfg.n_dies, slots,
        [&](std::uint64_t begin, std::uint64_t end) {
          return internal::serialize_shard(
              internal::run_shard_range(cfg, begin, end, opts,
                                        /*allow_crash_hook=*/true),
              begin, end);
        },
        &result.interrupted_signal);

  for (unsigned s = 0; s < slots; ++s) {
    std::uint64_t begin = 0, end = 0;
    util::shard_range(cfg.n_dies, slots, s, &begin, &end);
    std::optional<internal::ShardOutcome> outcome;
    if (slots == 1)
      outcome = internal::run_shard_range(cfg, 0, cfg.n_dies, opts);
    else if (frames[s])
      outcome = internal::deserialize_shard(*frames[s], cfg, begin, end);
    if (outcome) {
      for (std::size_t i = 0; i < result.cells.size(); ++i)
        result.cells[i].merge(outcome->cells[i]);
      result.fleet.merge(outcome->fleet);
      result.die_wall_ms.merge(outcome->die_wall_ms);
      continue;
    }
    // Lost shard: the range's dies are accounted as failed rows with a
    // structured reason instead of silently shrinking the denominator.
    ++result.shards_lost;
    fleet::FleetReport lost;
    lost.dies.reserve(static_cast<std::size_t>(end - begin));
    for (std::uint64_t die = begin; die < end; ++die) {
      LotCellAccum& cell = result.cells[cfg.cell_of(die)];
      ++cell.n;
      ++cell.failed;
      fleet::DieCounters row;
      row.die = static_cast<std::size_t>(die);
      row.failed = true;
      row.health = fleet::DieHealth::kFailed;
      row.reason = fleet::FailureReason::kShardLost;
      row.error = "shard worker lost before reporting";
      lost.dies.push_back(std::move(row));
    }
    result.fleet.merge(lost);
  }

  result.wall_ms = ms_since(t0);
  if (obs::metrics_enabled())
    result.fold_into(obs::MetricsRegistry::global(), "lot");
  return result;
}

}  // namespace flashmark::lot
