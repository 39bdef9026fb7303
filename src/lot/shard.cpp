// Wire format of the lot runner's shard frames. Workers forked by
// util/shards.hpp send one frame each over their pipe; run_lot decodes it.
//
// The frame uses the util/wire shard envelope: "FMLT" magic, a version
// word, the shard's [begin, end) range echo (so a mixed-up pipe cannot be
// folded into the wrong slot), the payload, and a CRC-32 trailer over
// everything before it. Any structural defect — short read, bad magic, CRC
// mismatch, out-of-range enum or die id — classifies the shard as lost;
// run_lot then accounts the whole range as FailureReason::kShardLost rather
// than trusting a half-written frame.
#include <exception>
#include <optional>
#include <string>

#include "lot/lot_internal.hpp"
#include "util/wire.hpp"

namespace flashmark::lot::internal {
namespace {

constexpr std::uint32_t kMagic = 0x544C4D46;  // "FMLT" little-endian
constexpr std::uint32_t kVersion = 1;

}  // namespace

std::string serialize_shard(const ShardOutcome& out, std::uint64_t begin,
                            std::uint64_t end) {
  wire::Writer w = wire::shard_frame_writer(kMagic, kVersion, begin, end);

  w.f64(out.fleet.wall_ms);
  w.f64(out.fleet.cpu_ms);
  w.u32(out.fleet.threads_used);

  w.u64(out.cells.size());
  for (const auto& cell : out.cells) {
    w.u32(cell.point_idx);
    w.u32(cell.cond_idx);
    w.u64(cell.n);
    w.u64(cell.detected);
    w.u64(cell.failed);
    w.u64(cell.raw_err);
    w.u64(cell.raw_err_sq);
    w.u64(cell.vote_err);
    w.u64(cell.vote_err_sq);
    w.u64(cell.raw_bits_per_die);
    w.u64(cell.vote_bits_per_die);
  }

  w.u64(out.die_wall_ms.count());
  w.f64(out.die_wall_ms.mean());
  w.f64(out.die_wall_ms.m2());
  w.f64(out.die_wall_ms.min());
  w.f64(out.die_wall_ms.max());

  w.u64(out.fleet.dies.size());
  for (const auto& row : out.fleet.dies) {
    w.u64(row.die);
    w.f64(row.wall_ms);
    w.f64(row.pe_cycles);
    w.u64(static_cast<std::uint64_t>(row.sim_time.as_ns()));
    w.u64(row.erase_ops);
    w.u64(row.program_ops);
    w.u64(row.read_ops);
    w.u64(row.faults_injected);
    w.u64(row.retries);
    w.u64(row.ecc_corrected);
    w.u8(static_cast<std::uint8_t>(row.health));
    w.u8(static_cast<std::uint8_t>(row.reason));
    w.u8(row.failed ? 1 : 0);
    w.str(row.error);
  }

  w.append_crc32();
  return w.take();
}

std::optional<ShardOutcome> deserialize_shard(const std::string& bytes,
                                              const LotConfig& cfg,
                                              std::uint64_t begin,
                                              std::uint64_t end) {
  // CRC first: everything after this may trust the frame's framing (but
  // still bounds-checks every read).
  std::optional<wire::Reader> frame =
      wire::open_shard_frame(bytes, kMagic, kVersion, begin, end);
  if (!frame) return std::nullopt;
  wire::Reader& r = *frame;

  ShardOutcome out;
  std::uint32_t threads = 0;
  if (!r.f64(&out.fleet.wall_ms) || !r.f64(&out.fleet.cpu_ms) ||
      !r.u32(&threads))
    return std::nullopt;
  out.fleet.threads_used = threads;

  std::uint64_t n_cells = 0;
  if (!r.u64(&n_cells) || n_cells != cfg.n_cells()) return std::nullopt;
  out.cells.resize(static_cast<std::size_t>(n_cells));
  const std::uint64_t range = end - begin;
  std::uint64_t cell_dies = 0;
  for (std::size_t i = 0; i < out.cells.size(); ++i) {
    LotCellAccum& c = out.cells[i];
    if (!r.u32(&c.point_idx) || !r.u32(&c.cond_idx) || !r.u64(&c.n) ||
        !r.u64(&c.detected) || !r.u64(&c.failed) || !r.u64(&c.raw_err) ||
        !r.u64(&c.raw_err_sq) || !r.u64(&c.vote_err) ||
        !r.u64(&c.vote_err_sq) || !r.u64(&c.raw_bits_per_die) ||
        !r.u64(&c.vote_bits_per_die))
      return std::nullopt;
    // Identity must match the grid slot, and the counts must be internally
    // consistent with the shard's range.
    if (c.point_idx != i / cfg.conditions.size() ||
        c.cond_idx != i % cfg.conditions.size())
      return std::nullopt;
    if (c.detected + c.failed > c.n || c.n > range) return std::nullopt;
    cell_dies += c.n;
  }
  if (cell_dies != range) return std::nullopt;

  std::uint64_t wn = 0;
  double wmean = 0, wm2 = 0, wmin = 0, wmax = 0;
  if (!r.u64(&wn) || !r.f64(&wmean) || !r.f64(&wm2) || !r.f64(&wmin) ||
      !r.f64(&wmax))
    return std::nullopt;
  try {
    out.die_wall_ms = RunningStats::from_parts(
        static_cast<std::size_t>(wn), wmean, wm2, wmin, wmax);
  } catch (const std::exception&) {
    return std::nullopt;  // NaN/negative-m2 parts: hostile or corrupt frame
  }

  std::uint64_t n_rows = 0;
  if (!r.u64(&n_rows) || n_rows > range) return std::nullopt;
  out.fleet.dies.resize(static_cast<std::size_t>(n_rows));
  for (auto& row : out.fleet.dies) {
    std::uint64_t die = 0, sim_ns = 0;
    std::uint8_t health = 0, reason = 0, failed = 0;
    if (!r.u64(&die) || !r.f64(&row.wall_ms) || !r.f64(&row.pe_cycles) ||
        !r.u64(&sim_ns) || !r.u64(&row.erase_ops) ||
        !r.u64(&row.program_ops) || !r.u64(&row.read_ops) ||
        !r.u64(&row.faults_injected) || !r.u64(&row.retries) ||
        !r.u64(&row.ecc_corrected) || !r.u8(&health) || !r.u8(&reason) ||
        !r.u8(&failed) || !r.str(&row.error, 4096))
      return std::nullopt;
    if (die < begin || die >= end) return std::nullopt;
    if (health > static_cast<std::uint8_t>(fleet::DieHealth::kFailed) ||
        reason > static_cast<std::uint8_t>(fleet::FailureReason::kShardLost))
      return std::nullopt;
    row.die = static_cast<std::size_t>(die);
    row.sim_time = SimTime::ns(static_cast<std::int64_t>(sim_ns));
    row.health = static_cast<fleet::DieHealth>(health);
    row.reason = static_cast<fleet::FailureReason>(reason);
    row.failed = failed != 0;
  }

  if (!r.at_end()) return std::nullopt;  // trailing garbage
  return out;
}

}  // namespace flashmark::lot::internal
