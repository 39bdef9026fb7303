// Internal seam between the lot runner (lot.cpp) and its shard wire format
// (shard.cpp). Not installed API — tests include it to exercise the wire
// format without forking.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "lot/lot.hpp"

namespace flashmark::lot::internal {

/// Everything one shard produces for its die range [begin, end).
struct ShardOutcome {
  std::vector<LotCellAccum> cells;  ///< full grid (cells the range never
                                    ///< touched stay zero)
  fleet::FleetReport fleet;         ///< rows carry absolute die ids;
                                    ///< filtered unless keep_all_rows
  RunningStats die_wall_ms;         ///< per-die job wall times (all rows)
};

/// Run dies [begin, end) of the lot in this process (fleet thread pool,
/// opts.threads workers). `allow_crash_hook` arms LotOptions::crash_at_die —
/// only the forked worker path sets it, so the hook can never take down the
/// parent.
ShardOutcome run_shard_range(const LotConfig& cfg, std::uint64_t begin,
                             std::uint64_t end, const LotOptions& opts,
                             bool allow_crash_hook = false);

/// Serialize a shard outcome into the pipe frame: little-endian fields,
/// "FMLT" magic, version, [begin, end) echo, cell counters, wall-stat
/// parts, counter rows, CRC-32 trailer over everything before it.
std::string serialize_shard(const ShardOutcome& out, std::uint64_t begin,
                            std::uint64_t end);

/// Parse and validate a frame produced by serialize_shard. Returns
/// std::nullopt on any structural problem (bad magic/version/CRC, range
/// mismatch, truncation, out-of-range enum or die id, cell-grid shape
/// mismatch) — the caller treats that shard as lost, exactly like a dead
/// worker.
std::optional<ShardOutcome> deserialize_shard(const std::string& bytes,
                                              const LotConfig& cfg,
                                              std::uint64_t begin,
                                              std::uint64_t end);

/// Fresh full grid for `cfg` with cell identities (and the constant
/// bits-per-die widths) filled in, all counts zero.
std::vector<LotCellAccum> make_cell_grid(const LotConfig& cfg);

}  // namespace flashmark::lot::internal
