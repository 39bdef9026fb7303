// Internal seam of the ROC study's shard transport (roc.cpp). Not installed
// API — tests include it to exercise the wire format without forking, the
// way lot_internal.hpp exposes the lot frame.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "scenario/roc.hpp"

namespace flashmark::scenario::internal {

/// Serialize one shard's per-population histograms into the pipe frame:
/// little-endian fields, "FMRC" magic, version, [begin, end) echo,
/// population count, per population (n, queries, queries_passed, kBins
/// counts), CRC-32 trailer over everything before it.
std::string serialize_shard(const std::vector<ScoreHistogram>& hists,
                            std::uint64_t begin, std::uint64_t end);

/// Parse and validate a frame produced by serialize_shard. Returns
/// std::nullopt on any structural problem: bad CRC/magic/version, range or
/// population-count mismatch, truncation, a histogram whose bins do not sum
/// to its n, populations that do not cover the range, trailing garbage.
std::optional<std::vector<ScoreHistogram>> deserialize_shard(
    const std::string& frame, std::uint64_t begin, std::uint64_t end,
    std::size_t n_pops);

}  // namespace flashmark::scenario::internal
