// Detector calibration: genuine vs. adversary populations → ROC curves and
// operating thresholds per scenario.
//
// The per-die detection statistic (scenario::score_die) is continuous, but
// everything aggregated here is an exact integer: scores land in fixed
// [0,1) bins and populations are u64 histograms, so any shard x thread
// split folds to the same counts and the CSVs are byte-identical — the
// same §9 contract the lot layer keeps (doubles appear once, derived from
// integer counts at print time).
//
// Work is striped by global die index (die i belongs to population
// i % P, with per-population die index i / P), so a contiguous shard range
// sees exactly the same (population, die) assignments at any split. Shards
// run on the lot runner's forked-shard transport (util/shards.hpp: fork
// before any thread exists, signal forwarding, bounded reaping) and report
// in CRC-framed util/wire shard frames. Unlike the lot runner, a lost or
// corrupt shard here is an ERROR, not a folded loss — a calibration curve
// silently missing a slice of its population would mis-place every
// threshold derived from it. An interrupted run (SIGTERM/SIGINT) is an
// error for the same reason.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace flashmark::scenario {

/// Fixed-bin integer histogram of die scores (bin = floor(score * kBins),
/// clamped into [0, kBins)).
struct ScoreHistogram {
  static constexpr std::size_t kBins = 256;
  std::array<std::uint64_t, kBins> counts{};
  std::uint64_t n = 0;
  std::uint64_t queries = 0;
  std::uint64_t queries_passed = 0;

  void add(const DieScore& score);
  void merge(const ScoreHistogram& other);
  /// Dies with bin >= `bin` (the "accepted as genuine at threshold
  /// bin/kBins" count).
  std::uint64_t at_or_above(std::size_t bin) const;
};

struct RocConfig {
  ScenarioConfig base;
  /// populations[0] is the genuine population; the rest are adversaries.
  std::vector<Scenario> populations;
  std::uint64_t dies_per_population = 0;
};

struct RocOptions {
  unsigned shards = 1;
  unsigned threads = 1;
};

/// Operating point maximizing Youden's J = TPR - FPR (ties resolve to the
/// lowest threshold).
struct RocOperatingPoint {
  double threshold = 0.0;
  double tpr = 0.0;
  double fpr = 0.0;
  double youden = 0.0;
};

/// Throws std::invalid_argument when either population is empty — a
/// degenerate calibration input must be an explicit error, never a silent
/// 0.0 threshold (the RunningStats::variance lesson, DESIGN.md §14).
RocOperatingPoint calibrate_operating_point(const ScoreHistogram& genuine,
                                            const ScoreHistogram& adversary);

struct RocResult {
  std::vector<std::string> names;        ///< population names
  std::vector<ScoreHistogram> hists;     ///< parallel to names

  /// "population,threshold,fpr,tpr" — one curve per adversary population
  /// against the genuine one; only change-points are emitted (plus the
  /// curve ends), so the CSV is small and still exactly reconstructs the
  /// staircase.
  std::string roc_csv() const;
  /// "population,threshold,tpr,fpr,youden" — calibrated operating point
  /// per adversary population.
  std::string thresholds_csv() const;
};

/// Run the study. cfg.base is calibrated internally (deterministically, so
/// every shard derives the identical policy). Throws std::invalid_argument
/// on an empty config and std::runtime_error when a shard is lost or its
/// frame is corrupt, or when SIGTERM/SIGINT interrupts a sharded run (after
/// the signal is forwarded and every worker reaped).
RocResult run_roc_study(const RocConfig& cfg, const RocOptions& opts = {});

}  // namespace flashmark::scenario
