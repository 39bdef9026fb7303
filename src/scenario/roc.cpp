#include "scenario/roc.hpp"
#include "scenario/roc_internal.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "fleet/fleet.hpp"
#include "util/shards.hpp"
#include "util/wire.hpp"

namespace flashmark::scenario {

namespace {

constexpr std::uint32_t kShardMagic = 0x43524D46;  // "FMRC" little-endian
constexpr std::uint32_t kShardVersion = 1;

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

/// Per-population partial histograms of one contiguous global-die range.
/// Deterministic: per-die scores land in slots indexed by die, then fold in
/// index order, so any thread count produces identical counts.
std::vector<ScoreHistogram> run_range(const RocConfig& cfg,
                                      std::uint64_t begin, std::uint64_t end,
                                      unsigned threads) {
  const std::size_t n_pops = cfg.populations.size();
  std::vector<DieScore> slots(static_cast<std::size_t>(end - begin));
  fleet::FleetOptions fo;
  fo.threads = threads;
  fleet::run_dies(
      slots.size(),
      [&](std::size_t i, fleet::DieCounters&) {
        const std::uint64_t g = begin + i;
        const std::size_t pop = static_cast<std::size_t>(g % n_pops);
        const std::uint64_t die = g / n_pops;
        slots[i] = run_and_score(cfg.base, cfg.populations[pop], die);
      },
      fo);
  std::vector<ScoreHistogram> hists(n_pops);
  for (std::size_t i = 0; i < slots.size(); ++i)
    hists[(begin + i) % n_pops].add(slots[i]);
  return hists;
}

}  // namespace

namespace internal {

std::string serialize_shard(const std::vector<ScoreHistogram>& hists,
                            std::uint64_t begin, std::uint64_t end) {
  wire::Writer w =
      wire::shard_frame_writer(kShardMagic, kShardVersion, begin, end);
  w.u32(static_cast<std::uint32_t>(hists.size()));
  for (const ScoreHistogram& h : hists) {
    w.u64(h.n);
    w.u64(h.queries);
    w.u64(h.queries_passed);
    for (const std::uint64_t c : h.counts) w.u64(c);
  }
  w.append_crc32();
  return w.take();
}

std::optional<std::vector<ScoreHistogram>> deserialize_shard(
    const std::string& frame, std::uint64_t begin, std::uint64_t end,
    std::size_t n_pops) {
  std::optional<wire::Reader> body =
      wire::open_shard_frame(frame, kShardMagic, kShardVersion, begin, end);
  if (!body) return std::nullopt;
  wire::Reader& r = *body;
  std::uint32_t pops = 0;
  if (!r.u32(&pops) || pops != n_pops) return std::nullopt;
  std::vector<ScoreHistogram> hists(n_pops);
  std::uint64_t total = 0;
  for (ScoreHistogram& h : hists) {
    if (!r.u64(&h.n) || !r.u64(&h.queries) || !r.u64(&h.queries_passed))
      return std::nullopt;
    std::uint64_t bin_sum = 0;
    for (std::uint64_t& c : h.counts) {
      if (!r.u64(&c)) return std::nullopt;
      bin_sum += c;
    }
    if (bin_sum != h.n) return std::nullopt;  // internally inconsistent
    total += h.n;
  }
  if (!r.at_end()) return std::nullopt;  // trailing garbage
  if (total != end - begin) return std::nullopt;
  return hists;
}

}  // namespace internal

void ScoreHistogram::add(const DieScore& score) {
  double s = score.score;
  if (s < 0.0) s = 0.0;
  std::size_t bin = static_cast<std::size_t>(s * kBins);
  if (bin >= kBins) bin = kBins - 1;
  ++counts[bin];
  ++n;
  queries += score.challenges;
  queries_passed += score.challenges_passed;
}

void ScoreHistogram::merge(const ScoreHistogram& other) {
  for (std::size_t i = 0; i < kBins; ++i) counts[i] += other.counts[i];
  n += other.n;
  queries += other.queries;
  queries_passed += other.queries_passed;
}

std::uint64_t ScoreHistogram::at_or_above(std::size_t bin) const {
  std::uint64_t total = 0;
  for (std::size_t i = bin; i < kBins; ++i) total += counts[i];
  return total;
}

RocOperatingPoint calibrate_operating_point(const ScoreHistogram& genuine,
                                            const ScoreHistogram& adversary) {
  if (genuine.n == 0)
    throw std::invalid_argument(
        "calibrate_operating_point: empty genuine population");
  if (adversary.n == 0)
    throw std::invalid_argument(
        "calibrate_operating_point: empty adversary population");
  RocOperatingPoint best;
  bool first = true;
  for (std::size_t bin = 0; bin <= ScoreHistogram::kBins; ++bin) {
    const double tpr = static_cast<double>(genuine.at_or_above(bin)) /
                       static_cast<double>(genuine.n);
    const double fpr = static_cast<double>(adversary.at_or_above(bin)) /
                       static_cast<double>(adversary.n);
    const double j = tpr - fpr;
    if (first || j > best.youden) {
      best = RocOperatingPoint{
          static_cast<double>(bin) / ScoreHistogram::kBins, tpr, fpr, j};
      first = false;
    }
  }
  return best;
}

std::string RocResult::roc_csv() const {
  if (hists.empty() || hists[0].n == 0)
    throw std::invalid_argument("roc_csv: empty genuine population");
  std::string csv = "population,threshold,fpr,tpr\n";
  for (std::size_t p = 1; p < hists.size(); ++p) {
    if (hists[p].n == 0)
      throw std::invalid_argument("roc_csv: empty adversary population: " +
                                  names[p]);
    std::uint64_t prev_g = ~0ull, prev_a = ~0ull;
    for (std::size_t bin = 0; bin <= ScoreHistogram::kBins; ++bin) {
      const std::uint64_t g = hists[0].at_or_above(bin);
      const std::uint64_t a = hists[p].at_or_above(bin);
      // Emit curve ends plus every staircase change-point.
      if (bin != 0 && bin != ScoreHistogram::kBins && g == prev_g &&
          a == prev_a)
        continue;
      prev_g = g;
      prev_a = a;
      csv += names[p];
      csv += ',';
      csv += fmt_g(static_cast<double>(bin) / ScoreHistogram::kBins);
      csv += ',';
      csv += fmt_g(static_cast<double>(a) / static_cast<double>(hists[p].n));
      csv += ',';
      csv += fmt_g(static_cast<double>(g) / static_cast<double>(hists[0].n));
      csv += '\n';
    }
  }
  return csv;
}

std::string RocResult::thresholds_csv() const {
  std::string csv = "population,threshold,tpr,fpr,youden\n";
  for (std::size_t p = 1; p < hists.size(); ++p) {
    const RocOperatingPoint op =
        calibrate_operating_point(hists[0], hists[p]);
    csv += names[p];
    csv += ',';
    csv += fmt_g(op.threshold);
    csv += ',';
    csv += fmt_g(op.tpr);
    csv += ',';
    csv += fmt_g(op.fpr);
    csv += ',';
    csv += fmt_g(op.youden);
    csv += '\n';
  }
  return csv;
}

RocResult run_roc_study(const RocConfig& cfg, const RocOptions& opts) {
  if (cfg.populations.empty())
    throw std::invalid_argument("run_roc_study: no populations");
  if (cfg.dies_per_population == 0)
    throw std::invalid_argument("run_roc_study: empty populations");

  // Deterministic family calibration; every forked shard re-derives the
  // identical policy from the master seed.
  RocConfig run_cfg = cfg;
  calibrate(run_cfg.base);

  const std::size_t n_pops = run_cfg.populations.size();
  const std::uint64_t total =
      run_cfg.dies_per_population * static_cast<std::uint64_t>(n_pops);
  const unsigned shards =
      std::max(1u, std::min<unsigned>(opts.shards,
                                      static_cast<unsigned>(total)));

  RocResult result;
  result.names.reserve(n_pops);
  for (const Scenario& s : run_cfg.populations) result.names.push_back(s.name);
  result.hists.assign(n_pops, ScoreHistogram{});

  if (shards == 1) {
    const std::vector<ScoreHistogram> hists =
        run_range(run_cfg, 0, total, opts.threads);
    for (std::size_t p = 0; p < n_pops; ++p) result.hists[p].merge(hists[p]);
    return result;
  }

  // Forked workers (util/shards.hpp). A lost or corrupt shard is an error
  // here, and so is an interrupted run: both throw after every worker has
  // been reaped, never returning a partial curve.
  int interrupted = 0;
  const std::vector<std::optional<std::string>> frames =
      util::run_forked_shards(
          total, shards,
          [&](std::uint64_t begin, std::uint64_t end) {
            return internal::serialize_shard(
                run_range(run_cfg, begin, end, opts.threads), begin, end);
          },
          &interrupted);
  if (interrupted != 0)
    throw std::runtime_error("run_roc_study: interrupted by signal " +
                             std::to_string(interrupted) +
                             " (workers reaped, no partial curve returned)");
  for (unsigned s = 0; s < shards; ++s) {
    std::uint64_t begin = 0, end = 0;
    util::shard_range(total, shards, s, &begin, &end);
    std::optional<std::vector<ScoreHistogram>> hists;
    if (frames[s])
      hists = internal::deserialize_shard(*frames[s], begin, end, n_pops);
    if (!hists)
      throw std::runtime_error(
          "run_roc_study: shard " + std::to_string(s) +
          " lost or corrupt (a calibration curve must not silently drop "
          "population slices)");
    for (std::size_t p = 0; p < n_pops; ++p)
      result.hists[p].merge((*hists)[p]);
  }
  return result;
}

}  // namespace flashmark::scenario
