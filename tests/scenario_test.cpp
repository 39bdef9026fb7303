// Scenario regression battery (src/scenario + core/challenge): the
// adversary & lifetime engine's determinism contract, the
// challenge-response security properties (keyed unpredictability, replay
// rejection at the judge and at the HAL), and the detector-calibration ROC
// pipeline — thread/shard byte-identity plus golden-master CSVs.
//
// Runs under `ctest -L scenario`. The golden fixtures regenerate with
//   FLASHMARK_REGEN_FIXTURES=1 ./scenario_test
// after an *intentional* physics, policy, or scoring change; review the
// diff and update the EXPERIMENTS.md headline table alongside.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "attack/attacks.hpp"
#include "core/challenge.hpp"
#include "core/extract.hpp"
#include "util/crc.hpp"
#include "scenario/roc.hpp"
#include "scenario/roc_internal.hpp"
#include "scenario/scenario.hpp"

namespace flashmark {
namespace {

using scenario::RocConfig;
using scenario::RocOptions;
using scenario::Scenario;
using scenario::ScenarioConfig;
using scenario::ScoreHistogram;

// ---------------------------------------------------------------------------
// Shared calibrated config: calibration imprints a golden die, so do it
// once per process and reuse (the config is never mutated afterwards).

const ScenarioConfig& calibrated_config() {
  static const ScenarioConfig cfg = [] {
    ScenarioConfig c;
    scenario::calibrate(c);
    return c;
  }();
  return cfg;
}

// ---------------------------------------------------------------------------
// Challenge derivation: keyed, tenant-scoped, reproducible.

TEST(ChallengeDerivation, SameQueryIsReproducibleDifferentTenantsDiffer) {
  const ChallengePolicy& p = calibrated_config().policy;
  const std::size_t R = calibrated_config().n_replicas;

  const Challenge a1 = derive_challenge(p, R, 7, 1);
  const Challenge a2 = derive_challenge(p, R, 7, 1);
  EXPECT_EQ(a1.replica_subset, a2.replica_subset);
  EXPECT_EQ(a1.decode_window_idx, a2.decode_window_idx);
  EXPECT_EQ(a1.response_window_idx, a2.response_window_idx);
  EXPECT_EQ(a1.probe_segment, a2.probe_segment);

  // Tenant scoping: two tenants issuing the same nonce get different
  // queries (one tenant's recorded interrogation schedule is useless
  // against another's). Checked over several nonces — a single collision
  // in one component is possible, all components over all nonces is not.
  bool any_differ = false;
  for (std::uint64_t nonce = 0; nonce < 8; ++nonce) {
    const Challenge t1 = derive_challenge(p, R, nonce, 1);
    const Challenge t2 = derive_challenge(p, R, nonce, 2);
    if (t1.replica_subset != t2.replica_subset ||
        t1.decode_window_idx != t2.decode_window_idx ||
        t1.response_window_idx != t2.response_window_idx ||
        t1.probe_segment != t2.probe_segment)
      any_differ = true;
  }
  EXPECT_TRUE(any_differ);

  // Nonces actually exercise the query space: every decode window, every
  // response window, and more than one probe segment appear within a
  // modest nonce budget.
  std::set<std::size_t> decode_idx, resp_idx, probes;
  for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
    const Challenge ch = derive_challenge(p, R, nonce, 0);
    decode_idx.insert(ch.decode_window_idx);
    resp_idx.insert(ch.response_window_idx);
    probes.insert(ch.probe_segment);
    ASSERT_EQ(ch.replica_subset.size(), p.subset_size);
    for (const std::size_t r : ch.replica_subset) ASSERT_LT(r, R);
  }
  EXPECT_EQ(decode_idx.size(), p.decode_windows.size());
  EXPECT_EQ(resp_idx.size(), p.response_windows.size());
  EXPECT_GT(probes.size(), 1u);
}

TEST(ChallengeDerivation, PolicyValidateRejectsDegenerateConfigurations) {
  const std::size_t R = calibrated_config().n_replicas;

  // An uncalibrated policy (no expectation tables) is unusable, never a
  // silent accept-everything.
  EXPECT_THROW(default_challenge_policy().validate(R), std::invalid_argument);

  ChallengePolicy ok = calibrated_config().policy;
  EXPECT_NO_THROW(ok.validate(R));

  ChallengePolicy p = ok;
  p.subset_size = 0;
  EXPECT_THROW(p.validate(R), std::invalid_argument);
  p = ok;
  p.subset_size = R + 1;
  EXPECT_THROW(p.validate(R), std::invalid_argument);
  p = ok;
  p.decode_windows.clear();
  EXPECT_THROW(p.validate(R), std::invalid_argument);
  p = ok;
  p.response_windows.clear();
  EXPECT_THROW(p.validate(R), std::invalid_argument);
  p = ok;
  p.probe_segments.clear();
  EXPECT_THROW(p.validate(R), std::invalid_argument);
  p = ok;
  p.fresh_erased_min = 0.0;
  EXPECT_THROW(p.validate(R), std::invalid_argument);

  // calibrate_challenge_policy refuses an empty window set outright.
  const ScenarioConfig& cfg = calibrated_config();
  scenario::PresentedDie golden =
      scenario::run_scenario_die(cfg, Scenario::genuine_fresh(), 0);
  const Addr addr =
      golden.device->config().geometry.segment_base(cfg.segment);
  ChallengePolicy empty = default_challenge_policy();
  empty.response_windows.clear();
  EXPECT_THROW(calibrate_challenge_policy(golden.hal(), addr,
                                          cfg.effective_verify(), empty),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Replay rejection.

TEST(ChallengeReplay, RecordedExtractionFailsAnyOtherChallenge) {
  const ScenarioConfig& cfg = calibrated_config();
  const VerifyOptions vo = cfg.effective_verify();
  scenario::PresentedDie die =
      scenario::run_scenario_die(cfg, Scenario::genuine_fresh(), 1);
  const Addr addr = die.device->config().geometry.segment_base(cfg.segment);

  // The attacker interrogated once (challenge A, nonce 3 — a nonce whose
  // decode window reads dependably on this die) and recorded both
  // extractions plus the probe answer.
  const Challenge chA = derive_challenge(cfg.policy, vo.n_replicas, 3, 0);
  ExtractOptions eo;
  eo.n_reads = std::max(vo.n_reads, cfg.policy.decode_n_reads);
  eo.t_pew = chA.t_pew;
  const BitVec decode_rec = extract_flashmark(die.hal(), addr, eo).bits;
  eo.n_reads = vo.n_reads;
  eo.t_pew = chA.t_resp;
  const BitVec response_rec = extract_flashmark(die.hal(), addr, eo).bits;
  const double probe_rec = probe_erased_fraction(
      die.hal(), chA.probe_segment, cfg.policy.probe_window);

  // The recording answers challenge A itself.
  const ChallengeReport self = judge_challenge_response(
      decode_rec, response_rec, probe_rec, vo, cfg.policy, chA);
  ASSERT_TRUE(self.accepted);

  // Replayed against every later challenge that draws a different response
  // window, the recorded response carries the WRONG zero fraction — the
  // expectations at distinct windows sit several tolerance bands apart.
  int rejected = 0, tried = 0;
  for (std::uint64_t nonce = 4; nonce < 24 && tried < 5; ++nonce) {
    const Challenge chB = derive_challenge(cfg.policy, vo.n_replicas, nonce, 0);
    if (chB.response_window_idx == chA.response_window_idx) continue;
    ++tried;
    const ChallengeReport rep = judge_challenge_response(
        decode_rec, response_rec, probe_rec, vo, cfg.policy, chB);
    EXPECT_FALSE(rep.response_consistent) << "nonce " << nonce;
    if (!rep.accepted) ++rejected;
  }
  ASSERT_EQ(tried, 5);
  EXPECT_EQ(rejected, tried);
}

TEST(ChallengeReplay, ReplayHalFoolsPlainVerifyButFailsInterrogation) {
  const ScenarioConfig& cfg = calibrated_config();
  const VerifyOptions vo = cfg.effective_verify();
  scenario::PresentedDie die =
      scenario::run_scenario_die(cfg, Scenario::genuine_fresh(), 2);
  const Addr addr = die.device->config().geometry.segment_base(cfg.segment);

  // The emulated counterfeit answers every watermark-segment read from one
  // recorded genuine bitmap.
  BitVec recorded = die.hal().read_segment(addr, 1);
  ReplayHal replay(die.hal(), cfg.segment, std::move(recorded));

  const VerifyReport vr = verify_watermark(replay, addr, vo);
  EXPECT_EQ(vr.verdict, Verdict::kGenuine);

  int rejected = 0;
  const int queries = 4;
  for (std::uint64_t nonce = 0; nonce < queries; ++nonce) {
    const ChallengeReport rep =
        challenge_verify(replay, addr, vo, cfg.policy, nonce, 0);
    if (!rep.accepted) ++rejected;
    // The recorded bitmap cannot track the drawn response window.
    EXPECT_FALSE(rep.response_consistent) << "nonce " << nonce;
  }
  EXPECT_EQ(rejected, queries);
}

// ---------------------------------------------------------------------------
// Scenario engine determinism (REPRODUCIBILITY.md §11).

TEST(ScenarioEngine, ChainedScenarioIsBitIdenticalAcrossRuns) {
  const ScenarioConfig& cfg = calibrated_config();
  // The longest chain in the battery: imprint → FTL product life → oven
  // anneal → refurbish. Every step draws from the die's scenario stream,
  // so two runs must land on bit-identical flash state.
  const Scenario sc = Scenario::recycled_bake();
  const std::uint64_t die = 5;

  scenario::PresentedDie a = scenario::run_scenario_die(cfg, sc, die);
  scenario::PresentedDie b = scenario::run_scenario_die(cfg, sc, die);
  const auto& g = a.device->config().geometry;
  EXPECT_TRUE(a.hal().read_segment(g.segment_base(cfg.segment), 1) ==
              b.hal().read_segment(g.segment_base(cfg.segment), 1));
  for (const std::size_t seg : cfg.policy.probe_segments)
    EXPECT_TRUE(a.hal().read_segment(g.segment_base(seg), 1) ==
                b.hal().read_segment(g.segment_base(seg), 1))
        << "probe segment " << seg;

  // Scoring (which mutates the die through probes) folds to the exact same
  // double when run on identically-prepared dies.
  const scenario::DieScore sa = scenario::score_die(cfg, a);
  const scenario::DieScore sb = scenario::score_die(cfg, b);
  EXPECT_EQ(sa.score, sb.score);  // bitwise
  EXPECT_EQ(sa.challenges_passed, sb.challenges_passed);

  // A different die index draws a different product life: states diverge.
  scenario::PresentedDie c = scenario::run_scenario_die(cfg, sc, die + 1);
  EXPECT_FALSE(a.hal().read_segment(g.segment_base(cfg.segment), 1) ==
               c.hal().read_segment(g.segment_base(cfg.segment), 1));
}

// ---------------------------------------------------------------------------
// ROC pipeline: split invariance + golden masters.

RocConfig small_roc_config() {
  RocConfig cfg;
  cfg.dies_per_population = 12;
  cfg.base.n_challenges = 3;
  cfg.populations = {Scenario::genuine_fresh(), Scenario::recycled_resale(),
                     Scenario::partial_clone()};
  return cfg;
}

TEST(RocPipeline, CsvBytesAreInvariantAcrossThreadAndShardSplits) {
  const RocConfig cfg = small_roc_config();
  RocOptions ref_opts;
  ref_opts.shards = 1;
  ref_opts.threads = 1;
  const scenario::RocResult ref = scenario::run_roc_study(cfg, ref_opts);
  const std::string want_roc = ref.roc_csv();
  const std::string want_thr = ref.thresholds_csv();
  ASSERT_FALSE(want_roc.empty());
  ASSERT_FALSE(want_thr.empty());

  for (const unsigned shards : {1u, 2u}) {
    for (const unsigned threads : {1u, 4u, 16u}) {
      if (shards == 1 && threads == 1) continue;
      RocOptions opts;
      opts.shards = shards;
      opts.threads = threads;
      const scenario::RocResult got = scenario::run_roc_study(cfg, opts);
      EXPECT_EQ(got.roc_csv(), want_roc)
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(got.thresholds_csv(), want_thr)
          << "shards=" << shards << " threads=" << threads;
    }
  }
}

/// Re-seal a ROC frame body with a fresh CRC-32 trailer (little-endian, by
/// hand), so a test can reach the checks that run after the CRC.
std::string reseal(const std::string& body) {
  const std::uint32_t crc = crc32_ieee(
      reinterpret_cast<const std::uint8_t*>(body.data()), body.size());
  std::string out = body;
  for (int i = 0; i < 4; ++i) out += static_cast<char>(crc >> (8 * i));
  return out;
}

TEST(RocWireFormat, RoundTripsAndRejectsCorruption) {
  // Two populations over dies [3, 10): 4 + 3 scores spread over the bins.
  std::vector<ScoreHistogram> hists(2);
  const double genuine[] = {0.97, 0.91, 0.91, 0.52};
  const double adversary[] = {0.05, 0.33, 0.999};
  for (const double v : genuine) {
    scenario::DieScore s;
    s.score = v;
    s.challenges = 3;
    s.challenges_passed = 3;
    hists[0].add(s);
  }
  for (const double v : adversary) {
    scenario::DieScore s;
    s.score = v;
    s.challenges = 3;
    s.challenges_passed = 1;
    hists[1].add(s);
  }
  const std::string frame = scenario::internal::serialize_shard(hists, 3, 10);

  const auto back = scenario::internal::deserialize_shard(frame, 3, 10, 2);
  ASSERT_TRUE(back.has_value());
  ASSERT_EQ(back->size(), 2u);
  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ((*back)[p].counts, hists[p].counts);
    EXPECT_EQ((*back)[p].n, hists[p].n);
    EXPECT_EQ((*back)[p].queries, hists[p].queries);
    EXPECT_EQ((*back)[p].queries_passed, hists[p].queries_passed);
  }

  // Wrong range echo or population count: a mixed-up pipe cannot be folded
  // into the wrong slot.
  EXPECT_FALSE(scenario::internal::deserialize_shard(frame, 0, 7, 2));
  EXPECT_FALSE(scenario::internal::deserialize_shard(frame, 3, 10, 3));
  // Truncation at half length (a worker that died mid-write).
  EXPECT_FALSE(scenario::internal::deserialize_shard(
      frame.substr(0, frame.size() / 2), 3, 10, 2));
  // One flipped byte is caught by the CRC trailer.
  std::string flipped = frame;
  flipped[flipped.size() / 3] =
      static_cast<char>(flipped[flipped.size() / 3] ^ 0x40);
  EXPECT_FALSE(scenario::internal::deserialize_shard(flipped, 3, 10, 2));

  const std::string body = frame.substr(0, frame.size() - 4);
  ASSERT_EQ(reseal(body), frame);
  // Trailing garbage under a valid CRC: only the end-of-body check sees it.
  EXPECT_FALSE(scenario::internal::deserialize_shard(reseal(body + "XX"), 3,
                                                     10, 2));
  // A bin sum that does not match n, under a valid CRC. Population 0's
  // first bin count starts after the 28-byte header and its n, queries and
  // queries_passed words.
  std::string bad_sum = body;
  bad_sum[28 + 24] = static_cast<char>(bad_sum[28 + 24] + 1);
  EXPECT_FALSE(scenario::internal::deserialize_shard(reseal(bad_sum), 3, 10,
                                                     2));
}

// Signal containment: a SIGTERM mid-study is forwarded to the shard
// workers, every worker is reaped, and the study throws an error naming the
// signal. It never returns a partial curve. Runs in a forked child so the
// real kill(2) delivery and reap happen end to end.
TEST(RocSignals, SigtermThrowsAfterReapingEveryWorker) {
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Ignored between runs; the shard runner flags it during each run, so
    // the parent re-sends until one lands mid-run.
    std::signal(SIGTERM, SIG_IGN);
    RocConfig cfg = small_roc_config();
    cfg.dies_per_population = 8;
    for (int round = 0; round < 100; ++round) {
      try {
        scenario::run_roc_study(cfg, {2, 1});
        continue;  // finished before delivery: go again
      } catch (const std::runtime_error& e) {
        int code = 0;
        if (std::string(e.what()).find("signal " +
                                       std::to_string(SIGTERM)) ==
            std::string::npos)
          code |= 1;
        // Every worker was reaped before the throw: no child is left.
        if (::waitpid(-1, nullptr, WNOHANG) != -1 || errno != ECHILD)
          code |= 2;
        ::_exit(code);
      }
    }
    ::_exit(32);  // no signal ever observed
  }

  int wstatus = 0;
  pid_t reaped = 0;
  for (int i = 0; i < 600; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    ASSERT_EQ(::kill(child, SIGTERM), 0);
    reaped = ::waitpid(child, &wstatus, WNOHANG);
    ASSERT_GE(reaped, 0);
    if (reaped == child) break;
  }
  if (reaped != child) {
    ::kill(child, SIGKILL);
    ::waitpid(child, &wstatus, 0);
    FAIL() << "child never exited";
  }
  ASSERT_TRUE(WIFEXITED(wstatus)) << wstatus;
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(RocPipeline, OperatingPointCalibrationRejectsEmptyPopulations) {
  ScoreHistogram genuine, adversary, empty;
  scenario::DieScore s;
  s.score = 0.9;
  genuine.add(s);
  s.score = 0.3;
  adversary.add(s);

  EXPECT_THROW(scenario::calibrate_operating_point(empty, adversary),
               std::invalid_argument);
  EXPECT_THROW(scenario::calibrate_operating_point(genuine, empty),
               std::invalid_argument);

  const scenario::RocOperatingPoint op =
      scenario::calibrate_operating_point(genuine, adversary);
  EXPECT_EQ(op.tpr, 1.0);
  EXPECT_EQ(op.fpr, 0.0);
  EXPECT_EQ(op.youden, 1.0);
  EXPECT_GT(op.threshold, 0.3);
  EXPECT_LE(op.threshold, 0.9);
}

// Golden masters: the exact CSV bytes of the small battery. Drift means
// physics, RNG order, challenge policy, or scoring changed — if
// intentional, regenerate (file header) and refresh EXPERIMENTS.md.
std::string fixture_path(const char* name) {
  return std::string(FLASHMARK_TEST_FIXTURES) + "/" + name;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void check_fixture(const char* name, const std::string& generated) {
  const std::string path = fixture_path(name);
  if (std::getenv("FLASHMARK_REGEN_FIXTURES") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << generated;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    GTEST_SKIP() << "regenerated " << path;
  }
  const std::string pinned = read_file_bytes(path);
  ASSERT_FALSE(pinned.empty())
      << path << " missing or empty; run with FLASHMARK_REGEN_FIXTURES=1";
  EXPECT_EQ(pinned, generated)
      << name << " drifted: physics, RNG order, challenge policy, or "
      << "scoring changed. If intentional, regenerate (see file header).";
}

TEST(RocPipeline, GoldenRocCurveFixture) {
  const scenario::RocResult r =
      scenario::run_roc_study(small_roc_config(), {2, 4});
  check_fixture("roc_curves_pin.csv", r.roc_csv());
}

TEST(RocPipeline, GoldenThresholdsFixture) {
  const scenario::RocResult r =
      scenario::run_roc_study(small_roc_config(), {2, 4});
  check_fixture("roc_thresholds_pin.csv", r.thresholds_csv());
}

}  // namespace
}  // namespace flashmark
