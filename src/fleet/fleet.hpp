// Fleet layer — batch simulation of many independent dies.
//
// The paper's counterfeit-detection use case is fleet-scale: a lot audit
// checks hundreds of chips, and every die is an independent `Device`. This
// subsystem industrializes that fan-out: a fixed-size thread pool runs one
// job per die, each die's RNG seed is derived deterministically from
// (master seed, die index), and results land in pre-sized slots indexed by
// die — never by completion order. Consequently batch results are bitwise
// identical for any `--threads` value, including 1 (the pre-fleet sequential
// behavior). The determinism contract is specified in
// docs/REPRODUCIBILITY.md; the architecture is sketched in DESIGN.md §8.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/extract.hpp"
#include "core/watermark.hpp"
#include "fault/fault.hpp"
#include "mcu/device.hpp"
#include "util/sim_time.hpp"

namespace flashmark::obs {
class MetricsRegistry;
}  // namespace flashmark::obs

namespace flashmark::store {
class DieStore;
}  // namespace flashmark::store

namespace flashmark::fleet {

/// Derive the RNG seed of die `die_index` in a fleet grown from
/// `master_seed`.
///
/// Scheme (pinned by regression_pins_test.cpp — do not change casually):
/// SplitMix64 expands the master seed into a 128-bit SipHash key, and the
/// little-endian die index is hashed under that key. Substreams are
/// decorrelated for any master seed (including 0 and adjacent integers), and
/// the derivation is identical on every platform — unlike std::hash, which
/// is implementation-defined and banned from simulation decisions.
std::uint64_t derive_die_seed(std::uint64_t master_seed,
                              std::uint64_t die_index);

/// Knobs for one batch run.
struct FleetOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency(). With 1 the
  /// jobs run inline on the calling thread (no pool), which reproduces the
  /// pre-fleet sequential behavior instruction-for-instruction.
  unsigned threads = 0;

  // --- watchdog (per-die supervision) -----------------------------------
  // Either limit > 0 arms a watchdog thread that polls every running die
  // and requests *cooperative* cancellation through its DieProgress token.
  // Cancelled dies abort at their next poll point (between P/E cycles /
  // extraction rounds), are classified kDeadlineExceeded / kStalled, and
  // never block the rest of the batch. Wall-clock limits are host
  // measurements: they decide only whether a die is cut off, never what a
  // surviving die computes, so the determinism contract is untouched
  // (docs/REPRODUCIBILITY.md).

  /// Soft wall-clock deadline per die job, in ms. 0 = no deadline.
  double die_deadline_ms = 0.0;
  /// Cancel a die whose job heartbeat has not advanced for this long (a
  /// stalled/hung die, e.g. livelocked retries). 0 = stall detection off.
  double die_stall_ms = 0.0;
  /// Watchdog poll interval, ms.
  double watchdog_poll_ms = 2.0;

  // --- observability (src/obs) ------------------------------------------
  // Parsed from the shared --trace-out / --metrics-out flags. The batch
  // APIs never read these; binaries hand them to obs::Exporter (one scoped
  // object around the run), which installs the trace collector / enables
  // the registry and writes the files on scope exit. Metrics exports obey
  // the byte-identity contract (docs/REPRODUCIBILITY.md §6); trace files
  // record wall clocks and are nondeterministic by design.

  /// Chrome trace_event JSON output path ("" = tracing off).
  std::string trace_out = {};
  /// Metrics registry export path, CSV or *.json ("" = metrics off).
  std::string metrics_out = {};
};

/// Why the watchdog cancelled a die.
enum class CancelCause : std::uint8_t { kNone = 0, kDeadline, kStalled };

/// Shared progress/cancellation token between one die's job and the fleet
/// watchdog. The job side heartbeats (`tick`) and polls
/// (`cancel_requested`); the watchdog side observes heartbeats and arms
/// `request_cancel`. All accesses are relaxed atomics: the token carries no
/// data the simulation reads, only supervision signals.
class DieProgress {
 public:
  /// Job side: record forward progress (one P/E cycle, one audit round...).
  void tick() { ticks_.fetch_add(1, std::memory_order_relaxed); }

  /// Job side: poll between units of work; abort via OperationCancelledError
  /// when true (the pipelines in this header do this automatically).
  bool cancel_requested() const {
    return cause_.load(std::memory_order_relaxed) != CancelCause::kNone;
  }

  CancelCause cause() const { return cause_.load(std::memory_order_relaxed); }

  /// Watchdog side: first cause wins. Returns true when this call installed
  /// the cause (the watchdog emits its trace cancel-event exactly once).
  bool request_cancel(CancelCause cause) {
    CancelCause none = CancelCause::kNone;
    return cause_.compare_exchange_strong(none, cause,
                                          std::memory_order_relaxed);
  }

  std::uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  // Batch-runner bookkeeping (not for job code).
  void mark_started() {
    start_ns_.store(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count(),
                    std::memory_order_relaxed);
  }
  void mark_finished() { finished_.store(true, std::memory_order_relaxed); }
  bool started() const {
    return start_ns_.load(std::memory_order_relaxed) >= 0;
  }
  bool finished() const { return finished_.load(std::memory_order_relaxed); }
  std::int64_t start_ns() const {
    return start_ns_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<CancelCause> cause_{CancelCause::kNone};
  std::atomic<std::int64_t> start_ns_{-1};
  std::atomic<bool> finished_{false};
};

/// A flag a binary accepts on top of the shared fleet flags (so
/// parse_cli_options can reject everything else).
struct CliFlag {
  const char* name;         ///< e.g. "--lot"
  bool takes_value = false; ///< flag consumes the following argv entry
};

/// Parse the shared fleet flags out of argv (used by every bench/example
/// fan-out binary): `--threads N`, `--trace-out FILE`, `--metrics-out FILE`.
/// Arguments named in `extra` are skipped (the binary parses them itself);
/// anything else is rejected with a usage line on stderr and exit code 2 —
/// a typo like `--thread 8` must not silently run the whole sweep
/// single-config. Malformed `--threads` values also exit 2.
FleetOptions parse_cli_options(int argc, char** argv,
                               std::initializer_list<CliFlag> extra = {});

/// How healthy a die's job left it.
enum class DieHealth : std::uint8_t {
  kClean = 0,   ///< completed without any recovery activity
  kDegraded,    ///< completed, but needed retries / ECC / absorbed faults
  kFailed,      ///< job aborted; `reason` says why
};

/// Structured failure taxonomy for a failed die — fleet consumers branch on
/// this instead of parsing `error` strings.
enum class FailureReason : std::uint8_t {
  kNone = 0,          ///< not failed
  kPowerLoss,         ///< un-retried transient fault surfaced (power loss)
  kRetryExhausted,    ///< retry budget spent (RetryExhaustedError)
  kFlashProtocol,     ///< device refused a command (FlashHalError)
  kOther,             ///< any other exception
  kDeadlineExceeded,  ///< watchdog cancelled: per-die deadline blown
  kStalled,           ///< watchdog cancelled: heartbeat stopped advancing
  kShardLost,         ///< lot shard worker died before reporting (src/lot)
};

const char* to_string(DieHealth h);
const char* to_string(FailureReason r);

/// Per-die observability counters, filled by the job and aggregated by the
/// batch runner.
///
/// `wall_ms` is host wall time and therefore run-to-run noise; everything
/// else is a deterministic function of the die's job. Keeping the two kinds
/// in one row is safe because counters are write-only from the simulation's
/// point of view.
struct DieCounters {
  std::size_t die = 0;            ///< slot index (== die index)
  double wall_ms = 0.0;           ///< host wall time of this die's job
  double pe_cycles = 0.0;         ///< P/E cycles issued (wear + erase pulses)
  SimTime sim_time;               ///< simulated time advanced on the die
  std::uint64_t erase_ops = 0;    ///< erase pulses (full or partial)
  std::uint64_t program_ops = 0;  ///< program-word pulses
  std::uint64_t read_ops = 0;     ///< word reads

  // --- fault / recovery taxonomy ---------------------------------------
  std::uint64_t faults_injected = 0;  ///< fault events applied (FaultyHal)
  std::uint64_t retries = 0;          ///< transient-fault retries consumed
  std::uint64_t ecc_corrected = 0;    ///< Hamming blocks repaired
  DieHealth health = DieHealth::kClean;
  FailureReason reason = FailureReason::kNone;
  bool failed = false;            ///< == (health == kFailed); kept for CSV
  std::string error;              ///< human-readable failure detail

  /// Pull the controller op counters and the simulated clock from `dev`
  /// into this row. Call at the end of a job, after all device activity.
  void absorb(Device& dev);

  /// Pull the injection counters of a die's FaultyHal into this row (call
  /// alongside absorb when the job drove a decorated HAL).
  void absorb_faults(const fault::FaultyHal& hal);

  /// Fold a verification report's recovery activity into this row.
  void absorb_recovery(const VerifyReport& report);
};

/// Result of one batch run: per-die counter rows plus batch-level totals.
struct FleetReport {
  std::vector<DieCounters> dies;  ///< rows carrying their absolute die ids
  unsigned threads_used = 0;      ///< resolved worker count
  double wall_ms = 0.0;           ///< wall time of the whole batch; after
                                  ///< merge: max over the merged batches
  /// Accumulated batch wall time: run_dies sets it to wall_ms, merge() sums
  /// it. For concurrent shards (src/lot) this is the total compute span —
  /// the honest "CPU-ish" figure — while wall_ms stays the max-of-shards
  /// elapsed time. Merging shard reports used to sum wall_ms, overstating
  /// a lot run's wall time N-fold.
  double cpu_ms = 0.0;

  /// Sum of every per-die row (wall_ms sums too: total CPU-ish time, which
  /// exceeds `wall_ms` when threads overlap). `die` is set to dies.size().
  DieCounters totals() const;

  /// Number of failed slots.
  std::size_t failures() const;

  /// Number of degraded (completed-with-recovery) slots.
  std::size_t degraded() const;

  /// Fold another report into this one: rows are appended PRESERVING their
  /// absolute die ids (a shard report covering dies [1000, 1004) keeps
  /// those ids — re-basing them as `dies.size() + d.die` silently corrupted
  /// every non-zero-based range), wall_ms takes the max (merged batches are
  /// assumed concurrent; the sequential-total lives in cpu_ms), and cpu_ms
  /// sums. Used by the lot runner's shard fold and by benches that run
  /// several batches but want one summary.
  void merge(const FleetReport& other);

  /// Per-die rows as CSV (die,wall_ms,pe_cycles,sim_ms,erase_ops,
  /// program_ops,read_ops,faults,retries,ecc_corrected,health,reason,
  /// failed). Wall times make this nondeterministic — route it to stderr or
  /// a side file, never into result CSVs.
  std::string counters_csv() const;

  /// One-paragraph human summary (dies, threads, wall, aggregate ops).
  void print_summary(std::ostream& os) const;

  /// Fold the deterministic slice of this report into `reg` under
  /// `<prefix>`: per-die counter rows (`<prefix>.die.00007.erase_ops`, …,
  /// zero-padded so export order equals die order), per-die health/reason
  /// gauges, batch totals, and a sim-time histogram. Wall times are
  /// excluded on purpose — they would break the byte-identical-export
  /// contract (docs/REPRODUCIBILITY.md §6); they live in the trace instead.
  /// run_dies calls this automatically (prefix `fleet.bNNN`, one NNN per
  /// batch in issue order) when obs::metrics_enabled().
  void fold_into(obs::MetricsRegistry& reg, const std::string& prefix) const;
};

/// A per-die job: simulate die `die` and record its counters. Results must
/// be written to slots indexed by `die` only; jobs must not touch shared
/// mutable state (see docs/REPRODUCIBILITY.md).
using DieJob = std::function<void(std::size_t die, DieCounters& counters)>;

/// A supervised per-die job: like DieJob, plus the die's DieProgress token.
/// The job should `tick()` it on forward progress and either poll
/// `cancel_requested()` between units of work or wire it into the pipeline's
/// `cancelled` hook, aborting via OperationCancelledError.
using SupervisedDieJob = std::function<void(
    std::size_t die, DieCounters& counters, DieProgress& progress)>;

/// Run `job` for dies 0..n_dies-1 on a fixed-size thread pool.
///
/// A job that throws marks only its own slot failed (`failed`/`error`);
/// other slots are unaffected and the run completes. The returned report has
/// exactly `n_dies` rows in die order regardless of scheduling.
FleetReport run_dies(std::size_t n_dies, const DieJob& job,
                     const FleetOptions& opts = {});

/// Supervised overload: when `opts` arms a deadline or stall limit, a
/// watchdog thread polls every die's DieProgress and cancels offenders
/// cooperatively; a job aborted by its token is classified
/// kDeadlineExceeded / kStalled instead of kOther. Without limits this is
/// run_dies with an inert token (no watchdog thread is spawned).
FleetReport run_dies(std::size_t n_dies, const SupervisedDieJob& job,
                     const FleetOptions& opts = {});

/// Restart the `fleet.bNNN` metric-prefix sequence at b000. A fresh process
/// always starts at b000; tests that emulate several processes in one
/// (clearing the registry between runs) call this alongside
/// MetricsRegistry::clear() so re-runs reproduce the same metric names.
void reset_batch_counter();

/// A freshly manufactured fleet: dies[i] has seed
/// derive_die_seed(master_seed, i).
struct DieBatch {
  std::vector<std::unique_ptr<Device>> dies;
  FleetReport fleet;
};

/// Which dies of a batch misbehave, and how. The per-die FaultPlan is
/// derived from (config, die seed) inside the job, so a faulted batch obeys
/// the same thread-count-invariance contract as a healthy one.
struct FaultPolicy {
  fault::FaultConfig config;  ///< fault profile of the afflicted dies
  /// Predicate selecting afflicted dies; empty = every die (when the
  /// config has any fault enabled).
  std::function<bool(std::size_t die)> applies;

  /// True if `die` gets a FaultyHal under this policy.
  bool afflicts(std::size_t die) const {
    return config.any() && (!applies || applies(die));
  }
};

/// Crash recovery for a whole batch: when `dir` is non-empty, every die of
/// the batch runs as a journaled session under `dir` (imprint_batch uses
/// per-die subdirectories `<dir>/die-<n>`; audit_batch one shared
/// `<dir>/audit.fmj`). A re-run of the same batch with `resume = true` skips
/// or fast-forwards the dies the journal already recorded — a half-finished
/// 500-die lot continues instead of restarting. Journaled dies bypass any
/// FaultPolicy (the session layer owns the die's HAL end to end); combining
/// the two throws std::invalid_argument.
struct SessionPolicy {
  std::string dir;  ///< journal directory; empty = journaling off
  std::uint32_t checkpoint_every = 4096;  ///< imprint checkpoint cadence
  bool resume = false;  ///< continue `dir`'s journals instead of starting
  bool durable = true;  ///< fsync journal appends and checkpoints
  bool enabled() const { return !dir.empty(); }
};

/// Result slots of imprint_batch, indexed by die.
struct ImprintBatchResult {
  std::vector<std::unique_ptr<Device>> dies;  ///< the imprinted fleet
  std::vector<ImprintReport> reports;
  FleetReport fleet;
};

/// Manufacture `n_dies` dies from (config, master_seed) and imprint each
/// with the watermark returned by `spec_of(die)` at main segment
/// `segment`. One thread-pool job per die. With a `faults` policy the
/// afflicted dies are imprinted through a FaultyHal (their specs'
/// max_retries decides whether they survive power losses). With a `session`
/// policy each die journals its progress and an interrupted batch resumes
/// from its checkpoints (byte-identical to an uninterrupted run).
ImprintBatchResult imprint_batch(
    const DeviceConfig& config, std::uint64_t master_seed, std::size_t n_dies,
    std::size_t segment, const std::function<WatermarkSpec(std::size_t)>& spec_of,
    const FleetOptions& opts = {}, const FaultPolicy& faults = {},
    const SessionPolicy& session = {});

/// Result slots of extract_batch, indexed by die.
struct ExtractBatchResult {
  std::vector<ExtractResult> results;
  FleetReport fleet;
};

/// Extract the watermark bitmap of main segment `segment` on every die of
/// an existing fleet. Each job touches only its own Device. Afflicted dies
/// (per `faults`) extract through a FaultyHal.
ExtractBatchResult extract_batch(
    const std::vector<std::unique_ptr<Device>>& dies, std::size_t segment,
    const ExtractOptions& eo, const FleetOptions& opts = {},
    const FaultPolicy& faults = {});

/// Result slots of audit_batch, indexed by die.
struct AuditBatchResult {
  std::vector<VerifyReport> reports;
  FleetReport fleet;
};

/// Run the full integrator-side verification pipeline on every die of an
/// existing fleet (the incoming-inspection hot path of a lot audit).
///
/// With a `faults` policy the afflicted dies are audited through a
/// FaultyHal; the batch never aborts on their account. Each row of
/// `fleet.dies` classifies its die: kClean (no recovery activity),
/// kDegraded (verified, but retries / ECC corrections / injected faults
/// were involved), or kFailed with a structured FailureReason (e.g.
/// kRetryExhausted when the retry budget ran out).
/// With a `session` policy every completed die's verdict is appended to
/// `<dir>/audit.fmj`; a resumed audit restores recorded verdicts without
/// re-reading those dies (their counter rows stay zero, health kClean —
/// the work happened in the crashed process).
AuditBatchResult audit_batch(const std::vector<std::unique_ptr<Device>>& dies,
                             std::size_t segment, const VerifyOptions& vo,
                             const FleetOptions& opts = {},
                             const FaultPolicy& faults = {},
                             const SessionPolicy& session = {});

// --- store-backed (out-of-core) batches ----------------------------------
// The overloads below run the same per-die imprint and audit bodies as the
// in-memory ones against a DieStore (src/store/die_store.hpp) instead of an
// in-memory fleet vector: each job pins its die for the duration of the job
// (loading it from its die file or manufacturing it from seed on a miss) and
// releases it afterwards, so a 10^6-die population runs with only
// `max_resident` dies in RAM. Results are byte-identical to the
// all-resident overloads at any --threads value — residency and eviction
// order affect only I/O, never die state (docs/REPRODUCIBILITY.md §8).
// Store counters (hits/misses/evictions) are folded into the metrics
// registry under `store.*` when metrics are on; they are
// scheduling-dependent and outside the §6 byte-identity contract. Dirty dies
// remain in the store after the batch — call DieStore::flush_all() to
// persist the population.

/// Imprint dies 0..n_dies-1 of the store's population. Unlike the in-memory
/// overload the imprinted Devices stay in the store (`dies` is empty in the
/// result); reports land in die-indexed slots as usual.
ImprintBatchResult imprint_batch(
    store::DieStore& dies, std::size_t n_dies, std::size_t segment,
    const std::function<WatermarkSpec(std::size_t)>& spec_of,
    const FleetOptions& opts = {});

/// Audit dies 0..n_dies-1 of the store's population. With a `faults` policy
/// the afflicted dies are audited through a FaultyHal exactly like the
/// in-memory overload — the fault plan derives from the die seed, not from
/// residency, so a store-backed faulted audit is byte-identical to an
/// all-resident one (the chaos test in tests/store_test.cpp holds it to
/// that).
AuditBatchResult audit_batch(store::DieStore& dies, std::size_t n_dies,
                             std::size_t segment, const VerifyOptions& vo,
                             const FleetOptions& opts = {},
                             const FaultPolicy& faults = {});

}  // namespace flashmark::fleet
