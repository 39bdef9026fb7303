// flashbench ladder: the per-layer half of a traced run. Every layer is
// timed from outside, by calling its public functions on dies of the
// workload's own population (same master seed, same enrollment spec):
//
//   phys    kernels on a copy of a populated die's segment SoA
//   flash   a pass-through timing FlashHal decorator around the die's HAL
//   core    extract_flashmark / judge_extracted_bits / verify_watermark,
//           batch-wear imprint
//   store   DieStore::pin (hit, dirty-evicting miss) and flush
//   serve   kPing and single verify round trips, and a short open-loop
//           probe at a light rate
//   session run_imprint_session vs the same imprint without a journal
//   lot     a small run_lot, for workloads that are not lot_study
//
// A traced run calls the ladder twice: once with no trace collector, for
// the timings, and once under the collector, for the spans. Metrics the
// traced workload produces from its own traffic (store hit ratio, queue
// depth, generator lateness, lot efficiency) replace the ladder's isolated
// values.
#include <cmath>
#include <filesystem>

#include "core/extract.hpp"
#include "core/imprint.hpp"
#include "core/watermark.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "lot/lot.hpp"
#include "mcu/persist.hpp"
#include "phys/kernels.hpp"
#include "serve/client.hpp"
#include "session/resumable.hpp"
#include "store/die_store.hpp"

namespace flashbench {

namespace fs = std::filesystem;
using namespace flashmark;

namespace {

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// Pass-through FlashHal that times every call into the controller.
class TimingHal final : public FlashHal {
 public:
  enum Op { kErase, kProgramBlock, kPartialErase, kRead, kOther, kOps };

  explicit TimingHal(FlashHal& inner) : in_(inner) {}

  const FlashGeometry& geometry() const override { return in_.geometry(); }
  const FlashTiming& timing() const override { return in_.timing(); }
  SimTime now() const override { return in_.now(); }

  void erase_segment(Addr a) override {
    Timed t(*this, kErase, "flash.erase_segment");
    in_.erase_segment(a);
  }
  SimTime erase_segment_auto(Addr a) override {
    Timed t(*this, kErase, "flash.erase_segment");
    return in_.erase_segment_auto(a);
  }
  void partial_erase_segment(Addr a, SimTime t_pe) override {
    Timed t(*this, kPartialErase, "flash.partial_erase");
    in_.partial_erase_segment(a, t_pe);
  }
  void program_word(Addr a, std::uint16_t v) override {
    Timed t(*this, kOther, "flash.other");
    in_.program_word(a, v);
  }
  void partial_program_word(Addr a, std::uint16_t v, SimTime tp) override {
    Timed t(*this, kOther, "flash.other");
    in_.partial_program_word(a, v, tp);
  }
  void program_block(Addr a, const std::vector<std::uint16_t>& w) override {
    Timed t(*this, kProgramBlock, "flash.program_block");
    in_.program_block(a, w);
  }
  std::uint16_t read_word(Addr a) override {
    Timed t(*this, kOther, "flash.other");
    return in_.read_word(a);
  }
  BitVec read_segment(Addr a, int n_reads) override {
    Timed t(*this, kRead, "flash.read");
    return in_.read_segment(a, n_reads);
  }
  void wear_segment(Addr a, double cycles, const BitVec* pattern) override {
    Timed t(*this, kOther, "flash.other");
    in_.wear_segment(a, cycles, pattern);
  }

  std::uint64_t calls[kOps] = {};
  double us[kOps] = {};

  std::uint64_t total_calls() const {
    std::uint64_t n = 0;
    for (std::uint64_t c : calls) n += c;
    return n;
  }
  double total_us() const {
    double s = 0;
    for (double u : us) s += u;
    return s;
  }

 private:
  struct Timed {
    Timed(TimingHal& h, Op op, const char* name)
        : h(h), op(op), span(name), t0(Clock::now()) {}
    ~Timed() {
      h.us[op] += us_since(t0);
      ++h.calls[op];
    }
    TimingHal& h;
    Op op;
    BenchSpan span;
    Clock::time_point t0;
  };

  FlashHal& in_;
};

/// Book one ladder verify of a genuine die (classify() decides).
void count_answer(Answer a, const char* what, std::uint64_t die,
                  Outcome& out) {
  ++out.attempted;
  if (a == Answer::kGenuine) return;
  ++out.failed;
  const std::string msg = std::string("ladder: ") + what + " of die " +
                          std::to_string(die) + " is not genuine";
  if (a == Answer::kWrong) out.error(msg);
  else std::fprintf(stderr, "flashbench: %s\n", msg.c_str());
}

/// A die file copy hydrated into memory, so timings exclude the lazy load.
std::unique_ptr<Device> load_hydrated(const std::string& pristine,
                                      std::uint64_t die, std::size_t segment) {
  auto dev = load_device_file(die_file(pristine, die));
  (void)dev->array().count_erased(segment);
  return dev;
}

struct PhysTimes {
  double erase_full_us = 0, program_words_us = 0, erase_pulse_us = 0,
         read_majority_us = 0;
};

PhysTimes ladder_phys(const std::string& pristine, std::size_t segment,
                      double t_pew_us, int n_reads, double wear_cycles,
                      Outcome& out) {
  constexpr int kWarm = 5, kReps = 200;
  auto dev = load_hydrated(pristine, 0, segment);
  FlashArray& arr = dev->array();
  const SegmentSoA* base = arr.materialized_segment(segment);
  if (base == nullptr) {
    out.error("ladder: segment did not hydrate");
    return {};
  }
  SegmentSoA work = *base;
  const PhysParams& ph = arr.phys();
  const KernelMode mode = arr.kernel_mode();
  const std::size_t bpw = arr.geometry().bits_per_word();
  const std::vector<std::uint16_t> zeros(work.size() / bpw, 0);
  BitVec pattern(work.size());
  for (std::size_t i = 0; i < work.size(); i += 2) pattern.set(i, true);
  BitVec voted(work.size());
  Rng rng(0x1add3e5);

  std::vector<double> full, prog, pulse, read, wear;
  for (auto* v : {&full, &prog, &pulse, &read, &wear}) v->reserve(kReps);
  std::uint64_t allocs = 0, calls = 0;
  for (int rep = 0; rep < kWarm + kReps; ++rep) {
    work = *base;  // same starting state every rep (reuses capacity)
    const bool timed = rep >= kWarm;
    const std::uint64_t a0 = thread_allocs();
    Clock::time_point t;
    {
      BenchSpan s("phys.erase_full");
      t = Clock::now();
      kernels::erase_full_segment(mode, work, ph);
      if (timed) full.push_back(us_since(t));
    }
    {
      BenchSpan s("phys.program_words");
      t = Clock::now();
      kernels::program_words(mode, work, ph, 0, zeros.data(), zeros.size(),
                             bpw);
      if (timed) prog.push_back(us_since(t));
    }
    {
      BenchSpan s("phys.erase_pulse");
      t = Clock::now();
      kernels::erase_pulse_segment(mode, work, ph, t_pew_us, rng);
      if (timed) pulse.push_back(us_since(t));
    }
    {
      BenchSpan s("phys.read_majority");
      t = Clock::now();
      kernels::read_segment_majority(mode, work, ph, bpw, n_reads, rng, voted);
      if (timed) read.push_back(us_since(t));
    }
    {
      BenchSpan s("phys.wear");
      t = Clock::now();
      kernels::wear_cells(mode, work, ph, wear_cycles, &pattern);
      if (timed) wear.push_back(us_since(t));
    }
    if (timed) {
      allocs += thread_allocs() - a0;
      calls += 5;
    }
  }
  PhysTimes pt{median(full), median(prog), median(pulse), median(read)};
  out.set("phys.erase_full_us", pt.erase_full_us, "us", kReps);
  out.set("phys.program_words_us", pt.program_words_us, "us", kReps);
  out.set("phys.erase_pulse_us", pt.erase_pulse_us, "us", kReps);
  out.set("phys.read_majority_us", pt.read_majority_us, "us", kReps);
  out.set("phys.wear_us", median(wear), "us", kReps);
  // The kernels run on thread-local scratch: a steady-state call that
  // allocates is a regression, not a number.
  out.set("phys.allocs_per_call", double(allocs) / double(calls), "count",
          calls);
  if (allocs != 0)
    out.error("phys: " + std::to_string(allocs) + " heap allocation(s) in " +
              std::to_string(calls) + " steady-state kernel calls");
  return pt;
}

void ladder_core(const Params& p, const serve::ServerConfig& cfg,
                 const std::string& pristine, const PhysTimes& pt,
                 Outcome& out) {
  VerifyOptions vo = cfg.verify;
  vo.key = cfg.key;
  vo.n_replicas = cfg.n_replicas;
  ExtractOptions eo;
  eo.t_pew = vo.t_pew;
  eo.n_reads = vo.n_reads;
  eo.rounds = vo.rounds;
  eo.accelerated_erase = vo.accelerated_erase;
  eo.max_retries = vo.max_retries;
  eo.verify_program = vo.verify_program;

  const std::size_t reps = 3 * p.size.ladder_dies;
  std::vector<double> extract_us, judge_us, verify_us, self_frac, sim_us;
  std::uint64_t allocs = 0, flash_calls = 0;
  std::uint64_t op_calls[TimingHal::kOps] = {};
  double op_us[TimingHal::kOps] = {};
  for (std::size_t k = 0; k < reps; ++k) {
    const std::uint64_t die = k % p.size.ladder_dies;
    // Each call gets its own fresh copy of the die, so every one starts
    // from the same state. The layer timings use the bare HAL; a third
    // copy runs the extract through the timing decorator for the flash
    // breakdown (its own overhead stays out of the core numbers).
    {
      auto dev = load_hydrated(pristine, die, cfg.segment);
      const Addr addr = dev->config().geometry.segment_base(cfg.segment);
      Clock::time_point t = Clock::now();
      ExtractResult ext;
      {
        BenchSpan s("core.extract");
        ext = extract_flashmark(dev->hal(), addr, eo);
      }
      extract_us.push_back(us_since(t));
      t = Clock::now();
      {
        BenchSpan s("core.judge");
        (void)judge_extracted_bits(ext.bits, vo);
      }
      judge_us.push_back(us_since(t));
    }
    {
      auto dev = load_hydrated(pristine, die, cfg.segment);
      const Addr addr = dev->config().geometry.segment_base(cfg.segment);
      const std::uint64_t a0 = thread_allocs();
      const Clock::time_point t = Clock::now();
      VerifyReport rep;
      {
        BenchSpan s("core.verify");
        rep = verify_watermark(dev->hal(), addr, vo);
      }
      verify_us.push_back(us_since(t));
      allocs += thread_allocs() - a0;
      sim_us.push_back(double(rep.extract_time.as_ns()) / 1e3);
      count_answer(classify(rep, die), "in-process verify", die, out);
    }
    {
      auto dev = load_hydrated(pristine, die, cfg.segment);
      TimingHal th(dev->hal());
      const Addr addr = dev->config().geometry.segment_base(cfg.segment);
      const Clock::time_point t = Clock::now();
      {
        BenchSpan s("core.extract_decorated");
        (void)extract_flashmark(th, addr, eo);
      }
      self_frac.push_back(1.0 - th.total_us() / us_since(t));
      flash_calls += th.total_calls();  // judge makes no flash calls
      for (int op = 0; op < TimingHal::kOps; ++op) {
        op_calls[op] += th.calls[op];
        op_us[op] += th.us[op];
      }
    }
  }
  const auto per_call = [&](int op) {
    return op_calls[op] ? op_us[op] / double(op_calls[op]) : 0.0;
  };
  out.set("flash.erase_segment_us", per_call(TimingHal::kErase), "us",
          op_calls[TimingHal::kErase]);
  out.set("flash.program_block_us", per_call(TimingHal::kProgramBlock), "us",
          op_calls[TimingHal::kProgramBlock]);
  out.set("flash.partial_erase_us", per_call(TimingHal::kPartialErase), "us",
          op_calls[TimingHal::kPartialErase]);
  out.set("flash.read_us", per_call(TimingHal::kRead), "us",
          op_calls[TimingHal::kRead]);
  out.set("flash.calls_per_verify", double(flash_calls) / double(reps),
          "count", reps);
  // Controller time above the kernels: flash time minus what the same
  // calls cost as bare kernels (phys ladder medians).
  double flash_us = 0;
  for (double u : op_us) flash_us += u;
  const double kernel_us =
      double(op_calls[TimingHal::kErase]) * pt.erase_full_us +
      double(op_calls[TimingHal::kProgramBlock]) * pt.program_words_us +
      double(op_calls[TimingHal::kPartialErase]) * pt.erase_pulse_us +
      double(op_calls[TimingHal::kRead]) * pt.read_majority_us;
  out.set("flash.self_frac", flash_us > 0 ? 1.0 - kernel_us / flash_us : 0.0,
          "ratio");

  const double ex = median(extract_us), ju = median(judge_us),
               ve = median(verify_us);
  out.set("core.extract_us", ex, "us", reps);
  out.set("core.judge_us", ju, "us", reps);
  out.set("core.verify_us", ve, "us", reps);
  out.set("core.ladder_residual_us", ve - ex - ju, "us");
  out.set("core.extract_self_frac", median(self_frac), "ratio", reps);
  out.set("core.verify_allocs", double(allocs) / double(reps), "count", reps);
  out.set("core.sim_extract_us", median(sim_us), "us", reps);

  // Batch-wear imprint of fresh dies, the lot/population imprint path.
  std::vector<double> imprint_ms;
  for (std::uint64_t i = 0; i < 4; ++i) {
    Device dev(cfg.device,
               fleet::derive_die_seed(cfg.master_seed, 100'000 + i));
    WatermarkSpec spec;
    spec.fields.die_id = static_cast<std::uint32_t>(100'000 + i);
    spec.key = cfg.key;
    spec.n_replicas = cfg.n_replicas;
    spec.npe = kVerifyNpe;
    spec.strategy = ImprintStrategy::kBatchWear;
    const Addr addr = dev.config().geometry.segment_base(cfg.segment);
    const Clock::time_point t = Clock::now();
    {
      BenchSpan s("core.imprint_batchwear");
      imprint_watermark(dev.hal(), addr, spec);
    }
    imprint_ms.push_back(us_since(t) / 1e3);
  }
  out.set("core.imprint_batchwear_ms", median(imprint_ms), "ms",
          imprint_ms.size());
}

void ladder_store(const Params& p, const serve::ServerConfig& cfg,
                  const std::string& pristine, const std::string& dir,
                  Outcome& out) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  fs::copy(pristine + "/dies", dir + "/dies", fs::copy_options::recursive);
  store::DieStoreConfig sc;
  sc.dir = dir + "/dies";
  sc.device = cfg.device;
  sc.durable = true;  // as the daemon's store
  const std::uint64_t master = cfg.master_seed;
  sc.seed_of = [master](std::size_t die) {
    return fleet::derive_die_seed(master, die);
  };
  const std::size_t n = p.size.ladder_dies;
  const Addr addr = cfg.device.geometry.segment_base(cfg.segment);

  std::vector<double> hit_us, flush_us, miss_us;
  {
    sc.max_resident = n;
    store::DieStore s(sc);
    for (std::size_t d = 0; d < n; ++d) (void)s.pin(d);
    for (std::size_t k = 0; k < 20 * n; ++k) {
      const Clock::time_point t = Clock::now();
      BenchSpan span("store.pin_hit");
      auto pin = s.pin(k % n);
      hit_us.push_back(us_since(t));
    }
    for (std::size_t d = 0; d < n; ++d) {
      {
        auto pin = s.pin(d);
        (void)pin->hal().read_word(addr);  // a read dirties the die
      }
      const Clock::time_point t = Clock::now();
      BenchSpan span("store.flush");
      const IoStatus st = s.flush(d);
      flush_us.push_back(us_since(t));
      if (!st.ok) out.error("ladder: flush failed: " + st.error);
    }
  }
  store::DieStoreStats miss_stats;
  {
    // Two resident slots: every pin misses, hydrates the v3 file and
    // evicts a dirty die (saved) — the verify_cold pin.
    sc.max_resident = 2;
    store::DieStore s(sc);
    for (std::size_t k = 0; k < 3 * n; ++k) {
      const Clock::time_point t = Clock::now();
      BenchSpan span("store.pin_miss");
      auto pin = s.pin(k % n);
      if (k >= 2) miss_us.push_back(us_since(t));
      (void)pin->hal().read_word(addr);
    }
    miss_stats = s.stats();
  }
  out.set("store.pin_hit_us", median(hit_us), "us", hit_us.size());
  out.set("store.pin_miss_us", median(miss_us), "us", miss_us.size());
  out.set("store.flush_us", median(flush_us), "us", flush_us.size());
  const double pins = double(miss_stats.hits + miss_stats.misses);
  out.set("store.hit_ratio", double(miss_stats.hits) / pins, "ratio",
          static_cast<std::uint64_t>(pins));
  out.set("store.eviction_saves_per_miss",
          double(miss_stats.eviction_saves) / double(miss_stats.misses),
          "ratio", miss_stats.misses);
  fs::remove_all(dir);
}

void ladder_serve(const Params& p, const serve::ServerConfig& base,
                  const std::string& pristine, const std::string& dir,
                  Outcome& out) {
  constexpr int kPings = 200;
  constexpr double kProbeRate = 600.0, kProbeSeconds = 0.4;
  serve::ServerConfig cfg = base;
  cfg.max_dies = p.size.ladder_dies;
  cfg.max_resident = p.size.ladder_dies;
  auto server = start_daemon(cfg, dir, p.nproc, pristine);
  const std::string& sock = server->config().socket_path;

  std::vector<double> ping_us, rtt_us;
  std::uint64_t id = 1;
  {
    serve::Client client(sock);
    const auto verify = [&](std::uint64_t die) {
      const Clock::time_point t = Clock::now();
      serve::Response rs;
      {
        BenchSpan s("serve.verify_rtt");
        rs = client.call_once(verify_request(id++, die));
      }
      const double us = us_since(t);
      count_answer(classify(rs, die), "daemon verify", die, out);
      return us;
    };
    for (std::size_t d = 0; d < p.size.ladder_dies; ++d)
      (void)verify(d);  // warm
    for (int k = 0; k < kPings; ++k) {
      serve::Request rq;
      rq.request_id = id++;
      rq.op = serve::Op::kPing;
      const Clock::time_point t = Clock::now();
      serve::Response rs;
      {
        BenchSpan s("serve.ping_rtt");
        rs = client.call_once(rq);
      }
      ping_us.push_back(us_since(t));
      if (rs.status != serve::Status::kOk) out.error("ladder: ping failed");
    }
    for (std::size_t k = 0; k < 3 * p.size.ladder_dies; ++k)
      rtt_us.push_back(verify(k % p.size.ladder_dies));
  }
  const double rtt = median(rtt_us);
  out.set("serve.ping_rtt_us", median(ping_us), "us", ping_us.size());
  out.set("serve.verify_rtt_us", rtt, "us", rtt_us.size());
  out.set("serve.overhead_us", rtt - out.get("core.verify_us"), "us");

  // A short open-loop probe at a light rate: generator, queue and
  // p50-residual numbers for workloads that have no latency phase (the
  // verify workloads overwrite them with their own).
  {
    const std::size_t count = std::min<std::size_t>(
        static_cast<std::size_t>(kProbeRate * kProbeSeconds),
        16 * p.size.ladder_dies);  // stays well inside the wear budget
    std::vector<double> due(count);
    for (std::size_t k = 0; k < count; ++k) due[k] = double(k) / kProbeRate;
    const std::vector<std::uint64_t> dies =
        balanced_order(p.size.ladder_dies, count, derive(p.seed, 3));
    QueueSampler sampler(*server);
    const LoadResult r = run_open_loop(sock, due, dies,
                                       p.size.ladder_dies, 1'000'000);
    out.attempted += r.attempted;
    out.failed += r.failed();
    if (r.wrong != 0)
      out.error("ladder: open-loop probe had " + std::to_string(r.wrong) +
                " wrong answer(s)");
    out.set("gen.late_p99_ms", quantile(r.late_ms, 0.99), "ms",
            r.late_ms.size());
    out.set("gen.outstanding_max", double(r.outstanding_max), "count");
    out.set("serve.queue_depth_max", double(sampler.max_depth()), "count");
    const serve::ServerStats st = server->stats();
    out.set("serve.shed_frac", double(st.overloaded) / double(st.requests),
            "ratio");
    out.set("ladder.p50_residual_us",
            quantile(r.latency_ms, 0.5) * 1e3 - rtt, "us",
            r.latency_ms.size());
  }
  if (stop_daemon(server) != 0) out.error("ladder: daemon drain failed");
  fs::remove_all(dir);
}

void ladder_session(const Params& p, const serve::ServerConfig& cfg,
                    const std::string& dir, Outcome& out) {
  std::vector<double> enroll_ms, imprint_ms;
  for (std::uint64_t rep = 0; rep < 2; ++rep) {
    const std::uint64_t die = 200'000 + rep;
    WatermarkSpec spec;
    spec.fields.manufacturer_id = cfg.manufacturer_id;
    spec.fields.die_id = static_cast<std::uint32_t>(die);
    spec.key = cfg.key;
    spec.n_replicas = cfg.n_replicas;
    const std::uint64_t seed = fleet::derive_die_seed(cfg.master_seed, die);
    const std::size_t cells = cfg.device.geometry.segment_cells(cfg.segment);
    const Addr addr = cfg.device.geometry.segment_base(cfg.segment);
    const EncodedWatermark enc = encode_watermark(spec, cells);
    {
      Device dev(cfg.device, seed);
      session::SessionConfig scfg;  // the daemon's enroll settings
      scfg.checkpoint_every = cfg.checkpoint_every;
      scfg.durable = true;
      scfg.accelerated = true;
      const std::string sdir = dir + "/s" + std::to_string(rep);
      fs::remove_all(sdir);
      const Clock::time_point t = Clock::now();
      {
        BenchSpan s("session.enroll");
        session::run_imprint_session(sdir, dev, addr, enc.segment_pattern,
                                     p.size.ladder_session_npe, scfg);
      }
      enroll_ms.push_back(us_since(t) / 1e3);
    }
    {
      Device dev(cfg.device, seed);
      ImprintOptions io;
      io.npe = p.size.ladder_session_npe;
      io.accelerated = true;
      const Clock::time_point t = Clock::now();
      {
        BenchSpan s("session.imprint_no_journal");
        imprint_flashmark(dev.hal(), addr, enc.segment_pattern, io);
      }
      imprint_ms.push_back(us_since(t) / 1e3);
    }
  }
  const double en = median(enroll_ms), im = median(imprint_ms);
  out.set("session.enroll_ms", en, "ms", enroll_ms.size());
  out.set("session.imprint_ms", im, "ms", imprint_ms.size());
  out.set("session.journal_frac", 1.0 - im / en, "ratio");
  fs::remove_all(dir);
}

void ladder_lot(const Params& p, const serve::ServerConfig& cfg,
                Outcome& out) {
  lot::LotConfig lc;
  lc.master_seed = cfg.master_seed;
  lc.n_dies = p.size.ladder_lot_dies;
  lot::LotOptions lo;
  lo.shards = p.nproc;
  lo.threads = 1;
  lot::LotResult r;
  {
    BenchSpan s("lot.run");
    r = lot::run_lot(lc, lo);
  }
  if (r.shards_lost != 0) out.error("ladder: lot run lost a shard");
  out.set("lot.die_ms", r.die_wall_ms.mean(), "ms", r.die_wall_ms.count());
  out.set("lot.parallel_eff", r.fleet.cpu_ms / (r.wall_ms * r.shards_used),
          "ratio");
}

}  // namespace

void run_ladder(const Params& p, Outcome& out) {
  const serve::ServerConfig cfg =
      base_server_config(derive(p.seed, kMasterTag));
  const std::string root = p.work_dir + "/ladder";
  const std::string pristine = root + "/pristine";
  fs::remove_all(root);
  populate(pristine, cfg, p.size.ladder_dies, kVerifyNpe, p.nproc, 1);

  const PhysTimes pt =
      ladder_phys(pristine, cfg.segment, cfg.verify.t_pew.as_us(),
                  cfg.verify.n_reads, double(kVerifyNpe), out);
  ladder_core(p, cfg, pristine, pt, out);
  ladder_store(p, cfg, pristine, root + "/store", out);
  ladder_serve(p, cfg, pristine, root + "/serve", out);
  ladder_session(p, cfg, root + "/session", out);
  ladder_lot(p, cfg, out);
  fs::remove_all(root);
}

}  // namespace flashbench
