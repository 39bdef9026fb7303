// Host-side performance microbenchmarks of the simulator itself and of the
// fleet batch layer (google-benchmark). They measure wall-clock cost of the
// building blocks — erase/program/imprint/extract primitives plus the batch
// variants (fleet::imprint_batch / audit_batch at 1 and N threads) — so
// users can size their own sweeps; they are not paper results.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "bench_util.hpp"
#include "nand/nand_watermark.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spinor/spinor_watermark.hpp"

using namespace flashmark;
using namespace flashmark::bench;

// Process-wide heap-allocation counter backing the arena guards below. The
// batched kernels promise steady-state zero allocation (their scratch lives
// in the thread-local KernelArena, phys/kernels.cpp); replacing the global
// operator new makes that promise measurable instead of aspirational.
std::atomic<std::uint64_t> g_heap_allocs{0};

void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

void BM_SegmentErase(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  for (auto _ : state) dev.hal().erase_segment(addr);
}
BENCHMARK(BM_SegmentErase);

void BM_ProgramBlock(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::vector<std::uint16_t> zeros(256, 0);
  for (auto _ : state) {
    dev.hal().erase_segment(addr);
    dev.hal().program_block(addr, zeros);
  }
}
BENCHMARK(BM_ProgramBlock);

void BM_PartialEraseRound(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::vector<std::uint16_t> zeros(256, 0);
  for (auto _ : state) {
    dev.hal().erase_segment(addr);
    dev.hal().program_block(addr, zeros);
    dev.hal().partial_erase_segment(addr, SimTime::us(25));
  }
}
BENCHMARK(BM_PartialEraseRound);

void BM_ImprintCycle_Loop(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::size_t cells = dev.config().geometry.segment_cells(0);
  const BitVec pattern =
      replicate_pattern(ascii_watermark(ascii_text(64)), 7, cells);
  ImprintOptions io;
  io.npe = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) imprint_flashmark(dev.hal(), addr, pattern, io);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ImprintCycle_Loop)->Arg(100)->Arg(1000);

// The enroll path (the daemon's kEnroll session loop): accelerated imprint,
// each erase ended at erase-verify (§V). Also the allocation guard for that
// loop: past the first cycle, every erase-verify query, pulse and program
// must run out of the thread-local KernelArena scratch (phys/kernels.cpp).
// The bench FAILS (SkipWithError) if a steady-state cycle touches the heap.
void BM_ImprintCycle_Accelerated(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::size_t cells = dev.config().geometry.segment_cells(0);
  const BitVec pattern =
      replicate_pattern(ascii_watermark(ascii_text(64)), 7, cells);
  ImprintOptions io;
  io.npe = static_cast<std::uint32_t>(state.range(0));
  io.accelerated = true;
  std::uint64_t after_first = 0;
  std::uint64_t cycle_allocs = 0;
  io.on_cycle = [&](std::uint32_t done) {
    const std::uint64_t now = g_heap_allocs.load(std::memory_order_relaxed);
    if (done == 1) after_first = now;
    if (done == io.npe) cycle_allocs += now - after_first;
  };
  imprint_flashmark(dev.hal(), addr, pattern, io);  // warm-up: sizes scratch
  cycle_allocs = 0;
  for (auto _ : state) imprint_flashmark(dev.hal(), addr, pattern, io);
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["cycle_allocs"] = static_cast<double>(cycle_allocs);
  if (cycle_allocs != 0)
    state.SkipWithError("steady-state accelerated imprint cycle hit the heap");
}
BENCHMARK(BM_ImprintCycle_Accelerated)->Arg(100)->Arg(1000);

void BM_ImprintCycle_Batch(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::size_t cells = dev.config().geometry.segment_cells(0);
  const BitVec pattern =
      replicate_pattern(ascii_watermark(ascii_text(64)), 7, cells);
  ImprintOptions io;
  io.npe = static_cast<std::uint32_t>(state.range(0));
  io.strategy = ImprintStrategy::kBatchWear;
  for (auto _ : state) imprint_flashmark(dev.hal(), addr, pattern, io);
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ImprintCycle_Batch)->Arg(1000)->Arg(100000);

void BM_Extract(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::size_t cells = dev.config().geometry.segment_cells(0);
  ImprintOptions io;
  io.npe = 60'000;
  io.strategy = ImprintStrategy::kBatchWear;
  imprint_flashmark(dev.hal(), addr,
                    replicate_pattern(ascii_watermark(ascii_text(64)), 7, cells),
                    io);
  ExtractOptions eo;
  eo.t_pew = SimTime::us(30);
  for (auto _ : state)
    benchmark::DoNotOptimize(extract_flashmark(dev.hal(), addr, eo));
}
BENCHMARK(BM_Extract);

void BM_VerifyPipeline(benchmark::State& state) {
  const SipHashKey key{1, 2};
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  WatermarkSpec spec;
  spec.fields = {1, 2, 3, TestStatus::kAccept, 4};
  spec.key = key;
  spec.npe = 60'000;
  spec.strategy = ImprintStrategy::kBatchWear;
  imprint_watermark(dev.hal(), seg_addr(dev, 0), spec);
  VerifyOptions vo;
  vo.t_pew = SimTime::us(30);
  vo.key = key;
  for (auto _ : state)
    benchmark::DoNotOptimize(verify_watermark(dev.hal(), seg_addr(dev, 0), vo));
}
BENCHMARK(BM_VerifyPipeline);

void BM_SoftDualRailDecode(benchmark::State& state) {
  Rng rng(1);
  BitVec payload(144);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload.set(i, rng.bernoulli(0.5));
  const BitVec replica = dual_rail_encode(payload);
  const BitVec pattern = replicate_pattern(replica, 7, 4096);
  const ReplicaLayout layout{replica.size(), 7};
  for (auto _ : state)
    benchmark::DoNotOptimize(soft_decode_dual_rail(pattern, layout));
}
BENCHMARK(BM_SoftDualRailDecode);

void BM_NandExtractRound(benchmark::State& state) {
  NandGeometry geom = NandGeometry::tiny();
  NandArray array{geom, nand_slc_phys(), kDieSeed};
  SimClock clock;
  NandController nand{array, NandTiming::slc_datasheet(), clock};
  BitVec pattern(geom.page_cells(), true);
  for (std::size_t i = 0; i < pattern.size(); i += 2) pattern.set(i, false);
  NandImprintOptions io;
  io.npe = 5'000;
  io.strategy = ImprintStrategy::kBatchWear;
  imprint_flashmark_nand(nand, 0, 0, pattern, io);
  NandExtractOptions eo;
  for (auto _ : state)
    benchmark::DoNotOptimize(extract_flashmark_nand(nand, 0, 0, eo));
}
BENCHMARK(BM_NandExtractRound);

void BM_SpiNorExtractRound(benchmark::State& state) {
  SimClock clock;
  SpiNorChip chip{SpiNorGeometry::tiny(), SpiNorTiming::w25q_datasheet(),
                  spinor_phys(), kDieSeed, clock};
  BitVec pattern(chip.geometry().sector_cells(), true);
  for (std::size_t i = 0; i < pattern.size(); i += 2) pattern.set(i, false);
  SpiNorImprintOptions io;
  io.npe = 60'000;
  io.strategy = ImprintStrategy::kBatchWear;
  imprint_flashmark_spinor(chip, 0, pattern, io);
  SpiNorExtractOptions eo;
  for (auto _ : state)
    benchmark::DoNotOptimize(extract_flashmark_spinor(chip, 0, eo));
}
BENCHMARK(BM_SpiNorExtractRound);

// Batch variants: whole-fleet throughput through the fleet layer. Arg 0 is
// the lot size, arg 1 the thread count (0 = hardware concurrency); compare
// {N,1} against {N,0} for the multi-core speedup on this host.
void BM_FleetImprintBatch(benchmark::State& state) {
  const auto n_dies = static_cast<std::size_t>(state.range(0));
  fleet::FleetOptions fo;
  fo.threads = static_cast<unsigned>(state.range(1));
  WatermarkSpec spec;
  spec.fields = {1, 2, 3, TestStatus::kAccept, 4};
  spec.key = SipHashKey{1, 2};
  spec.npe = 60'000;
  spec.strategy = ImprintStrategy::kBatchWear;
  for (auto _ : state) {
    auto batch = fleet::imprint_batch(
        DeviceConfig::msp430f5438(), kDieSeed, n_dies, 0,
        [&](std::size_t) { return spec; }, fo);
    benchmark::DoNotOptimize(batch.reports.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetImprintBatch)->Args({8, 1})->Args({8, 0});

void BM_FleetAuditBatch(benchmark::State& state) {
  const auto n_dies = static_cast<std::size_t>(state.range(0));
  fleet::FleetOptions fo;
  fo.threads = static_cast<unsigned>(state.range(1));
  WatermarkSpec spec;
  spec.fields = {1, 2, 3, TestStatus::kAccept, 4};
  spec.key = SipHashKey{1, 2};
  spec.npe = 60'000;
  spec.strategy = ImprintStrategy::kBatchWear;
  auto lot = fleet::imprint_batch(
      DeviceConfig::msp430f5438(), kDieSeed, n_dies, 0,
      [&](std::size_t) { return spec; }, fo);
  VerifyOptions vo;
  vo.t_pew = SimTime::us(30);
  vo.key = SipHashKey{1, 2};
  for (auto _ : state) {
    auto audited = fleet::audit_batch(lot.dies, 0, vo, fo);
    benchmark::DoNotOptimize(audited.reports.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FleetAuditBatch)->Args({8, 1})->Args({8, 0});

// Kernel-layer pair: the same erase-pulse recipe under both KernelMode
// paths (arg 0). Compare .../0 (reference) against .../1 (batched) for the
// SoA speedup; the pinned ratio gate lives in kernel_bench (ctest -L perf),
// this is the exploratory view. Recipe mirrors bench_erase_pulse there.
// Also the allocation guard for the erase pulse: after the warm-up rep,
// every batched pulse must run entirely out of the thread-local KernelArena
// scratch (phys/kernels.cpp). The batched arg FAILS (SkipWithError) if a
// steady-state pulse touches the heap.
void BM_ErasePulseSegment(benchmark::State& state) {
  DeviceConfig cfg = DeviceConfig::msp430f5438();
  cfg.kernel_mode = static_cast<KernelMode>(state.range(0));
  Device dev(cfg, kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::vector<std::uint16_t> zeros(256, 0);
  auto condition = [&] {
    dev.hal().erase_segment(addr);
    dev.hal().program_block(addr, zeros);
  };
  auto pulses = [&] {
    for (int i = 0; i < 4; ++i)
      dev.hal().partial_erase_segment(addr, SimTime::us(30));
  };
  condition();
  pulses();  // warm-up: materializes the segment, sizes the arena scratch
  std::uint64_t pulse_allocs = 0;
  for (auto _ : state) {
    condition();
    const std::uint64_t a0 = g_heap_allocs.load(std::memory_order_relaxed);
    pulses();
    pulse_allocs += g_heap_allocs.load(std::memory_order_relaxed) - a0;
  }
  state.SetItemsProcessed(state.iterations() * 4);
  state.counters["pulse_allocs"] = static_cast<double>(pulse_allocs);
  if (cfg.kernel_mode == KernelMode::kBatched && pulse_allocs != 0)
    state.SkipWithError("steady-state batched erase pulse hit the heap");
}
BENCHMARK(BM_ErasePulseSegment)->Arg(0)->Arg(1);

// Majority-read kernel under both modes (arg 0), mid-transition so the
// metastable noise draws are live — the analyze/extract hot loop.
void BM_ReadSegmentMajority(benchmark::State& state) {
  DeviceConfig cfg = DeviceConfig::msp430f5438();
  cfg.kernel_mode = static_cast<KernelMode>(state.range(0));
  Device dev(cfg, kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  const std::vector<std::uint16_t> zeros(256, 0);
  dev.hal().program_block(addr, zeros);
  dev.hal().partial_erase_segment(addr, SimTime::us(26));
  for (auto _ : state)
    benchmark::DoNotOptimize(dev.hal().read_segment(addr, 3));
}
BENCHMARK(BM_ReadSegmentMajority)->Arg(0)->Arg(1);

// Allocation guard for the characterize sweep: the all-zeros program block
// is hoisted out of the per-step loop (src/core/characterize.cpp); this
// bench regresses visibly if a per-step allocation or per-word path sneaks
// back in.
void BM_CharacterizeSweep(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  CharacterizeOptions o;
  o.t_end = SimTime::us(40);
  o.t_step = SimTime::us(4);
  o.settle_points = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(characterize_segment(dev.hal(), addr, o));
}
BENCHMARK(BM_CharacterizeSweep);

void BM_McuHal_WordProgram(benchmark::State& state) {
  Device dev(DeviceConfig::msp430f5438(), kDieSeed);
  const Addr addr = seg_addr(dev, 0);
  dev.mcu_hal().erase_segment(addr);
  std::uint16_t v = 0xFFFE;
  for (auto _ : state) dev.mcu_hal().program_word(addr, v);
}
BENCHMARK(BM_McuHal_WordProgram);

// The disabled-path cost of a FLASHMARK_SPAN (no collector installed): one
// relaxed atomic load plus a steady_clock read at construction. The obs
// acceptance bar is < 2% on real workloads; this measures the per-span
// floor directly.
void BM_DisabledSpan(benchmark::State& state) {
  obs::TraceCollector::install(nullptr);
  for (auto _ : state) {
    FLASHMARK_SPAN("bench.noop");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DisabledSpan);

}  // namespace

// BENCHMARK_MAIN plus an observability snapshot: the fleet/imprint cases
// above fold per-batch counters into the global registry, and the JSON dump
// gives CI a baseline artifact to diff (ISSUE: BENCH_obs.json).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  obs::set_metrics_enabled(true);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const std::string json = obs::MetricsRegistry::global().to_json();
  if (std::FILE* f = std::fopen("BENCH_obs.json", "wb")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
  return 0;
}
