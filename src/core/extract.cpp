#include "core/extract.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace flashmark {

ExtractResult extract_flashmark(FlashHal& hal, Addr addr,
                                const ExtractOptions& opts) {
  if (opts.n_reads < 1 || opts.n_reads % 2 == 0)
    throw std::invalid_argument("extract_flashmark: n_reads must be odd >= 1");
  if (opts.rounds < 1 || opts.rounds % 2 == 0)
    throw std::invalid_argument("extract_flashmark: rounds must be odd >= 1");
  if (opts.t_pew < SimTime{})
    throw std::invalid_argument("extract_flashmark: negative t_pew");

  const auto& g = hal.geometry();
  const std::size_t seg = g.segment_index(addr);
  const Addr base = g.segment_base(seg);
  const std::size_t n_words = g.segment_bytes(seg) / g.word_bytes;
  const std::size_t n_cells = g.segment_cells(seg);
  const std::vector<std::uint16_t> zeros(n_words, 0x0000);

  const SimTime start = hal.now();
  ExtractResult result;
  result.round_bits.reserve(static_cast<std::size_t>(opts.rounds));

  FLASHMARK_SPAN_SIM("extract", hal);
  std::uint32_t budget = opts.max_retries;
  for (int r = 0; r < opts.rounds; ++r) {
    if (opts.cancelled && opts.cancelled())
      throw OperationCancelledError("extract round");
    // A round is restartable by construction: its leading erase resets the
    // segment, so a power-loss abort anywhere inside the round is repaired
    // by running the whole round again (bounded by max_retries).
    for (;;) {
      try {
        FLASHMARK_SPAN_SIM("extract.round", hal);
        {
          FLASHMARK_SPAN_SIM("extract.erase", hal);
          if (opts.accelerated_erase)
            hal.erase_segment_auto(base);   // all cells read as 1s
          else
            hal.erase_segment(base);
        }
        {
          FLASHMARK_SPAN_SIM("extract.program", hal);
          hal.program_block(base, zeros);   // all cells read as 0s
          if (opts.verify_program) {
            // Read-back verification of the program step: any word still
            // holding erased bits missed (part of) its pulse — re-issue it
            // once. One pass only: a cell that stays 1 after the re-pulse is
            // stuck, and repeating would spin forever.
            for (std::size_t w = 0; w < n_words; ++w) {
              const Addr wa = base + static_cast<Addr>(w * g.word_bytes);
              if (hal.read_word(wa) != 0x0000) {
                hal.program_word(wa, 0x0000);
                ++result.reprogrammed_words;
              }
            }
          }
        }
        {
          FLASHMARK_SPAN_SIM("extract.partial_erase", hal);
          hal.partial_erase_segment(base, opts.t_pew);
        }
        FLASHMARK_SPAN_SIM("extract.analyze", hal);
        result.round_bits.push_back(
            analyze_segment(hal, base, opts.n_reads).bitmap);
        break;
      } catch (const TransientFlashError& e) {
        if (budget == 0)
          throw RetryExhaustedError("extract round", opts.max_retries + 1,
                                    e.what());
        --budget;
        ++result.retries;
        if (auto* col = obs::TraceCollector::current())
          col->instant("extract.retry");
      }
    }
  }

  // Fig. 8's vote across rounds, 64 cells per word operation.
  result.bits = opts.rounds == 1
                    ? result.round_bits.front()
                    : BitVec::majority(result.round_bits, n_cells);

  if (opts.final_erase) {
    for (;;) {
      try {
        hal.erase_segment(base);
        break;
      } catch (const TransientFlashError& e) {
        // The bitmap is already recovered; only the cleanup erase failed.
        if (budget == 0)
          throw RetryExhaustedError("extract final erase",
                                    opts.max_retries + 1, e.what());
        --budget;
        ++result.retries;
      }
    }
  }
  result.elapsed = hal.now() - start;
  return result;
}

}  // namespace flashmark
