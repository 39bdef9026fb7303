// Forked-shard runner: split [0, n) into contiguous ranges, run each range
// in a forked worker process, and collect every worker's bytes over a pipe
// in shard order. The lot runner (src/lot) and the ROC study
// (src/scenario/roc.cpp) run on it; each keeps its own policy for a lost
// slot on top.
//
// The runner only moves bytes. A slot holds a worker's output only when the
// worker wrote all of it and exited 0; a worker that throws, exits nonzero,
// is killed, or dies mid-write (a torn frame) yields std::nullopt for its
// slot alone. Callers still frame and CRC what they send (util/wire.hpp),
// so a slot's bytes are validated once more before they are trusted.
//
// Workers are forked BEFORE any thread exists in the calling process (each
// worker builds its own thread pool inside `work`), which keeps the
// fork/thread combination legal under TSan and ASan. Call it from a
// single-threaded process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace flashmark::util {

/// Contiguous range of shard `s` of `slots` over [0, n): the first
/// n % slots shards get one extra element.
void shard_range(std::uint64_t n, unsigned slots, unsigned s,
                 std::uint64_t* begin, std::uint64_t* end);

/// Work of one shard: the bytes to send back for [begin, end). Runs in the
/// forked worker.
using ShardWork = std::function<std::string(std::uint64_t begin,
                                            std::uint64_t end)>;

/// Fork `slots` workers over the shard_range partition of [0, n), run
/// `work` in each, and return their bytes in shard order.
///
/// SIGTERM/SIGINT are flagged (not fatal) for the duration of the call: the
/// first signal observed is forwarded once to the workers' own process
/// group, the drain keeps every frame already complete, and the workers are
/// reaped with a bounded wait (SIGKILL after ~2 s). The interrupted slots
/// come back as std::nullopt. When `interrupted_signal` is non-null it
/// receives the signal number (0 = ran to completion); what to do about it
/// is the caller's decision. Throws std::runtime_error when pipe() or
/// fork() fails, after killing and reaping the workers already forked.
std::vector<std::optional<std::string>> run_forked_shards(
    std::uint64_t n, unsigned slots, const ShardWork& work,
    int* interrupted_signal = nullptr);

}  // namespace flashmark::util
