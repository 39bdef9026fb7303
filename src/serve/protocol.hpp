// Wire protocol of flashmarkd (the serve layer).
//
// Frames are length-prefixed and CRC-framed, and the decoder shares the
// wire codec of the lot and ROC shard frames (src/util/wire.hpp): validate
// the CRC trailer before trusting any field, bounds-check every read
// through a sequential cursor, range-check every enum, and reject trailing
// garbage. A client (or a fuzzer) on the socket
// can produce protocol errors, never undefined behavior — and a torn or
// corrupt frame poisons only its own connection, never the daemon.
//
// Frame layout (all integers little-endian):
//
//   u32 magic   "FMSV"            | u32 version | u32 body_len |
//   body_len bytes of body        | u32 crc32 over magic..body
//
// Body grammar (request and response) is specified normatively in
// docs/FORMATS.md ("serve wire protocol"); this header is the
// implementation. Requests carry (request_id, tenant, deadline_ms, op,
// op-payload); responses echo (request_id, op) and carry a typed status —
// overload, rate-limit, deadline, drain, and validation failures are
// *statuses*, not connection teardowns, so a client can tell "backoff and
// retry" from "your request is wrong".
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/watermark.hpp"

namespace flashmark::serve {

inline constexpr std::uint32_t kFrameMagic = 0x56534D46;  // "FMSV" LE
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Upper bound on a frame body; a header announcing more is rejected before
/// any buffering happens (a hostile peer cannot make the daemon allocate).
inline constexpr std::uint32_t kMaxFrameBody = 1u << 20;
/// Frame header bytes before the body (magic + version + body_len).
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Operations the daemon serves.
enum class Op : std::uint8_t {
  kPing = 1,      ///< liveness probe; payload carries an optional worker
                  ///< delay (test/chaos instrument)
  kEnroll = 2,    ///< imprint a die's watermark (journaled, crash-safe)
  kVerify = 3,    ///< extract + audit one die
  kLotReport = 4, ///< enrollment/verification totals of this daemon
  kStats = 5,     ///< metrics snapshot (CSV) on demand
  kChallenge = 6, ///< challenge-response interrogation of one die (anti-replay)
};

/// Typed response status. Everything except kOk is an error the client can
/// classify: kOverloaded/kRateLimited are retryable after backoff,
/// kDeadlineExceeded may be retried with a larger budget, kShuttingDown
/// means "find another replica", kInvalid/kFailed are terminal for the
/// request. kUnavailable is synthesized client-side for transport failures
/// (it never appears on the wire).
enum class Status : std::uint8_t {
  kOk = 0,
  kOverloaded = 1,
  kRateLimited = 2,
  kDeadlineExceeded = 3,
  kShuttingDown = 4,
  kInvalid = 5,
  kFailed = 6,
  kUnavailable = 7,
};

const char* to_string(Op op);
const char* to_string(Status s);

/// A decoded request.
struct Request {
  std::uint64_t request_id = 0;
  std::uint32_t tenant = 0;
  /// Per-request deadline in milliseconds; 0 = the server default. Clamped
  /// to the server's maximum.
  std::uint32_t deadline_ms = 0;
  Op op = Op::kPing;

  std::uint64_t die = 0;     ///< enroll / verify / challenge
  std::uint32_t npe = 0;     ///< enroll; 0 = server default
  std::uint32_t delay_ms = 0;  ///< ping: cooperative worker delay (chaos/test)
  /// challenge: the query nonce. The server derives the full challenge from
  /// (nonce, tenant) under its keyed policy, so a client cannot choose which
  /// replicas or windows get interrogated — only *when* a fresh query runs.
  std::uint64_t nonce = 0;
};

/// Challenge payload of a kChallenge response: the per-gate outcome plus the
/// derived query echoed back, so a client can audit what was interrogated.
struct ChallengeBody {
  std::uint8_t accepted = 0;
  std::uint8_t subset_genuine = 0;
  std::uint8_t replicas_present = 0;
  std::uint8_t response_consistent = 0;
  std::uint8_t probe_fresh = 0;
  Verdict verdict = Verdict::kUnreadable;
  double subset_zero_fraction = 0.0;
  double response_zero_fraction = 0.0;
  double response_error = 0.0;
  double probe_erased_fraction = 0.0;
  std::uint64_t t_pew_ns = 0;   ///< decode window actually used
  std::uint64_t t_resp_ns = 0;  ///< response window actually used
  std::uint32_t probe_segment = 0;
};

/// Aggregate totals of the kLotReport op.
struct LotReportBody {
  std::uint64_t enrolled = 0;     ///< dies durably enrolled (incl. recovered)
  std::uint64_t verifies = 0;     ///< completed verify requests
  std::uint64_t genuine = 0;
  std::uint64_t no_watermark = 0;
  std::uint64_t tampered = 0;
  std::uint64_t unreadable = 0;
};

/// A decoded response. Which payload section is meaningful follows from
/// (status, op): only kOk responses carry op payloads; every non-kOk status
/// carries at most `message`.
struct Response {
  std::uint64_t request_id = 0;
  Status status = Status::kFailed;
  Op op = Op::kPing;          ///< echoed, so the payload is self-describing
  std::string message;        ///< error detail, or the kStats CSV snapshot

  // enroll payload
  std::uint32_t cycles_run = 0;  ///< cycles executed by this request
  std::uint8_t resumed = 0;      ///< enroll continued an interrupted session

  // verify payload
  Verdict verdict = Verdict::kUnreadable;
  std::optional<WatermarkFields> fields;
  double zero_fraction = 0.0;
  double replica_disagreement = 0.0;
  std::uint64_t extract_ns = 0;   ///< simulated extraction time
  std::uint32_t ecc_corrected = 0;
  std::uint64_t retries = 0;

  // lot-report payload
  LotReportBody lot;

  // challenge payload
  ChallengeBody challenge;
};

/// Encode a full frame (header + body + CRC trailer).
std::string encode_request_frame(const Request& rq);
std::string encode_response_frame(const Response& rs);

/// Decode a validated frame *body* (the FrameParser or decode_frame already
/// checked magic/version/CRC). std::nullopt on any structural defect:
/// truncated field, out-of-range enum, oversize string, trailing garbage.
std::optional<Request> decode_request_body(const std::string& body);
std::optional<Response> decode_response_body(const std::string& body);

/// Incremental frame scanner over a byte stream. Feed bytes as they arrive;
/// next() yields validated frame bodies. A structural violation (bad magic,
/// unknown version, oversize length, CRC mismatch) makes the parser
/// permanently kBad — a stream that lied once cannot be re-synchronized,
/// the connection must be dropped.
class FrameParser {
 public:
  enum class State {
    kNeedMore,  ///< no complete frame buffered yet
    kFrame,     ///< *body was filled with one validated frame body
    kBad,       ///< protocol violation; sticky
  };

  void feed(const char* data, std::size_t n);
  State next(std::string* body);

  /// Bytes buffered but not yet consumed (a nonzero value at EOF means the
  /// peer tore a frame mid-send).
  std::size_t pending() const { return buf_.size(); }
  bool bad() const { return bad_; }

 private:
  std::string buf_;
  bool bad_ = false;
};

}  // namespace flashmark::serve
