#include "serve/protocol.hpp"

#include <string_view>

#include "util/wire.hpp"

namespace flashmark::serve {

namespace {

constexpr std::size_t kMaxMessage = 1u << 16;  // error text / stats CSV cap

std::string frame(const std::string& body) {
  wire::Writer w;
  w.u32(kFrameMagic);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(body.size()));
  w.bytes(body);
  w.append_crc32();
  return w.take();
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kPing: return "ping";
    case Op::kEnroll: return "enroll";
    case Op::kVerify: return "verify";
    case Op::kLotReport: return "lot-report";
    case Op::kStats: return "stats";
    case Op::kChallenge: return "challenge";
  }
  return "?";
}

const char* to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverloaded: return "overloaded";
    case Status::kRateLimited: return "rate-limited";
    case Status::kDeadlineExceeded: return "deadline-exceeded";
    case Status::kShuttingDown: return "shutting-down";
    case Status::kInvalid: return "invalid";
    case Status::kFailed: return "failed";
    case Status::kUnavailable: return "unavailable";
  }
  return "?";
}

std::string encode_request_frame(const Request& rq) {
  wire::Writer b;
  b.u64(rq.request_id);
  b.u32(rq.tenant);
  b.u32(rq.deadline_ms);
  b.u8(static_cast<std::uint8_t>(rq.op));
  switch (rq.op) {
    case Op::kPing:
      b.u32(rq.delay_ms);
      break;
    case Op::kEnroll:
      b.u64(rq.die);
      b.u32(rq.npe);
      break;
    case Op::kVerify:
      b.u64(rq.die);
      break;
    case Op::kChallenge:
      b.u64(rq.die);
      b.u64(rq.nonce);
      break;
    case Op::kLotReport:
    case Op::kStats:
      break;
  }
  return frame(b.take());
}

std::string encode_response_frame(const Response& rs) {
  wire::Writer b;
  b.u64(rs.request_id);
  b.u8(static_cast<std::uint8_t>(rs.status));
  b.u8(static_cast<std::uint8_t>(rs.op));
  b.str(std::string_view(rs.message).substr(0, kMaxMessage));
  if (rs.status == Status::kOk) {
    switch (rs.op) {
      case Op::kPing:
      case Op::kStats:
        break;
      case Op::kEnroll:
        b.u32(rs.cycles_run);
        b.u8(rs.resumed);
        break;
      case Op::kVerify: {
        b.u8(static_cast<std::uint8_t>(rs.verdict));
        b.u8(rs.fields ? 1 : 0);
        if (rs.fields) {
          b.u16(rs.fields->manufacturer_id);
          b.u32(rs.fields->die_id);
          b.u8(rs.fields->speed_grade);
          b.u8(static_cast<std::uint8_t>(rs.fields->status));
          b.u16(rs.fields->date_code);
        }
        b.f64(rs.zero_fraction);
        b.f64(rs.replica_disagreement);
        b.u64(rs.extract_ns);
        b.u32(rs.ecc_corrected);
        b.u64(rs.retries);
        break;
      }
      case Op::kLotReport:
        b.u64(rs.lot.enrolled);
        b.u64(rs.lot.verifies);
        b.u64(rs.lot.genuine);
        b.u64(rs.lot.no_watermark);
        b.u64(rs.lot.tampered);
        b.u64(rs.lot.unreadable);
        break;
      case Op::kChallenge:
        b.u8(rs.challenge.accepted);
        b.u8(rs.challenge.subset_genuine);
        b.u8(rs.challenge.replicas_present);
        b.u8(rs.challenge.response_consistent);
        b.u8(rs.challenge.probe_fresh);
        b.u8(static_cast<std::uint8_t>(rs.challenge.verdict));
        b.f64(rs.challenge.subset_zero_fraction);
        b.f64(rs.challenge.response_zero_fraction);
        b.f64(rs.challenge.response_error);
        b.f64(rs.challenge.probe_erased_fraction);
        b.u64(rs.challenge.t_pew_ns);
        b.u64(rs.challenge.t_resp_ns);
        b.u32(rs.challenge.probe_segment);
        break;
    }
  }
  return frame(b.take());
}

std::optional<Request> decode_request_body(const std::string& body) {
  wire::Reader r(body);
  Request rq;
  std::uint8_t op = 0;
  if (!r.u64(&rq.request_id) || !r.u32(&rq.tenant) ||
      !r.u32(&rq.deadline_ms) || !r.u8(&op))
    return std::nullopt;
  if (op < static_cast<std::uint8_t>(Op::kPing) ||
      op > static_cast<std::uint8_t>(Op::kChallenge))
    return std::nullopt;
  rq.op = static_cast<Op>(op);
  switch (rq.op) {
    case Op::kPing:
      if (!r.u32(&rq.delay_ms)) return std::nullopt;
      break;
    case Op::kEnroll:
      if (!r.u64(&rq.die) || !r.u32(&rq.npe)) return std::nullopt;
      break;
    case Op::kVerify:
      if (!r.u64(&rq.die)) return std::nullopt;
      break;
    case Op::kChallenge:
      if (!r.u64(&rq.die) || !r.u64(&rq.nonce)) return std::nullopt;
      break;
    case Op::kLotReport:
    case Op::kStats:
      break;
  }
  if (!r.at_end()) return std::nullopt;  // trailing garbage
  return rq;
}

std::optional<Response> decode_response_body(const std::string& body) {
  wire::Reader r(body);
  Response rs;
  std::uint8_t status = 0, op = 0;
  if (!r.u64(&rs.request_id) || !r.u8(&status) || !r.u8(&op))
    return std::nullopt;
  if (status > static_cast<std::uint8_t>(Status::kUnavailable))
    return std::nullopt;
  if (op < static_cast<std::uint8_t>(Op::kPing) ||
      op > static_cast<std::uint8_t>(Op::kChallenge))
    return std::nullopt;
  rs.status = static_cast<Status>(status);
  rs.op = static_cast<Op>(op);
  if (!r.str(&rs.message, kMaxMessage)) return std::nullopt;
  if (rs.status == Status::kOk) {
    switch (rs.op) {
      case Op::kPing:
      case Op::kStats:
        break;
      case Op::kEnroll:
        if (!r.u32(&rs.cycles_run) || !r.u8(&rs.resumed)) return std::nullopt;
        break;
      case Op::kVerify: {
        std::uint8_t verdict = 0, has_fields = 0;
        if (!r.u8(&verdict) ||
            verdict > static_cast<std::uint8_t>(Verdict::kUnreadable) ||
            !r.u8(&has_fields) || has_fields > 1)
          return std::nullopt;
        rs.verdict = static_cast<Verdict>(verdict);
        if (has_fields) {
          WatermarkFields f;
          std::uint8_t test_status = 0;
          if (!r.u16(&f.manufacturer_id) || !r.u32(&f.die_id) ||
              !r.u8(&f.speed_grade) || !r.u8(&test_status) ||
              test_status > 1 || !r.u16(&f.date_code))
            return std::nullopt;
          f.status = static_cast<TestStatus>(test_status);
          rs.fields = f;
        }
        std::uint32_t ecc = 0;
        if (!r.f64(&rs.zero_fraction) || !r.f64(&rs.replica_disagreement) ||
            !r.u64(&rs.extract_ns) || !r.u32(&ecc) || !r.u64(&rs.retries))
          return std::nullopt;
        rs.ecc_corrected = ecc;
        break;
      }
      case Op::kLotReport:
        if (!r.u64(&rs.lot.enrolled) || !r.u64(&rs.lot.verifies) ||
            !r.u64(&rs.lot.genuine) || !r.u64(&rs.lot.no_watermark) ||
            !r.u64(&rs.lot.tampered) || !r.u64(&rs.lot.unreadable))
          return std::nullopt;
        break;
      case Op::kChallenge: {
        auto flag = [&r](std::uint8_t* v) { return r.u8(v) && *v <= 1; };
        std::uint8_t verdict = 0;
        if (!flag(&rs.challenge.accepted) ||
            !flag(&rs.challenge.subset_genuine) ||
            !flag(&rs.challenge.replicas_present) ||
            !flag(&rs.challenge.response_consistent) ||
            !flag(&rs.challenge.probe_fresh) || !r.u8(&verdict) ||
            verdict > static_cast<std::uint8_t>(Verdict::kUnreadable))
          return std::nullopt;
        rs.challenge.verdict = static_cast<Verdict>(verdict);
        if (!r.f64(&rs.challenge.subset_zero_fraction) ||
            !r.f64(&rs.challenge.response_zero_fraction) ||
            !r.f64(&rs.challenge.response_error) ||
            !r.f64(&rs.challenge.probe_erased_fraction) ||
            !r.u64(&rs.challenge.t_pew_ns) ||
            !r.u64(&rs.challenge.t_resp_ns) ||
            !r.u32(&rs.challenge.probe_segment))
          return std::nullopt;
        break;
      }
    }
  }
  if (!r.at_end()) return std::nullopt;  // trailing garbage
  return rs;
}

void FrameParser::feed(const char* data, std::size_t n) {
  if (bad_) return;
  buf_.append(data, n);
}

FrameParser::State FrameParser::next(std::string* body) {
  if (bad_) return State::kBad;
  wire::Reader r(buf_);
  std::uint32_t magic = 0, version = 0, body_len = 0;
  if (buf_.size() < kFrameHeaderBytes) {
    // Reject a hostile prefix as soon as the bytes prove it, not only once
    // a full (possibly huge) header has been buffered.
    if (r.u32(&magic) && magic != kFrameMagic) {
      bad_ = true;
      return State::kBad;
    }
    return State::kNeedMore;
  }
  if (!r.u32(&magic) || magic != kFrameMagic || !r.u32(&version) ||
      version != kProtocolVersion || !r.u32(&body_len) ||
      body_len > kMaxFrameBody) {
    bad_ = true;
    return State::kBad;
  }
  const std::size_t total = kFrameHeaderBytes + body_len + 4;
  if (buf_.size() < total) return State::kNeedMore;
  // CRC-first: nothing inside the body is interpreted until the trailer
  // proves the bytes arrived intact.
  const std::optional<std::string_view> checked =
      wire::crc_checked_body(std::string_view(buf_).substr(0, total));
  if (!checked) {
    bad_ = true;
    return State::kBad;
  }
  body->assign(checked->substr(kFrameHeaderBytes));
  buf_.erase(0, total);
  return State::kFrame;
}

}  // namespace flashmark::serve
