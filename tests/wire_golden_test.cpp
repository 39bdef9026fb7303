// Golden wire bytes: the byte layout of every frame this repo puts on a
// pipe or a socket, pinned as literal hex.
//
// Round-trip tests cannot catch an encoder and a decoder that drift
// together; these can. Each case encodes a hand-built value and compares it
// with hex captured from the codec as it shipped, then decodes the literal
// bytes (not the encoder's output) and checks the fields, so a drift on
// either side fails here. The hex is the oracle: this file deliberately uses
// no shared codec helper.
//
// Covered: one serve request frame per Op, a kOk verify response with
// fields, an error response, a lot shard frame ("FMLT") and a ROC shard
// frame ("FMRC").
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "lot/lot_internal.hpp"
#include "scenario/roc_internal.hpp"
#include "serve/protocol.hpp"

namespace flashmark {
namespace {

std::string to_hex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::string from_hex(const std::string& hex) {
  std::string out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2)
    out += static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16));
  return out;
}

/// Hex of `n` zero bytes (the long empty runs of a histogram frame).
std::string zeros(std::size_t n) { return std::string(2 * n, '0'); }

/// Body of a serve frame (the parser validates magic, version and CRC).
std::string serve_body(const std::string& frame) {
  serve::FrameParser p;
  p.feed(frame.data(), frame.size());
  std::string body;
  EXPECT_EQ(p.next(&body), serve::FrameParser::State::kFrame);
  EXPECT_EQ(p.pending(), 0u);
  return body;
}

// ---------------------------------------------------------------------------
// serve: one request frame per Op.

serve::Request request(serve::Op op) {
  serve::Request rq;
  rq.request_id = 0x0102030405060708ull;
  rq.tenant = 7;
  rq.deadline_ms = 250;
  rq.op = op;
  return rq;
}

struct RequestCase {
  serve::Request rq;
  const char* hex;
};

std::vector<RequestCase> request_cases() {
  serve::Request ping = request(serve::Op::kPing);
  ping.delay_ms = 3;
  serve::Request enroll = request(serve::Op::kEnroll);
  enroll.die = 77;
  enroll.npe = 40'000;
  serve::Request verify = request(serve::Op::kVerify);
  verify.die = 0x1122334455ull;
  serve::Request challenge = request(serve::Op::kChallenge);
  challenge.die = 9;
  challenge.nonce = 0xA5A5'0000'5A5A'FFFFull;
  return {
      {ping,
       "464d53560100000015000000080706050403020107000000fa00000001030000"
       "00312d1cfe"},
      {enroll,
       "464d5356010000001d000000080706050403020107000000fa000000024d0000"
       "0000000000409c00005a685f66"},
      {verify,
       "464d53560100000019000000080706050403020107000000fa00000003554433"
       "22110000006e0a37c0"},
      {request(serve::Op::kLotReport),
       "464d53560100000011000000080706050403020107000000fa000000047dc627"
       "38"},
      {request(serve::Op::kStats),
       "464d53560100000011000000080706050403020107000000fa00000005ebf620"
       "4f"},
      {challenge,
       "464d53560100000021000000080706050403020107000000fa00000006090000"
       "0000000000ffff5a5a0000a5a543ddc6d8"},
  };
}

TEST(WireGolden, ServeRequestFramePerOp) {
  for (const RequestCase& c : request_cases()) {
    const std::string frame = serve::encode_request_frame(c.rq);
    EXPECT_EQ(to_hex(frame), c.hex) << serve::to_string(c.rq.op);

    const auto got = serve::decode_request_body(serve_body(from_hex(c.hex)));
    if (!got.has_value()) {
      ADD_FAILURE() << "golden bytes do not decode: "
                    << serve::to_string(c.rq.op);
      continue;
    }
    EXPECT_EQ(got->request_id, c.rq.request_id);
    EXPECT_EQ(got->tenant, c.rq.tenant);
    EXPECT_EQ(got->deadline_ms, c.rq.deadline_ms);
    EXPECT_EQ(got->op, c.rq.op);
    EXPECT_EQ(got->die, c.rq.die);
    EXPECT_EQ(got->npe, c.rq.npe);
    EXPECT_EQ(got->delay_ms, c.rq.delay_ms);
    EXPECT_EQ(got->nonce, c.rq.nonce);
  }
}

// ---------------------------------------------------------------------------
// serve: a kOk verify response with fields, and an error response.

TEST(WireGolden, ServeVerifyResponseWithFields) {
  serve::Response rs;
  rs.request_id = 42;
  rs.status = serve::Status::kOk;
  rs.op = serve::Op::kVerify;
  rs.verdict = Verdict::kGenuine;
  WatermarkFields f;
  f.manufacturer_id = 0x7C01;
  f.die_id = 0xDEADBEEF;
  f.speed_grade = 3;
  f.status = TestStatus::kAccept;
  f.date_code = (24 << 6) | 17;
  rs.fields = f;
  rs.zero_fraction = 0.25;
  rs.replica_disagreement = 0.125;
  rs.extract_ns = 123'456'789;
  rs.ecc_corrected = 2;
  rs.retries = 1;

  const char* kHex =
      "464d5356010000003e0000002a000000000000000003000000000001017cefbe"
      "adde03011106000000000000d03f000000000000c03f15cd5b07000000000200"
      "00000100000000000000feccdee5";
  EXPECT_EQ(to_hex(serve::encode_response_frame(rs)), kHex);

  const auto got = serve::decode_response_body(serve_body(from_hex(kHex)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->request_id, 42u);
  EXPECT_EQ(got->status, serve::Status::kOk);
  EXPECT_EQ(got->op, serve::Op::kVerify);
  EXPECT_EQ(got->verdict, Verdict::kGenuine);
  ASSERT_TRUE(got->fields.has_value());
  EXPECT_EQ(*got->fields, f);
  EXPECT_EQ(got->zero_fraction, 0.25);
  EXPECT_EQ(got->replica_disagreement, 0.125);
  EXPECT_EQ(got->extract_ns, 123'456'789u);
  EXPECT_EQ(got->ecc_corrected, 2u);
  EXPECT_EQ(got->retries, 1u);
}

TEST(WireGolden, ServeErrorResponse) {
  serve::Response rs;
  rs.request_id = 0xFFFF'FFFF'0000'0001ull;
  rs.status = serve::Status::kOverloaded;
  rs.op = serve::Op::kVerify;
  rs.message = "queue full";

  const char* kHex =
      "464d5356010000001800000001000000ffffffff01030a000000717565756520"
      "66756c6cf442aabf";
  EXPECT_EQ(to_hex(serve::encode_response_frame(rs)), kHex);

  const auto got = serve::decode_response_body(serve_body(from_hex(kHex)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->request_id, rs.request_id);
  EXPECT_EQ(got->status, serve::Status::kOverloaded);
  EXPECT_EQ(got->op, serve::Op::kVerify);
  EXPECT_EQ(got->message, "queue full");
}

// ---------------------------------------------------------------------------
// lot: a hand-built shard outcome for dies [2, 5) of a 1 x 2 cell grid.

TEST(WireGolden, LotShardFrame) {
  lot::LotConfig cfg;
  cfg.n_dies = 8;
  cfg.npe_points = {2'000};
  cfg.conditions = {{25.0, 0.0}, {70.0, 1'000.0}};

  lot::internal::ShardOutcome out;
  out.cells.resize(2);
  out.cells[0].point_idx = 0;
  out.cells[0].cond_idx = 0;
  out.cells[0].n = 2;
  out.cells[0].detected = 1;
  out.cells[0].failed = 1;
  out.cells[0].raw_err = 5;
  out.cells[0].raw_err_sq = 25;
  out.cells[0].vote_err = 1;
  out.cells[0].vote_err_sq = 1;
  out.cells[0].raw_bits_per_die = 4096;
  out.cells[0].vote_bits_per_die = 80;
  out.cells[1].point_idx = 0;
  out.cells[1].cond_idx = 1;
  out.cells[1].n = 1;
  out.cells[1].detected = 1;
  out.cells[1].raw_bits_per_die = 4096;
  out.cells[1].vote_bits_per_die = 80;
  out.fleet.wall_ms = 12.5;
  out.fleet.cpu_ms = 20.25;
  out.fleet.threads_used = 2;
  out.die_wall_ms = RunningStats::from_parts(3, 1.5, 0.5, 1.0, 2.0);
  fleet::DieCounters row;
  row.die = 3;
  row.wall_ms = 1.75;
  row.pe_cycles = 6'000.0;
  row.sim_time = SimTime::ns(987'654'321);
  row.erase_ops = 11;
  row.program_ops = 12;
  row.read_ops = 13;
  row.faults_injected = 1;
  row.retries = 2;
  row.ecc_corrected = 3;
  row.health = fleet::DieHealth::kFailed;
  row.reason = fleet::FailureReason::kPowerLoss;
  row.failed = true;
  row.error = "boom";
  out.fleet.dies.push_back(row);

  const char* kHex =
      "464d4c5401000000020000000000000005000000000000000000000000002940"
      "0000000000403440020000000200000000000000000000000000000002000000"
      "0000000001000000000000000100000000000000050000000000000019000000"
      "0000000001000000000000000100000000000000001000000000000050000000"
      "0000000000000000010000000100000000000000010000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "0000000000100000000000005000000000000000030000000000000000000000"
      "0000f83f000000000000e03f000000000000f03f000000000000004001000000"
      "000000000300000000000000000000000000fc3f000000000070b740b168de3a"
      "000000000b000000000000000c000000000000000d0000000000000001000000"
      "000000000200000000000000030000000000000002010104000000626f6f6d42"
      "53c528";
  EXPECT_EQ(to_hex(lot::internal::serialize_shard(out, 2, 5)), kHex);

  const auto got =
      lot::internal::deserialize_shard(from_hex(kHex), cfg, 2, 5);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->cells.size(), 2u);
  EXPECT_EQ(got->cells[0].n, 2u);
  EXPECT_EQ(got->cells[0].raw_err_sq, 25u);
  EXPECT_EQ(got->cells[1].cond_idx, 1u);
  EXPECT_EQ(got->cells[1].vote_bits_per_die, 80u);
  EXPECT_EQ(got->fleet.wall_ms, 12.5);
  EXPECT_EQ(got->fleet.cpu_ms, 20.25);
  EXPECT_EQ(got->fleet.threads_used, 2u);
  EXPECT_EQ(got->die_wall_ms.count(), 3u);
  EXPECT_EQ(got->die_wall_ms.m2(), 0.5);
  ASSERT_EQ(got->fleet.dies.size(), 1u);
  const fleet::DieCounters& r = got->fleet.dies[0];
  EXPECT_EQ(r.die, 3u);
  EXPECT_EQ(r.pe_cycles, 6'000.0);
  EXPECT_EQ(r.sim_time.as_ns(), 987'654'321);
  EXPECT_EQ(r.read_ops, 13u);
  EXPECT_EQ(r.ecc_corrected, 3u);
  EXPECT_EQ(r.health, fleet::DieHealth::kFailed);
  EXPECT_EQ(r.reason, fleet::FailureReason::kPowerLoss);
  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.error, "boom");
}

// ---------------------------------------------------------------------------
// ROC: a hand-built two-population histogram frame for dies [4, 9).

TEST(WireGolden, RocShardFrame) {
  std::vector<scenario::ScoreHistogram> hists(2);
  hists[0].counts[0] = 1;
  hists[0].counts[200] = 2;
  hists[0].n = 3;
  hists[0].queries = 12;
  hists[0].queries_passed = 11;
  hists[1].counts[255] = 2;
  hists[1].n = 2;
  hists[1].queries = 8;
  hists[1].queries_passed = 0;

  // magic "FMRC", version 1, begin 4, end 9, 2 populations; then per
  // population n, queries, queries_passed and 256 u64 bins; CRC-32.
  const std::string kHex =
      std::string("464d5243" "01000000" "0400000000000000"
                  "0900000000000000" "02000000") +
      "0300000000000000" "0c00000000000000" "0b00000000000000" +
      "0100000000000000" + zeros(199 * 8) + "0200000000000000" +
      zeros(55 * 8) +
      "0200000000000000" "0800000000000000" "0000000000000000" +
      zeros(255 * 8) + "0200000000000000" +
      "d906b8d2";
  EXPECT_EQ(to_hex(scenario::internal::serialize_shard(hists, 4, 9)), kHex);

  const auto got =
      scenario::internal::deserialize_shard(from_hex(kHex), 4, 9, 2);
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].counts, hists[0].counts);
  EXPECT_EQ((*got)[0].n, 3u);
  EXPECT_EQ((*got)[0].queries, 12u);
  EXPECT_EQ((*got)[0].queries_passed, 11u);
  EXPECT_EQ((*got)[1].counts, hists[1].counts);
  EXPECT_EQ((*got)[1].queries, 8u);
}

}  // namespace
}  // namespace flashmark
