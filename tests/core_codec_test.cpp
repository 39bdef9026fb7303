#include "core/codec.hpp"

#include <gtest/gtest.h>

#include "param_bytes.hpp"

namespace flashmark {

// Keeps the Values/CodecFieldSweep case names stable across builds (see
// param_bytes.hpp). List every WatermarkFields field here.
void PrintTo(const WatermarkFields& f, std::ostream* os) {
  static_assert(sizeof(WatermarkFields) == 12, "WatermarkFields changed: update PrintTo");
  test::print_fields_as_bytes(f, os, f.manufacturer_id, f.die_id, f.speed_grade, f.status,
                              f.date_code);
}

namespace {

WatermarkFields sample_fields() {
  return WatermarkFields{0x7C01, 0xDEADBEEF, 7, TestStatus::kAccept, 0x3FF};
}

TEST(Codec, PackUnpackRoundtrip) {
  const WatermarkFields f = sample_fields();
  const BitVec bits = pack_fields(f);
  EXPECT_EQ(bits.size(), kFieldsBits);
  const auto back = unpack_fields(bits);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

class CodecFieldSweep : public ::testing::TestWithParam<WatermarkFields> {};

TEST_P(CodecFieldSweep, Roundtrips) {
  const auto back = unpack_fields(pack_fields(GetParam()));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    Values, CodecFieldSweep,
    ::testing::Values(
        WatermarkFields{0, 0, 0, TestStatus::kReject, 0},
        WatermarkFields{0xFFFF, 0xFFFFFFFF, 15, TestStatus::kAccept, 0x7FF},
        WatermarkFields{1, 2, 3, TestStatus::kReject, 4},
        WatermarkFields{0x8000, 0x80000000, 8, TestStatus::kAccept, 0x400},
        WatermarkFields{42, 424242, 1, TestStatus::kReject, 0x123}));

TEST(Codec, PackRejectsOverflowingFields) {
  WatermarkFields f = sample_fields();
  f.speed_grade = 16;
  EXPECT_THROW(pack_fields(f), std::invalid_argument);
  f = sample_fields();
  f.date_code = 0x800;
  EXPECT_THROW(pack_fields(f), std::invalid_argument);
}

TEST(Codec, UnpackRejectsWrongSize) {
  EXPECT_FALSE(unpack_fields(BitVec(79)).has_value());
  EXPECT_FALSE(unpack_fields(BitVec(81)).has_value());
}

TEST(Codec, CrcCatchesEveryPayloadBitFlip) {
  const BitVec bits = pack_fields(sample_fields());
  for (std::size_t i = 0; i < kFieldsBits; ++i) {
    BitVec corrupted = bits;
    corrupted.flip(i);
    const auto back = unpack_fields(corrupted);
    // Either the CRC rejects it, or (for CRC-bit flips) never: any single
    // bit flip anywhere in the 80 bits must invalidate the stream.
    EXPECT_FALSE(back.has_value()) << "bit " << i;
  }
}

TEST(Codec, StatusToString) {
  EXPECT_STREQ(to_string(TestStatus::kAccept), "accept");
  EXPECT_STREQ(to_string(TestStatus::kReject), "reject");
}

TEST(Codec, DualRailEncodeShapes) {
  const BitVec p = BitVec::from_string("0110");
  const BitVec e = dual_rail_encode(p);
  EXPECT_EQ(e.to_string(), "01101001");
  EXPECT_TRUE(is_balanced(e));
}

TEST(Codec, DualRailAlwaysBalanced) {
  const BitVec all0 = dual_rail_encode(BitVec(33));
  const BitVec all1 = dual_rail_encode(BitVec(33, true));
  EXPECT_TRUE(is_balanced(all0));
  EXPECT_TRUE(is_balanced(all1));
}

TEST(Codec, DualRailDecodeClean) {
  const BitVec p = BitVec::from_string("010011101");
  const DualRailDecode d = dual_rail_decode(dual_rail_encode(p));
  EXPECT_TRUE(d.clean());
  EXPECT_EQ(d.payload, p);
  EXPECT_EQ(d.invalid_00, 0u);
  EXPECT_EQ(d.invalid_11, 0u);
}

TEST(Codec, DualRailDecodeCountsInvalidPairs) {
  BitVec e = dual_rail_encode(BitVec::from_string("0101"));
  // Pair 0 is (0,1); force (0,0): a stress-attack signature.
  e.set(1, false);
  // Pair 1 is (1,0); force (1,1): an extraction erasure.
  e.set(3, true);
  const DualRailDecode d = dual_rail_decode(e);
  EXPECT_EQ(d.invalid_00, 1u);
  EXPECT_EQ(d.invalid_11, 1u);
  EXPECT_FALSE(d.clean());
}

TEST(Codec, DualRailDecodeOddLengthThrows) {
  EXPECT_THROW(dual_rail_decode(BitVec(7)), std::invalid_argument);
}

TEST(Codec, StressAttackOnDualRailIsAlwaysVisible) {
  // Physics: an attacker can only flip 1 -> 0. Whichever rail of a pair
  // carries the 1, flipping it yields (0,0) — never a valid different pair.
  const BitVec p = BitVec::from_string("01");
  BitVec e = dual_rail_encode(p);  // 01 10
  for (std::size_t i = 0; i < e.size(); ++i) {
    if (!e.get(i)) continue;
    BitVec attacked = e;
    attacked.set(i, false);
    const DualRailDecode d = dual_rail_decode(attacked);
    EXPECT_GT(d.invalid_00, 0u) << "flipping encoded bit " << i;
  }
}

TEST(Codec, IsBalancedEdgeCases) {
  EXPECT_TRUE(is_balanced(BitVec::from_string("01")));
  EXPECT_FALSE(is_balanced(BitVec::from_string("0")));   // odd length
  EXPECT_FALSE(is_balanced(BitVec::from_string("11")));
  EXPECT_TRUE(is_balanced(BitVec::from_string("1100")));
}

TEST(Codec, AsciiWatermarkPaperExample) {
  // Fig. 6: "TC" = 0101 0100 0100 0011.
  EXPECT_EQ(ascii_watermark("TC").to_string(), "0101010001000011");
  EXPECT_EQ(watermark_ascii(ascii_watermark("TC")), "TC");
}

}  // namespace
}  // namespace flashmark
