#include "flash/geometry.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "param_bytes.hpp"

namespace flashmark {

// Keeps the Families/GeometryFamilies case names stable across builds (see
// param_bytes.hpp). List every FlashGeometry field here.
void PrintTo(const FlashGeometry& g, std::ostream* os) {
  static_assert(sizeof(FlashGeometry) == 64, "FlashGeometry changed: update PrintTo");
  test::print_fields_as_bytes(g, os, g.main_base, g.bank_bytes, g.n_banks, g.main_segment_bytes,
                              g.info_base, g.n_info_segments, g.info_segment_bytes,
                              g.word_bytes);
}

namespace {

class GeometryFamilies : public ::testing::TestWithParam<FlashGeometry> {};

TEST_P(GeometryFamilies, Validates) { EXPECT_NO_THROW(GetParam().validate()); }

TEST_P(GeometryFamilies, SegmentIndexBaseRoundtrip) {
  const FlashGeometry g = GetParam();
  for (std::size_t seg = 0; seg < g.n_segments(); ++seg) {
    const Addr base = g.segment_base(seg);
    EXPECT_EQ(g.segment_index(base), seg);
    // Last byte of the segment still maps to the same segment.
    const Addr last = base + static_cast<Addr>(g.segment_bytes(seg) - 1);
    EXPECT_EQ(g.segment_index(last), seg);
  }
}

TEST_P(GeometryFamilies, SegmentSizes) {
  const FlashGeometry g = GetParam();
  for (std::size_t seg = 0; seg < g.n_main_segments(); ++seg)
    EXPECT_EQ(g.segment_bytes(seg), g.main_segment_bytes);
  for (std::size_t seg = g.n_main_segments(); seg < g.n_segments(); ++seg)
    EXPECT_EQ(g.segment_bytes(seg), g.info_segment_bytes);
}

TEST_P(GeometryFamilies, CellCounts) {
  const FlashGeometry g = GetParam();
  EXPECT_EQ(g.segment_cells(0), g.main_segment_bytes * 8);
  EXPECT_EQ(g.segment_cells(g.n_main_segments()), g.info_segment_bytes * 8);
}

TEST_P(GeometryFamilies, AddressValidity) {
  const FlashGeometry g = GetParam();
  EXPECT_TRUE(g.valid(g.main_base));
  EXPECT_TRUE(g.valid(g.main_end() - 1));
  EXPECT_FALSE(g.valid(g.main_end()));
  EXPECT_TRUE(g.valid(g.info_base));
  EXPECT_FALSE(g.valid(g.info_end()));
  EXPECT_FALSE(g.valid(0));
}

INSTANTIATE_TEST_SUITE_P(Families, GeometryFamilies,
                         ::testing::Values(FlashGeometry::msp430f5438(),
                                           FlashGeometry::msp430f5529()));

TEST(Geometry, F5438Defaults) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  EXPECT_EQ(g.main_bytes(), 256u * 1024);
  EXPECT_EQ(g.n_main_segments(), 512u);
  EXPECT_EQ(g.main_segment_bytes, 512u);
  EXPECT_EQ(g.segment_cells(0), 4096u);  // the paper's 4,096 cells
  EXPECT_EQ(g.bits_per_word(), 16u);
}

TEST(Geometry, F5529Smaller) {
  const FlashGeometry g = FlashGeometry::msp430f5529();
  EXPECT_EQ(g.main_bytes(), 128u * 1024);
  EXPECT_LT(g.n_main_segments(), FlashGeometry::msp430f5438().n_main_segments());
}

TEST(Geometry, BankIndex) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  EXPECT_EQ(g.bank_index(g.main_base), 0u);
  EXPECT_EQ(g.bank_index(g.main_base + 64 * 1024), 1u);
  EXPECT_EQ(g.bank_index(g.main_end() - 1), g.n_banks - 1);
  EXPECT_THROW(g.bank_index(g.info_base), std::out_of_range);
}

TEST(Geometry, SegmentIndexOutsideThrows) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  EXPECT_THROW(g.segment_index(0), std::out_of_range);
  EXPECT_THROW(g.segment_base(g.n_segments()), std::out_of_range);
  EXPECT_THROW(g.segment_bytes(g.n_segments()), std::out_of_range);
}

TEST(Geometry, WordAlignment) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  EXPECT_TRUE(g.word_aligned(g.main_base));
  EXPECT_FALSE(g.word_aligned(g.main_base + 1));
}

TEST(Geometry, InfoSegmentsFollowMainInGlobalIndex) {
  const FlashGeometry g = FlashGeometry::msp430f5438();
  EXPECT_EQ(g.segment_index(g.info_base), g.n_main_segments());
  EXPECT_EQ(g.segment_index(g.info_base +
                            static_cast<Addr>(g.info_segment_bytes)),
            g.n_main_segments() + 1);
}

TEST(Geometry, ValidationCatchesBadConfigs) {
  FlashGeometry g = FlashGeometry::msp430f5438();
  g.word_bytes = 0;
  EXPECT_THROW(g.validate(), std::invalid_argument);

  g = FlashGeometry::msp430f5438();
  g.main_segment_bytes = 500;  // not a multiple of bank
  EXPECT_THROW(g.validate(), std::invalid_argument);

  g = FlashGeometry::msp430f5438();
  g.n_banks = 0;
  EXPECT_THROW(g.validate(), std::invalid_argument);

  g = FlashGeometry::msp430f5438();
  g.info_base = g.main_base;  // overlap
  EXPECT_THROW(g.validate(), std::invalid_argument);
}

TEST(Geometry, DescribeMentionsLayout) {
  const std::string d = FlashGeometry::msp430f5438().describe();
  EXPECT_NE(d.find("256KiB"), std::string::npos);
  EXPECT_NE(d.find("512B"), std::string::npos);
}

}  // namespace
}  // namespace flashmark
