// util/wire: the shared little-endian codec. Layout is checked against
// hand-written bytes (not the codec itself), and the decoding side against
// hostile input: every truncation of a valid frame, a string length of
// 0xFFFFFFFF, and corrupt shard envelopes. Under ASan an out-of-bounds read
// here fails loudly.
#include "util/wire.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "util/crc.hpp"

namespace flashmark {
namespace {

std::string bytes_of(std::initializer_list<int> v) {
  std::string s;
  for (const int b : v) s += static_cast<char>(b);
  return s;
}

TEST(WireCodec, FixedOffsetFormIsLittleEndian) {
  std::uint8_t buf[12] = {};
  wire::store_u32(buf, 0x11223344u);
  wire::store_u64(buf + 4, 0x0102030405060708ull);
  const std::uint8_t want[12] = {0x44, 0x33, 0x22, 0x11, 0x08, 0x07,
                                 0x06, 0x05, 0x04, 0x03, 0x02, 0x01};
  for (int i = 0; i < 12; ++i) EXPECT_EQ(buf[i], want[i]) << i;
  EXPECT_EQ(wire::load_u32(buf), 0x11223344u);
  EXPECT_EQ(wire::load_u64(buf + 4), 0x0102030405060708ull);
}

TEST(WireCodec, WriterLayoutMatchesHandWrittenBytes) {
  wire::Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x1122334455667788ull);
  w.f64(1.0);  // IEEE-754: 0x3FF0000000000000
  w.str("hi");
  w.bytes("xy");
  const std::string body = w.take();
  EXPECT_EQ(body, bytes_of({0xAB, 0x34, 0x12, 0xEF, 0xBE, 0xAD, 0xDE, 0x88,
                            0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11, 0x00,
                            0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F, 0x02,
                            0x00, 0x00, 0x00, 'h', 'i', 'x', 'y'}));

  wire::Writer sealed;
  sealed.bytes("123456789");
  sealed.append_crc32();  // CRC-32 check value 0xCBF43926, little-endian
  EXPECT_EQ(sealed.take(), "123456789" + bytes_of({0x26, 0x39, 0xF4, 0xCB}));
}

/// A valid frame: every field type, a string, and a CRC trailer.
std::string sample_frame() {
  wire::Writer w = wire::shard_frame_writer(0x54534554, 3, 10, 20);
  w.u8(7);
  w.u16(0xBEEF);
  w.u32(42);
  w.u64(1ull << 40);
  w.f64(-2.5);
  w.str("payload");
  w.append_crc32();
  return w.take();
}

/// Read every field of sample_frame's payload; false at the first failure.
bool read_payload(wire::Reader& r) {
  std::uint8_t a;
  std::uint16_t b;
  std::uint32_t c;
  std::uint64_t d;
  double e;
  std::string f;
  return r.u8(&a) && a == 7 && r.u16(&b) && b == 0xBEEF && r.u32(&c) &&
         c == 42 && r.u64(&d) && d == (1ull << 40) && r.f64(&e) &&
         e == -2.5 && r.str(&f, 64) && f == "payload" && r.at_end();
}

TEST(WireCodec, ShardEnvelopeRoundTrips) {
  const std::string frame = sample_frame();
  auto r = wire::open_shard_frame(frame, 0x54534554, 3, 10, 20);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->pos(), 24u);  // magic, version, begin, end
  EXPECT_TRUE(read_payload(*r));

  // Wrong magic, version or range echo.
  EXPECT_FALSE(wire::open_shard_frame(frame, 0x54534555, 3, 10, 20));
  EXPECT_FALSE(wire::open_shard_frame(frame, 0x54534554, 4, 10, 20));
  EXPECT_FALSE(wire::open_shard_frame(frame, 0x54534554, 3, 10, 21));
  EXPECT_FALSE(wire::open_shard_frame(frame, 0x54534554, 3, 0, 20));
  // Any flipped bit fails the CRC before a field is read.
  for (std::size_t i = 0; i < frame.size(); ++i) {
    std::string bad = frame;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    EXPECT_FALSE(wire::crc_checked_body(bad)) << i;
    EXPECT_FALSE(wire::open_shard_frame(bad, 0x54534554, 3, 10, 20)) << i;
  }
}

/// The first `n` bytes of `s` in an exact-size heap block, so ASan flags
/// any read past them (a std::string's inline buffer would hide it).
struct HeapPrefix {
  std::unique_ptr<char[]> buf;
  std::string_view view;
  HeapPrefix(const std::string& s, std::size_t n) : buf(new char[n]) {
    std::memcpy(buf.get(), s.data(), n);
    view = std::string_view(buf.get(), n);
  }
};

TEST(WireCodec, EveryTruncationIsRejectedWithoutOverreading) {
  const std::string frame = sample_frame();
  const std::string body = frame.substr(0, frame.size() - 4);
  for (std::size_t n = 0; n < frame.size(); ++n) {
    const HeapPrefix prefix(frame, n);
    EXPECT_FALSE(wire::crc_checked_body(prefix.view)) << n;
    EXPECT_FALSE(wire::open_shard_frame(prefix.view, 0x54534554, 3, 10, 20))
        << n;
  }
  for (std::size_t n = 0; n < body.size(); ++n) {
    const HeapPrefix prefix(body, n);
    wire::Reader r(prefix.view);
    std::uint32_t magic, version;
    std::uint64_t begin, end;
    const bool header = r.u32(&magic) && r.u32(&version) && r.u64(&begin) &&
                        r.u64(&end);
    EXPECT_FALSE(header && read_payload(r)) << n;
    EXPECT_LE(r.pos(), n) << n;
  }
  wire::Reader full(body);
  std::uint32_t u;
  std::uint64_t v;
  ASSERT_TRUE(full.u32(&u) && full.u32(&u) && full.u64(&v) && full.u64(&v));
  EXPECT_TRUE(read_payload(full));
}

TEST(WireCodec, FailedReadsConsumeNothing) {
  const std::string three = bytes_of({1, 2, 3});
  wire::Reader r(three);
  std::uint32_t u32 = 0xAAAAAAAA;
  std::uint64_t u64 = 0;
  double f = 0.0;
  EXPECT_FALSE(r.u32(&u32));
  EXPECT_EQ(u32, 0xAAAAAAAAu);  // output untouched
  EXPECT_FALSE(r.u64(&u64));
  EXPECT_FALSE(r.f64(&f));
  EXPECT_EQ(r.pos(), 0u);
  std::uint16_t u16 = 0;
  EXPECT_TRUE(r.u16(&u16));
  EXPECT_EQ(u16, 0x0201);
  EXPECT_FALSE(r.u16(&u16));
  std::uint8_t u8 = 0;
  EXPECT_TRUE(r.u8(&u8));
  EXPECT_EQ(u8, 3);
  EXPECT_TRUE(r.at_end());
  EXPECT_FALSE(r.u8(&u8));
}

TEST(WireCodec, HostileStringLengthsAreRejected) {
  // Length 0xFFFFFFFF with a few bytes behind it: must not wrap the bounds
  // check, allocate, or read past the buffer.
  const std::string huge = bytes_of({0xFF, 0xFF, 0xFF, 0xFF, 'a', 'b'});
  std::string out = "unchanged";
  wire::Reader r(huge);
  EXPECT_FALSE(r.str(&out, ~std::size_t{0}));
  EXPECT_EQ(out, "unchanged");
  EXPECT_EQ(r.pos(), 0u);  // the length word is not consumed either

  // A length within the buffer but over the caller's cap.
  const std::string capped = bytes_of({3, 0, 0, 0, 'a', 'b', 'c'});
  wire::Reader rc(capped);
  EXPECT_FALSE(rc.str(&out, 2));
  EXPECT_TRUE(rc.str(&out, 3));
  EXPECT_EQ(out, "abc");
  EXPECT_TRUE(rc.at_end());

  // One byte short of the announced length.
  const std::string short_by_one = bytes_of({4, 0, 0, 0, 'a', 'b', 'c'});
  wire::Reader rs(short_by_one);
  EXPECT_FALSE(rs.str(&out, 64));
  EXPECT_EQ(rs.pos(), 0u);
}

TEST(WireCodec, CrcCheckedBodyIsTheFrameMinusItsTrailer) {
  std::string frame = "abc";
  const std::uint32_t crc =
      crc32_ieee(reinterpret_cast<const std::uint8_t*>(frame.data()), 3);
  for (int i = 0; i < 4; ++i) frame += static_cast<char>(crc >> (8 * i));
  const auto body = wire::crc_checked_body(frame);
  ASSERT_TRUE(body.has_value());
  EXPECT_EQ(*body, "abc");
  EXPECT_FALSE(wire::crc_checked_body(frame + "x"));
  // An empty body with its CRC is a valid (empty) frame.
  EXPECT_TRUE(wire::crc_checked_body(bytes_of({0, 0, 0, 0})));
}

}  // namespace
}  // namespace flashmark
