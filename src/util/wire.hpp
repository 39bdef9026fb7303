// Little-endian wire codec shared by every binary frame in the repo: the
// lot ("FMLT") and ROC ("FMRC") shard frames, the serve protocol ("FMSV")
// and the fixed-offset header and table of the v3 die file.
//
// Encoding is bytewise, so it is host-order independent by construction.
// Decoding follows one hostile-input discipline: check the CRC-32 trailer
// before any field is read, bounds-check every read through a sequential
// cursor (a failed read consumes nothing and the cursor never passes the
// end), and let the caller reject trailing garbage with at_end(). A corrupt
// or truncated frame yields a failed read, never undefined behavior.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace flashmark::wire {

// --- fixed-offset (pointer) form -------------------------------------------

void store_u32(std::uint8_t* p, std::uint32_t v);
void store_u64(std::uint8_t* p, std::uint64_t v);
std::uint32_t load_u32(const std::uint8_t* p);
std::uint64_t load_u64(const std::uint8_t* p);

// --- sequential form -------------------------------------------------------

/// Appends little-endian fields to a growing byte string.
class Writer {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  ///< IEEE-754 bits as a u64
  void bytes(std::string_view v);
  /// u32 length, then the bytes.
  void str(std::string_view v);
  /// u32 CRC-32 (IEEE) over everything written so far.
  void append_crc32();

  std::string take() { return std::move(s_); }

 private:
  std::string s_;
};

/// Bounds-checked sequential reader. Every read returns false, and leaves
/// both the cursor and the output untouched, when the field does not fit in
/// the remaining bytes.
class Reader {
 public:
  explicit Reader(std::string_view s) : s_(s) {}

  bool u8(std::uint8_t* v);
  bool u16(std::uint16_t* v);
  bool u32(std::uint32_t* v);
  bool u64(std::uint64_t* v);
  bool f64(double* v);
  /// A u32 length, then that many bytes; fails when the length exceeds
  /// `max_len` or the bytes left.
  bool str(std::string* v, std::size_t max_len);

  std::size_t pos() const { return pos_; }
  bool at_end() const { return pos_ == s_.size(); }

 private:
  bool take(std::size_t n, const char** p);

  std::string_view s_;
  std::size_t pos_ = 0;
};

/// CRC-first frame check: when `frame` ends in a 4-byte CRC-32 of
/// everything before it, returns that body (a view into `frame`);
/// otherwise std::nullopt. No field is interpreted before this passes.
std::optional<std::string_view> crc_checked_body(std::string_view frame);

// --- shard envelope --------------------------------------------------------
// The lot and ROC shard frames share one envelope:
//   u32 magic | u32 version | u64 begin | u64 end | payload | u32 CRC-32
// The [begin, end) echo means a frame read from the wrong pipe cannot be
// folded into the wrong slot.

/// A Writer holding the envelope's header; append the payload, then
/// append_crc32().
Writer shard_frame_writer(std::uint32_t magic, std::uint32_t version,
                          std::uint64_t begin, std::uint64_t end);

/// Check the CRC trailer, then the magic, version and range echo. Returns a
/// Reader over the body (trailer excluded) positioned at the payload, or
/// std::nullopt. The Reader views `frame`, which must outlive it.
std::optional<Reader> open_shard_frame(std::string_view frame,
                                       std::uint32_t magic,
                                       std::uint32_t version,
                                       std::uint64_t begin, std::uint64_t end);

}  // namespace flashmark::wire
