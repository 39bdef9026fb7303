// Dynamic bit vector used for watermarks, segment state snapshots and BER
// accounting. Thin, value-semantic wrapper over a word array; position 0 is
// the least-significant bit of word 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace flashmark {

class BitVec {
 public:
  BitVec() = default;

  /// All-zero vector of n bits.
  explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Vector of n bits, every bit set to `value`.
  BitVec(std::size_t n, bool value);

  /// Build from a string of '0'/'1' characters (other characters are
  /// rejected with std::invalid_argument). Bit 0 is the first character.
  static BitVec from_string(const std::string& bits);

  /// Build from raw bytes, LSB-first within each byte; n_bits may trim the
  /// final byte.
  static BitVec from_bytes(const std::vector<std::uint8_t>& bytes,
                           std::size_t n_bits);

  /// Pack ASCII text, 8 bits per character, MSB-first within each character
  /// (matches the paper's Fig. 6 rendering of "TC" = 01010100 01000011).
  static BitVec from_ascii_msb_first(const std::string& text);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);
  void flip(std::size_t i);

  /// Number of set bits.
  std::size_t popcount() const;
  /// Number of zero bits.
  std::size_t zero_count() const { return size_ - popcount(); }

  /// Hamming distance; both vectors must be the same length.
  static std::size_t hamming_distance(const BitVec& a, const BitVec& b);

  /// Bitwise XOR (same length required).
  BitVec operator^(const BitVec& o) const;

  /// Append another vector's bits after this one's.
  void append(const BitVec& o);

  /// Extract bits [begin, begin+len).
  BitVec slice(std::size_t begin, std::size_t len) const;

  /// Serialize to bytes, LSB-first within each byte; final byte zero-padded.
  std::vector<std::uint8_t> to_bytes() const;

  /// Decode as ASCII, MSB-first per character (inverse of
  /// from_ascii_msb_first). size() must be a multiple of 8.
  std::string to_ascii_msb_first() const;

  /// '0'/'1' string, bit 0 first.
  std::string to_string() const;

  bool operator==(const BitVec& o) const;

  /// Bit-wise majority of the first n bits of `rows`: bit i is 1 iff it is
  /// set in more than half of them. Every row must hold at least n bits
  /// (std::out_of_range otherwise); bits past n are ignored.
  static BitVec majority(const std::vector<BitVec>& rows, std::size_t n);

  /// The backing words: bit i is bit i % 64 of word i / 64. A writer must
  /// leave every bit at position >= size() zero (popcount and == rely on
  /// it).
  std::span<std::uint64_t> words() { return words_; }
  std::span<const std::uint64_t> words() const { return words_; }

 private:
  void check_index(std::size_t i) const;

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Word-wise majority vote over k rows of n_words 64-bit words (rows[r]
/// points at row r): bit b of out[j] is 1 iff bit b of word j is set in
/// more than k / 2 rows. The per-bit counts are bit-sliced, so each word
/// costs O(k log k) word operations whatever its popcount.
void majority_words(const std::uint64_t* const* rows, std::size_t k,
                    std::size_t n_words, std::uint64_t* out);

}  // namespace flashmark
