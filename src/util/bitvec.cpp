#include "util/bitvec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace flashmark {

BitVec::BitVec(std::size_t n, bool value) : BitVec(n) {
  if (value) {
    for (auto& w : words_) w = ~0ull;
    // Clear the unused tail bits so popcount stays correct.
    const std::size_t tail = size_ % 64;
    if (tail != 0 && !words_.empty()) words_.back() &= (1ull << tail) - 1;
  }
}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      v.set(i, true);
    } else if (bits[i] != '0') {
      throw std::invalid_argument("BitVec::from_string: bad character");
    }
  }
  return v;
}

BitVec BitVec::from_bytes(const std::vector<std::uint8_t>& bytes,
                          std::size_t n_bits) {
  if (n_bits > bytes.size() * 8)
    throw std::invalid_argument("BitVec::from_bytes: n_bits exceeds data");
  BitVec v(n_bits);
  for (std::size_t i = 0; i < n_bits; ++i)
    v.set(i, (bytes[i / 8] >> (i % 8)) & 1u);
  return v;
}

BitVec BitVec::from_ascii_msb_first(const std::string& text) {
  BitVec v(text.size() * 8);
  for (std::size_t c = 0; c < text.size(); ++c) {
    const auto byte = static_cast<std::uint8_t>(text[c]);
    for (int b = 0; b < 8; ++b)
      v.set(c * 8 + static_cast<std::size_t>(b), (byte >> (7 - b)) & 1u);
  }
  return v;
}

void BitVec::check_index(std::size_t i) const {
  if (i >= size_) throw std::out_of_range("BitVec index out of range");
}

bool BitVec::get(std::size_t i) const {
  check_index(i);
  return (words_[i / 64] >> (i % 64)) & 1ull;
}

void BitVec::set(std::size_t i, bool value) {
  check_index(i);
  const std::uint64_t mask = 1ull << (i % 64);
  if (value)
    words_[i / 64] |= mask;
  else
    words_[i / 64] &= ~mask;
}

void BitVec::flip(std::size_t i) {
  check_index(i);
  words_[i / 64] ^= 1ull << (i % 64);
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (auto w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

std::size_t BitVec::hamming_distance(const BitVec& a, const BitVec& b) {
  if (a.size_ != b.size_)
    throw std::invalid_argument("hamming_distance: length mismatch");
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.words_.size(); ++i)
    n += static_cast<std::size_t>(std::popcount(a.words_[i] ^ b.words_[i]));
  return n;
}

BitVec BitVec::operator^(const BitVec& o) const {
  if (size_ != o.size_) throw std::invalid_argument("BitVec^: length mismatch");
  BitVec r(size_);
  for (std::size_t i = 0; i < words_.size(); ++i)
    r.words_[i] = words_[i] ^ o.words_[i];
  return r;
}

void BitVec::append(const BitVec& o) {
  // Snapshot the source length before growing: with `v.append(v)` the
  // mutations below are visible through `o`, and reading `o.size_` after
  // them would double-count (and walk into the freshly zeroed tail).
  const std::size_t old = size_;
  const std::size_t n = o.size_;
  size_ += n;
  words_.resize((size_ + 63) / 64, 0);
  for (std::size_t i = 0; i < n; ++i) set(old + i, o.get(i));
}

BitVec BitVec::slice(std::size_t begin, std::size_t len) const {
  if (begin + len > size_) throw std::out_of_range("BitVec::slice out of range");
  BitVec r(len);
  for (std::size_t i = 0; i < len; ++i) r.set(i, get(begin + i));
  return r;
}

std::vector<std::uint8_t> BitVec::to_bytes() const {
  std::vector<std::uint8_t> out((size_ + 7) / 8, 0);
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) out[i / 8] |= static_cast<std::uint8_t>(1u << (i % 8));
  return out;
}

std::string BitVec::to_ascii_msb_first() const {
  if (size_ % 8 != 0)
    throw std::invalid_argument("to_ascii_msb_first: size not multiple of 8");
  std::string out(size_ / 8, '\0');
  for (std::size_t c = 0; c < out.size(); ++c) {
    std::uint8_t byte = 0;
    for (int b = 0; b < 8; ++b)
      if (get(c * 8 + static_cast<std::size_t>(b)))
        byte |= static_cast<std::uint8_t>(1u << (7 - b));
    out[c] = static_cast<char>(byte);
  }
  return out;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i)
    if (get(i)) s[i] = '1';
  return s;
}

bool BitVec::operator==(const BitVec& o) const {
  return size_ == o.size_ && words_ == o.words_;
}

BitVec BitVec::majority(const std::vector<BitVec>& rows, std::size_t n) {
  std::vector<const std::uint64_t*> ptrs;
  ptrs.reserve(rows.size());
  for (const BitVec& r : rows) {
    if (r.size_ < n) throw std::out_of_range("BitVec::majority: short row");
    ptrs.push_back(r.words_.data());
  }
  BitVec out(n);
  majority_words(ptrs.data(), ptrs.size(), out.words_.size(),
                 out.words_.data());
  if (n % 64 != 0) out.words_.back() &= (1ull << (n % 64)) - 1;
  return out;
}

void majority_words(const std::uint64_t* const* rows, std::size_t k,
                    std::size_t n_words, std::uint64_t* out) {
  if (k == 0) {
    std::fill(out, out + n_words, 0);
    return;
  }
  // planes[q] holds bit q of every lane's count; a bit wins with a count
  // of at least k / 2 + 1, which fits in bit_width(k) planes.
  const int n_planes = std::bit_width(k);
  const std::size_t need = k / 2 + 1;
  std::array<std::uint64_t, 64> planes{};
  for (std::size_t j = 0; j < n_words; ++j) {
    std::fill(planes.begin(), planes.begin() + n_planes, 0);
    for (std::size_t r = 0; r < k; ++r) {
      std::uint64_t carry = rows[r][j];
      for (int q = 0; q < n_planes && carry != 0; ++q) {
        const std::uint64_t t = planes[q] & carry;
        planes[q] ^= carry;
        carry = t;
      }
    }
    // count >= need, compared plane by plane from the top.
    std::uint64_t gt = 0;
    std::uint64_t eq = ~0ull;
    for (int q = n_planes - 1; q >= 0; --q) {
      if ((need >> q) & 1) {
        eq &= planes[q];
      } else {
        gt |= eq & planes[q];
        eq &= ~planes[q];
      }
    }
    out[j] = gt | eq;
  }
}

}  // namespace flashmark
