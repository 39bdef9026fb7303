#include "util/wire.hpp"

#include <bit>

#include "util/crc.hpp"

namespace flashmark::wire {

namespace {

template <typename T>
void store_le(std::uint8_t* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <typename T>
T load_le(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
  return v;
}

const std::uint8_t* as_bytes(const char* p) {
  return reinterpret_cast<const std::uint8_t*>(p);
}

template <typename T>
void append_le(std::string& s, T v) {
  std::uint8_t b[sizeof(T)];
  store_le(b, v);
  s.append(reinterpret_cast<const char*>(b), sizeof b);
}

}  // namespace

void store_u32(std::uint8_t* p, std::uint32_t v) { store_le(p, v); }
void store_u64(std::uint8_t* p, std::uint64_t v) { store_le(p, v); }
std::uint32_t load_u32(const std::uint8_t* p) {
  return load_le<std::uint32_t>(p);
}
std::uint64_t load_u64(const std::uint8_t* p) {
  return load_le<std::uint64_t>(p);
}

void Writer::u8(std::uint8_t v) { s_ += static_cast<char>(v); }
void Writer::u16(std::uint16_t v) { append_le(s_, v); }
void Writer::u32(std::uint32_t v) { append_le(s_, v); }
void Writer::u64(std::uint64_t v) { append_le(s_, v); }
void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
void Writer::bytes(std::string_view v) { s_.append(v); }

void Writer::str(std::string_view v) {
  u32(static_cast<std::uint32_t>(v.size()));
  bytes(v);
}

void Writer::append_crc32() { u32(crc32_ieee(as_bytes(s_.data()), s_.size())); }

bool Reader::take(std::size_t n, const char** p) {
  if (n > s_.size() - pos_) return false;  // pos_ <= size(): cannot wrap
  *p = s_.data() + pos_;
  pos_ += n;
  return true;
}

bool Reader::u8(std::uint8_t* v) {
  const char* p;
  if (!take(1, &p)) return false;
  *v = static_cast<std::uint8_t>(*p);
  return true;
}

bool Reader::u16(std::uint16_t* v) {
  const char* p;
  if (!take(2, &p)) return false;
  *v = load_le<std::uint16_t>(as_bytes(p));
  return true;
}

bool Reader::u32(std::uint32_t* v) {
  const char* p;
  if (!take(4, &p)) return false;
  *v = load_u32(as_bytes(p));
  return true;
}

bool Reader::u64(std::uint64_t* v) {
  const char* p;
  if (!take(8, &p)) return false;
  *v = load_u64(as_bytes(p));
  return true;
}

bool Reader::f64(double* v) {
  std::uint64_t bits;
  if (!u64(&bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

bool Reader::str(std::string* v, std::size_t max_len) {
  const std::size_t start = pos_;
  std::uint32_t len;
  const char* p;
  if (!u32(&len) || len > max_len || !take(len, &p)) {
    pos_ = start;
    return false;
  }
  v->assign(p, len);
  return true;
}

std::optional<std::string_view> crc_checked_body(std::string_view frame) {
  if (frame.size() < 4) return std::nullopt;
  const std::string_view body = frame.substr(0, frame.size() - 4);
  if (load_u32(as_bytes(frame.data() + body.size())) !=
      crc32_ieee(as_bytes(body.data()), body.size()))
    return std::nullopt;
  return body;
}

Writer shard_frame_writer(std::uint32_t magic, std::uint32_t version,
                          std::uint64_t begin, std::uint64_t end) {
  Writer w;
  w.u32(magic);
  w.u32(version);
  w.u64(begin);
  w.u64(end);
  return w;
}

std::optional<Reader> open_shard_frame(std::string_view frame,
                                       std::uint32_t magic,
                                       std::uint32_t version,
                                       std::uint64_t begin, std::uint64_t end) {
  const std::optional<std::string_view> body = crc_checked_body(frame);
  if (!body) return std::nullopt;
  Reader r(*body);
  std::uint32_t m = 0, v = 0;
  std::uint64_t b = 0, e = 0;
  if (!r.u32(&m) || m != magic || !r.u32(&v) || v != version || !r.u64(&b) ||
      !r.u64(&e) || b != begin || e != end)
    return std::nullopt;
  return r;
}

}  // namespace flashmark::wire
