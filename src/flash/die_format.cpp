#include "flash/die_format.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "flash/array.hpp"
#include "util/crc.hpp"
#include "util/wire.hpp"

namespace flashmark {

namespace {

// Header field offsets (bytes). Normative layout in docs/FORMATS.md — keep
// the two in lockstep.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffHeaderBytes = 8;
constexpr std::size_t kOffVersion = 12;
constexpr std::size_t kOffFamily = 16;
constexpr std::size_t kOffDieSeed = 48;
constexpr std::size_t kOffClockNs = 56;
constexpr std::size_t kOffTemperature = 64;
constexpr std::size_t kOffNoiseS = 72;        // 4 x u64
constexpr std::size_t kOffNoiseCached = 104;
constexpr std::size_t kOffNoiseHasCached = 112;
constexpr std::size_t kOffNSegments = 116;
constexpr std::size_t kOffNEntries = 120;
constexpr std::size_t kOffTableCrc = 124;
constexpr std::size_t kOffTableOffset = 128;
constexpr std::size_t kOffDataOffset = 136;
constexpr std::size_t kOffFileBytes = 144;
constexpr std::size_t kOffHeaderCrc = 188;  // CRC-32 over bytes [0, 188)

// Table entry field offsets (within each 32-byte entry).
constexpr std::size_t kEntSegment = 0;
constexpr std::size_t kEntColumn = 4;
constexpr std::size_t kEntOffset = 8;
constexpr std::size_t kEntSize = 16;
constexpr std::size_t kEntElemSize = 24;
constexpr std::size_t kEntCrc = 28;

std::size_t align_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

bool host_is_little_endian() {
  return std::endian::native == std::endian::little;
}

IoStatus reject(IoStatus* status, std::string cause) {
  IoStatus st = IoStatus::failure("die format v3: " + std::move(cause));
  if (status) *status = st;
  return st;
}

/// Domain validation of one column's cell values — the same rules
/// Cell::restore enforces, vectorized over the blob. `!(x > 0)` style
/// comparisons deliberately reject NaN as well.
bool column_domain_ok(v3::ColumnId c, const std::uint8_t* p, std::size_t n) {
  switch (c) {
    case v3::ColumnId::kTteFreshUs:
      for (std::size_t i = 0; i < n; ++i) {
        float v;
        std::memcpy(&v, p + 4 * i, 4);
        if (!(v > 0.0f)) return false;
      }
      return true;
    case v3::ColumnId::kSusceptibility:
      for (std::size_t i = 0; i < n; ++i) {
        float v;
        std::memcpy(&v, p + 4 * i, 4);
        if (!(v >= 0.0f)) return false;
      }
      return true;
    case v3::ColumnId::kEffCycles:
    case v3::ColumnId::kAnnealed:
      for (std::size_t i = 0; i < n; ++i) {
        double v;
        std::memcpy(&v, p + 8 * i, 8);
        if (!(v >= 0.0)) return false;
      }
      return true;
    case v3::ColumnId::kLevel:
      for (std::size_t i = 0; i < n; ++i)
        if (p[i] > 1) return false;
      return true;
    case v3::ColumnId::kDefect:
      for (std::size_t i = 0; i < n; ++i)
        if (p[i] > 2) return false;
      return true;
    case v3::ColumnId::kMetastable:
      for (std::size_t i = 0; i < n; ++i)
        if (p[i] > 1) return false;
      return true;
    case v3::ColumnId::kMarginUs:
      // Cell::restore accepts any margin (only meaningful while
      // metastable); so does the columnar reader.
      return true;
  }
  return false;
}

}  // namespace

namespace v3 {

std::uint32_t column_elem_size(ColumnId c) {
  switch (c) {
    case ColumnId::kTteFreshUs:
    case ColumnId::kSusceptibility:
    case ColumnId::kMarginUs:
      return 4;
    case ColumnId::kEffCycles:
    case ColumnId::kAnnealed:
      return 8;
    case ColumnId::kLevel:
    case ColumnId::kDefect:
    case ColumnId::kMetastable:
      return 1;
  }
  return 0;
}

}  // namespace v3

DieFileMap::~DieFileMap() {
  if (map_base_) ::munmap(map_base_, size_);
}

const std::uint8_t* DieFileMap::data() const {
  return map_base_ ? static_cast<const std::uint8_t*>(map_base_)
                   : reinterpret_cast<const std::uint8_t*>(buffer_.data());
}

std::shared_ptr<const DieFileMap> DieFileMap::open(const std::string& path,
                                                   IoStatus* status) {
  if (status) *status = IoStatus::success();
  auto m = std::shared_ptr<DieFileMap>(new DieFileMap());

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    reject(status, "open " + path + ": " + std::strerror(errno));
    return nullptr;
  }
  struct stat sb {};
  if (::fstat(fd, &sb) != 0) {
    reject(status, "fstat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return nullptr;
  }
  if (S_ISREG(sb.st_mode) && sb.st_size > 0) {
    void* base = ::mmap(nullptr, static_cast<std::size_t>(sb.st_size),
                        PROT_READ, MAP_PRIVATE, fd, 0);
    if (base != MAP_FAILED) {
      m->map_base_ = base;
      m->size_ = static_cast<std::size_t>(sb.st_size);
    }
  }
  ::close(fd);
  if (!m->map_base_) {
    // Pipes, pseudo-files, or a refused mmap: fall back to a heap read.
    if (const IoStatus st = read_file(path, &m->buffer_); !st) {
      reject(status, st.error);
      return nullptr;
    }
    m->size_ = m->buffer_.size();
  }
  return validate(std::move(m), status);
}

std::shared_ptr<const DieFileMap> DieFileMap::from_bytes(std::string bytes,
                                                         IoStatus* status) {
  if (status) *status = IoStatus::success();
  auto m = std::shared_ptr<DieFileMap>(new DieFileMap());
  m->buffer_ = std::move(bytes);
  m->size_ = m->buffer_.size();
  return validate(std::move(m), status);
}

std::shared_ptr<const DieFileMap> DieFileMap::validate(
    std::shared_ptr<DieFileMap> m, IoStatus* status) {
  if (!host_is_little_endian()) {
    reject(status, "big-endian host unsupported (use the text formats)");
    return nullptr;
  }
  const std::uint8_t* d = m->data();
  const std::size_t size = m->size_;
  if (size < v3::kHeaderBytes) {
    reject(status, "file smaller than the v3 header");
    return nullptr;
  }
  if (std::memcmp(d + kOffMagic, v3::kMagic.data(), v3::kMagic.size()) != 0) {
    reject(status, "bad magic");
    return nullptr;
  }
  if (crc32_ieee(d, kOffHeaderCrc) != wire::load_u32(d + kOffHeaderCrc)) {
    reject(status, "header CRC mismatch");
    return nullptr;
  }
  if (wire::load_u32(d + kOffHeaderBytes) != v3::kHeaderBytes ||
      wire::load_u32(d + kOffVersion) != v3::kVersion) {
    reject(status, "unsupported header size or version");
    return nullptr;
  }

  // Family: NUL-terminated inside its fixed field, non-empty.
  const char* fam = reinterpret_cast<const char*>(d + kOffFamily);
  const std::size_t fam_len =
      std::find(fam, fam + v3::kFamilyBytes, '\0') - fam;
  if (fam_len == 0 || fam_len == v3::kFamilyBytes) {
    reject(status, "malformed family name");
    return nullptr;
  }
  m->family_.assign(fam, fam_len);

  m->die_seed_ = wire::load_u64(d + kOffDieSeed);
  m->clock_ns_ = static_cast<std::int64_t>(wire::load_u64(d + kOffClockNs));
  m->temperature_c_ =
      std::bit_cast<double>(wire::load_u64(d + kOffTemperature));
  for (int i = 0; i < 4; ++i)
    m->noise_.s[i] = wire::load_u64(d + kOffNoiseS + 8 * std::size_t(i));
  m->noise_.cached_normal_bits = wire::load_u64(d + kOffNoiseCached);
  const std::uint32_t has_cached = wire::load_u32(d + kOffNoiseHasCached);
  if (has_cached > 1) {
    reject(status, "malformed noise-RNG cache flag");
    return nullptr;
  }
  m->noise_.has_cached_normal = has_cached == 1;
  if (m->clock_ns_ < 0) {
    reject(status, "negative clock");
    return nullptr;
  }

  m->n_segments_ = wire::load_u32(d + kOffNSegments);
  const std::uint32_t n_entries = wire::load_u32(d + kOffNEntries);
  const std::uint64_t table_offset = wire::load_u64(d + kOffTableOffset);
  const std::uint64_t data_offset = wire::load_u64(d + kOffDataOffset);
  const std::uint64_t file_bytes = wire::load_u64(d + kOffFileBytes);
  if (m->n_segments_ == 0 || m->n_segments_ > (1u << 20)) {
    reject(status, "implausible segment count");
    return nullptr;
  }
  if (file_bytes != size) {
    reject(status, "file size mismatch (truncated or trailing bytes)");
    return nullptr;
  }
  const std::uint64_t table_bytes =
      std::uint64_t(n_entries) * v3::kTableEntryBytes;
  if (table_offset != v3::kHeaderBytes ||
      table_offset + table_bytes > data_offset || data_offset > size ||
      data_offset % v3::kBlobAlign != 0) {
    reject(status, "malformed section layout");
    return nullptr;
  }
  const std::uint8_t* table = d + table_offset;
  if (crc32_ieee(table, static_cast<std::size_t>(table_bytes)) !=
      wire::load_u32(d + kOffTableCrc)) {
    reject(status, "column table CRC mismatch");
    return nullptr;
  }

  std::uint64_t prev_end = data_offset;
  for (std::uint32_t e = 0; e < n_entries; ++e) {
    const std::uint8_t* ent = table + std::size_t(e) * v3::kTableEntryBytes;
    const std::uint32_t seg = wire::load_u32(ent + kEntSegment);
    const std::uint32_t col = wire::load_u32(ent + kEntColumn);
    const std::uint64_t off = wire::load_u64(ent + kEntOffset);
    const std::uint64_t bytes = wire::load_u64(ent + kEntSize);
    const std::uint32_t elem = wire::load_u32(ent + kEntElemSize);
    if (seg >= m->n_segments_) {
      reject(status, "table entry names an out-of-range segment");
      return nullptr;
    }
    // Blobs must be 64-byte aligned, in ascending non-overlapping order,
    // and inside the file. The bounds check is overflow-safe: a crafted
    // `off` near 2^64 would wrap `off + bytes` back into range.
    if (off % v3::kBlobAlign != 0 || off < prev_end || bytes == 0 ||
        bytes > size || off > size - bytes) {
      reject(status, "table entry offsets malformed");
      return nullptr;
    }
    prev_end = off + bytes;
    const std::uint8_t* blob = d + off;
    if (crc32_ieee(blob, static_cast<std::size_t>(bytes)) !=
        wire::load_u32(ent + kEntCrc)) {
      reject(status, "column blob CRC mismatch (segment " +
                         std::to_string(seg) + ", column " +
                         std::to_string(col) + ")");
      return nullptr;
    }
    if (col >= v3::kNumColumns) continue;  // future column id: framed, skipped
    const v3::ColumnId cid = static_cast<v3::ColumnId>(col);
    if (elem != v3::column_elem_size(cid) || bytes % elem != 0) {
      reject(status, "column element size mismatch");
      return nullptr;
    }
    const std::size_t count = static_cast<std::size_t>(bytes / elem);
    DieFileMap::SegmentColumns& sc = m->segs_[seg];
    const std::uint32_t bit = 1u << col;
    if (sc.have & bit) {
      reject(status, "duplicate (segment, column) entry");
      return nullptr;
    }
    sc.have |= bit;
    if (sc.cells == 0)
      sc.cells = count;
    else if (sc.cells != count) {
      reject(status, "column lengths disagree within segment " +
                         std::to_string(seg));
      return nullptr;
    }
    if (!column_domain_ok(cid, blob, count)) {
      reject(status, "out-of-domain cell value (segment " +
                         std::to_string(seg) + ", column " +
                         std::to_string(col) + ")");
      return nullptr;
    }
    sc.col[col] = blob;
  }

  // Every present segment must carry all 8 known columns.
  constexpr std::uint32_t kAllColumns = (1u << v3::kNumColumns) - 1;
  for (const auto& [seg, sc] : m->segs_) {
    if (sc.have != kAllColumns) {
      reject(status,
             "segment " + std::to_string(seg) + " is missing columns");
      return nullptr;
    }
  }
  return m;
}

std::string serialize_die_v3(const FlashArray& a, const std::string& family,
                             std::int64_t clock_ns) {
  if (!host_is_little_endian())
    throw std::runtime_error(
        "die format v3: big-endian host unsupported (use the text formats)");
  const FlashGeometry& g = a.geometry();
  const std::shared_ptr<const DieFileMap>& backing = a.backing();

  std::vector<std::uint32_t> present;
  for (std::size_t seg = 0; seg < g.n_segments(); ++seg)
    if (a.segment_present(seg)) present.push_back(std::uint32_t(seg));

  const std::uint32_t n_entries =
      std::uint32_t(present.size()) * v3::kNumColumns;
  const std::uint64_t table_offset = v3::kHeaderBytes;
  const std::uint64_t data_offset = align_up(
      table_offset + std::uint64_t(n_entries) * v3::kTableEntryBytes,
      v3::kBlobAlign);

  // Lay the blobs out first (segment-ascending, column-ascending), then
  // write everything into one zero-initialized image: the gaps between
  // aligned blobs stay zero by construction.
  std::uint64_t cursor = data_offset;
  std::vector<std::uint64_t> blob_off(n_entries);
  std::vector<std::uint64_t> blob_len(n_entries);
  {
    std::size_t e = 0;
    for (const std::uint32_t seg : present) {
      const std::uint64_t n = g.segment_cells(seg);
      for (std::uint32_t c = 0; c < v3::kNumColumns; ++c, ++e) {
        cursor = align_up(cursor, v3::kBlobAlign);
        blob_off[e] = cursor;
        blob_len[e] =
            n * v3::column_elem_size(static_cast<v3::ColumnId>(c));
        cursor += blob_len[e];
      }
    }
  }
  const std::uint64_t file_bytes = cursor;
  std::string out(static_cast<std::size_t>(file_bytes), '\0');
  std::uint8_t* d = reinterpret_cast<std::uint8_t*>(out.data());

  // Blobs. A hydrated segment's columns come from its SoA arrays; a
  // still-backed clean segment's bytes are copied straight out of the
  // validated source map (its representation is identical by spec).
  {
    std::size_t e = 0;
    for (const std::uint32_t seg : present) {
      const SegmentSoA* s = a.materialized_segment(seg);
      for (std::uint32_t c = 0; c < v3::kNumColumns; ++c, ++e) {
        std::uint8_t* dst = d + blob_off[e];
        const std::size_t bytes = static_cast<std::size_t>(blob_len[e]);
        if (s) {
          const void* src = nullptr;
          switch (static_cast<v3::ColumnId>(c)) {
            case v3::ColumnId::kTteFreshUs: src = s->tte_fresh_us.data(); break;
            case v3::ColumnId::kSusceptibility:
              src = s->susceptibility.data();
              break;
            case v3::ColumnId::kEffCycles: src = s->eff_cycles.data(); break;
            case v3::ColumnId::kAnnealed: src = s->annealed.data(); break;
            case v3::ColumnId::kLevel: src = s->level.data(); break;
            case v3::ColumnId::kDefect: src = s->defect.data(); break;
            case v3::ColumnId::kMetastable: src = s->metastable.data(); break;
            case v3::ColumnId::kMarginUs: src = s->margin_us.data(); break;
          }
          std::memcpy(dst, src, bytes);
        } else {
          std::memcpy(dst,
                      backing->column_data(seg, static_cast<v3::ColumnId>(c)),
                      bytes);
        }
      }
    }
  }

  // Column table.
  std::uint8_t* table = d + table_offset;
  {
    std::size_t e = 0;
    for (const std::uint32_t seg : present) {
      for (std::uint32_t c = 0; c < v3::kNumColumns; ++c, ++e) {
        std::uint8_t* ent = table + e * v3::kTableEntryBytes;
        wire::store_u32(ent + kEntSegment, seg);
        wire::store_u32(ent + kEntColumn, c);
        wire::store_u64(ent + kEntOffset, blob_off[e]);
        wire::store_u64(ent + kEntSize, blob_len[e]);
        wire::store_u32(ent + kEntElemSize,
                v3::column_elem_size(static_cast<v3::ColumnId>(c)));
        wire::store_u32(ent + kEntCrc,
                crc32_ieee(d + blob_off[e],
                           static_cast<std::size_t>(blob_len[e])));
      }
    }
  }

  // Header last: it frames the table.
  std::memcpy(d + kOffMagic, v3::kMagic.data(), v3::kMagic.size());
  wire::store_u32(d + kOffHeaderBytes, v3::kHeaderBytes);
  wire::store_u32(d + kOffVersion, v3::kVersion);
  if (family.empty() || family.size() >= v3::kFamilyBytes)
    throw std::runtime_error("die format v3: family name does not fit");
  std::memcpy(d + kOffFamily, family.data(), family.size());
  wire::store_u64(d + kOffDieSeed, a.die_seed());
  wire::store_u64(d + kOffClockNs, static_cast<std::uint64_t>(clock_ns));
  wire::store_u64(d + kOffTemperature,
                  std::bit_cast<std::uint64_t>(a.temperature_c()));
  const Rng::State noise = a.noise_rng_state();
  for (int i = 0; i < 4; ++i)
    wire::store_u64(d + kOffNoiseS + 8 * std::size_t(i), noise.s[i]);
  wire::store_u64(d + kOffNoiseCached, noise.cached_normal_bits);
  wire::store_u32(d + kOffNoiseHasCached, noise.has_cached_normal ? 1 : 0);
  wire::store_u32(d + kOffNSegments, std::uint32_t(g.n_segments()));
  wire::store_u32(d + kOffNEntries, n_entries);
  wire::store_u32(d + kOffTableCrc,
          crc32_ieee(table, std::size_t(n_entries) * v3::kTableEntryBytes));
  wire::store_u64(d + kOffTableOffset, table_offset);
  wire::store_u64(d + kOffDataOffset, data_offset);
  wire::store_u64(d + kOffFileBytes, file_bytes);
  wire::store_u32(d + kOffHeaderCrc, crc32_ieee(d, kOffHeaderCrc));
  return out;
}

}  // namespace flashmark
