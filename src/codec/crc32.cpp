#include "codec/crc32.hpp"

#include <array>

namespace sor {

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

// Slice-by-8 tables: tables[0] is the classic byte-at-a-time table, and
// tables[k][b] is the CRC contribution of byte b followed by k zero bytes.
constexpr Crc32Tables MakeTables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  }
  return t;
}

constexpr Crc32Tables kTables = MakeTables();

thread_local std::uint64_t crc32_bytes = 0;

// Little-endian load, independent of host byte order and alignment (the
// compiler folds it into one load on little-endian targets).
inline std::uint32_t LoadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint64_t crc32_bytes_on_this_thread() { return crc32_bytes; }

std::uint32_t Crc32(std::span<const std::uint8_t> data) {
  crc32_bytes += data.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  // Eight bytes per step: fold the first four into the running CRC, then
  // look all eight up in the eight shifted tables at once.
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = LoadLe32(p) ^ crc;
    const std::uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = kTables[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace sor
