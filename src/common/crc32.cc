#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace skl {

namespace {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

// tables[0] is the reflected CRC-32 table for polynomial 0xEDB88320 (IEEE
// 802.3): the CRC register after feeding one byte. tables[k][i] is the
// register after feeding byte i followed by k zero bytes, which is what
// lets slicing-by-8 fold eight input bytes with eight independent lookups.
constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

}  // namespace

uint32_t Crc32Update(uint32_t seed, std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  // Slicing-by-8 reads the input as little-endian words; on a big-endian
  // host every byte takes the bytewise loop below.
  if constexpr (std::endian::native == std::endian::little) {
    const auto& t = kTables;
    while (n >= 8) {
      uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; --n, ++p) {
    c = kTables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32(std::span<const uint8_t> bytes) {
  return Crc32Update(0, bytes);
}

}  // namespace skl
