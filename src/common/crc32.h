// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) used to checksum
// every framed record the library writes or ships: snapshot sections, op-log
// entries and the body of every wire-protocol frame. A flipped bit in a
// persisted snapshot, a replicated log entry or a request on the wire must be
// reported as corruption, never parsed into a wrong-but-plausible registry
// or query. Computed slicing-by-8 (eight input bytes per step) on
// little-endian hosts, bytewise elsewhere and for the tail.
#ifndef SKL_COMMON_CRC32_H_
#define SKL_COMMON_CRC32_H_

#include <cstdint>
#include <span>

namespace skl {

/// CRC-32 of `bytes` (init 0xFFFFFFFF, reflected, final xor — matches
/// zlib's crc32(0, data, len)).
uint32_t Crc32(std::span<const uint8_t> bytes);

/// Streaming form: feed the previous return value back in as `seed` to
/// checksum data arriving in pieces. Start with seed 0.
uint32_t Crc32Update(uint32_t seed, std::span<const uint8_t> bytes);

}  // namespace skl

#endif  // SKL_COMMON_CRC32_H_
