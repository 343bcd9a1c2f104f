#include "src/common/bit_codec.h"

#include <bit>

#include "src/common/check.h"

namespace skl {

size_t EncodeVarint(uint64_t value, uint8_t* out) {
  size_t n = 0;
  while (value >= 0x80) {
    out[n++] = static_cast<uint8_t>(value | 0x80);
    value >>= 7;
  }
  out[n++] = static_cast<uint8_t>(value);
  return n;
}

// Invariant: bytes_.size() == ceil(bit_count_ / 8) and the bits of the last
// byte past bit_count_ are zero, so aligning is a bit_count_ bump and a
// partial byte can be completed with a single OR.
void BitWriter::Write(uint64_t value, int bits) {
  SKL_DCHECK(bits > 0 && bits <= 64);
  SKL_DCHECK(bits == 64 || value < (uint64_t{1} << bits));
  if (bits < 64) value &= (uint64_t{1} << bits) - 1;
  const int used = static_cast<int>(bit_count_ & 7);
  bit_count_ += static_cast<size_t>(bits);
  if (used != 0) {
    // Top up the partial last byte with the field's leading bits.
    const int room = 8 - used;
    if (bits <= room) {
      bytes_.back() |= static_cast<uint8_t>(value << (room - bits));
      return;
    }
    bits -= room;
    bytes_.back() |= static_cast<uint8_t>(value >> bits);
  }
  // Byte-aligned from here: whole bytes MSB-first, then a zero-padded tail.
  while (bits >= 8) {
    bits -= 8;
    bytes_.push_back(static_cast<uint8_t>(value >> bits));
  }
  if (bits > 0) bytes_.push_back(static_cast<uint8_t>(value << (8 - bits)));
}

void BitWriter::WriteVarint(uint64_t value) {
  uint8_t buf[kMaxVarintBytes];
  const size_t n = EncodeVarint(value, buf);
  // Appending after a partial last byte is the byte alignment: its padding
  // bits are already zero.
  for (size_t i = 0; i < n; ++i) bytes_.push_back(buf[i]);
  bit_count_ = bytes_.size() * 8;
}

void BitWriter::WriteBytes(std::span<const uint8_t> bytes) {
  AlignToByte();
  bytes_.insert(bytes_.end(), bytes.begin(), bytes.end());
  bit_count_ += bytes.size() * 8;
}

void BitWriter::AlignToByte() { bit_count_ = bytes_.size() * 8; }

void BitWriter::Reserve(size_t extra_bytes) {
  bytes_.reserve(bytes_.size() + extra_bytes);
}

std::vector<uint8_t> BitWriter::Finish() {
  AlignToByte();
  return std::move(bytes_);
}

BitReader::BitReader(const uint8_t* data, size_t size_bytes)
    : data_(data), size_bits_(size_bytes * 8) {}

BitReader::BitReader(const std::vector<uint8_t>& bytes)
    : BitReader(bytes.data(), bytes.size()) {}

Status BitReader::Read(int bits, uint64_t* value) {
  SKL_DCHECK(bits > 0 && bits <= 64);
  if (bit_pos_ + static_cast<size_t>(bits) > size_bits_) {
    return Status::ParseError("bit stream exhausted");
  }
  const uint8_t* p = data_ + (bit_pos_ >> 3);
  const int skip = static_cast<int>(bit_pos_ & 7);
  bit_pos_ += static_cast<size_t>(bits);
  // The first byte contributes its low 8 - skip bits, later bytes all 8,
  // the last one only its leading `need` bits.
  uint64_t out = *p++ & (0xFFu >> skip);
  const int have = 8 - skip;
  if (bits <= have) {
    *value = out >> (have - bits);
    return Status::OK();
  }
  int need = bits - have;
  while (need >= 8) {
    out = (out << 8) | *p++;
    need -= 8;
  }
  if (need > 0) out = (out << need) | (*p >> (8 - need));
  *value = out;
  return Status::OK();
}

Status BitReader::ReadVarint(uint64_t* value) {
  AlignToByte();
  const size_t size_bytes = size_bits_ >> 3;
  size_t pos = bit_pos_ >> 3;
  uint64_t out = 0;
  int shift = 0;
  for (;;) {
    if (pos >= size_bytes) {
      bit_pos_ = pos * 8;
      return Status::ParseError("bit stream exhausted");
    }
    const uint64_t byte = data_[pos++];
    out |= (byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) {
      bit_pos_ = pos * 8;
      return Status::ParseError("varint too long");
    }
  }
  bit_pos_ = pos * 8;
  *value = out;
  return Status::OK();
}

Status BitReader::ReadBytes(size_t count, std::span<const uint8_t>* out) {
  const size_t aligned = (bit_pos_ + 7) & ~size_t{7};
  if (count > (size_bits_ - aligned) / 8) {
    return Status::ParseError("bit stream exhausted");
  }
  bit_pos_ = aligned;
  *out = std::span<const uint8_t>(data_ + (bit_pos_ >> 3), count);
  bit_pos_ += count * 8;
  return Status::OK();
}

void BitReader::AlignToByte() {
  bit_pos_ = (bit_pos_ + 7) & ~size_t{7};
}

int BitsForCount(uint64_t n) {
  if (n <= 2) return 1;
  return 64 - std::countl_zero(n - 1);
}

}  // namespace skl
