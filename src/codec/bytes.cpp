#include "codec/bytes.hpp"

#include <array>
#include <cstring>

namespace sor {

namespace {

// Fixed-width fields are little-endian on the wire whatever the host byte
// order; these shifts compile to one load or store on little-endian hosts.
template <typename T>
void StoreLe(T v, std::uint8_t* out) {
  for (std::size_t i = 0; i < sizeof(T); ++i)
    out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

template <typename T>
T LoadLe(const std::uint8_t* in) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(in[i]) << (8 * i);
  return v;
}

}  // namespace

void ByteWriter::u32_fixed(std::uint32_t v) {
  std::array<std::uint8_t, 4> word{};
  StoreLe(v, word.data());
  buf_.insert(buf_.end(), word.begin(), word.end());
}

void ByteWriter::u64_fixed(std::uint64_t v) {
  std::array<std::uint8_t, 8> word{};
  StoreLe(v, word.data());
  buf_.insert(buf_.end(), word.begin(), word.end());
}

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::svarint(std::int64_t v) {
  // Zigzag: small magnitudes (positive or negative) stay small on the wire.
  const auto u = static_cast<std::uint64_t>(v);
  varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
}

void ByteWriter::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  u64_fixed(bits);
}

void ByteWriter::str(std::string_view s) {
  varint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::blob(std::span<const std::uint8_t> b) {
  varint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

std::uint8_t ByteReader::u8() {
  if (!ok_ || pos_ >= data_.size()) {
    fail();
    return 0;
  }
  return data_[pos_++];
}

std::uint32_t ByteReader::u32_fixed() {
  if (!ok_ || remaining() < 4) {
    fail();
    return 0;
  }
  const auto v = LoadLe<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64_fixed() {
  if (!ok_ || remaining() < 8) {
    fail();
    return 0;
  }
  const auto v = LoadLe<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    const std::uint8_t b = u8();
    // Shortest form only, so a value re-encodes to its bytes: no zero
    // padding, and a tenth byte of just the 64th bit (which caps the length).
    if (!ok_ || (shift > 0 && b == 0) || (shift == 63 && b > 1)) {
      fail();
      return 0;
    }
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

std::int64_t ByteReader::svarint() {
  const std::uint64_t u = varint();
  if (!ok_) return 0;
  return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

double ByteReader::f64() {
  const std::uint64_t bits = u64_fixed();
  if (!ok_) return 0.0;
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::str() {
  const std::span<const std::uint8_t> b = blob_view();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

Bytes ByteReader::blob() {
  const std::span<const std::uint8_t> b = blob_view();
  return Bytes(b.begin(), b.end());
}

std::span<const std::uint8_t> ByteReader::blob_view() {
  const std::uint64_t len = varint();
  if (!ok_ || len > remaining()) {
    fail();
    return {};
  }
  const std::span<const std::uint8_t> b =
      data_.subspan(pos_, static_cast<std::size_t>(len));
  pos_ += b.size();
  return b;
}

}  // namespace sor
