#include "codec/bytes.hpp"

namespace sor {

void ByteWriter::varint(std::uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<std::uint8_t>(v));
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

F64Run ByteReader::f64s(std::uint64_t n) {
  if (!ok_ || n > remaining() / 8) {
    fail();
    return {};
  }
  const F64Run run(data_.subspan(pos_, static_cast<std::size_t>(n) * 8));
  pos_ += static_cast<std::size_t>(n) * 8;
  return run;
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
