// Binary (de)serialization primitives.
//
// SOR transmits everything as "binary data ... stored in the message body of
// an HTTP message" (§II-A) — partly to minimize traffic, partly as security
// by opacity. This is the single encode/decode layer used by wire messages,
// the barcode codec, and the raw-blob column in the database.
//
// Wire format conventions:
//  * unsigned integers: LEB128-style varint (7 bits per byte, little-endian)
//  * signed integers:   zigzag-mapped varint
//  * doubles:           8-byte IEEE-754 little-endian
//  * strings/blobs:     varint length prefix + raw bytes
// Decoding is non-throwing: ByteReader sticks at the first malformed field
// and reports failure, so a corrupted message can never crash the server.
// It accepts only what ByteWriter writes (shortest varints, booleans 0 or
// 1), so whatever decodes re-encodes to the same bytes.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"

namespace sor {

using Bytes = std::vector<std::uint8_t>;

// Zigzag: small magnitudes (positive or negative) stay small on the wire.
[[nodiscard]] inline std::uint64_t ZigZag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

// Loads one little-endian unsigned integer; the shifts compile to one load
// on little-endian hosts.
template <typename T>
[[nodiscard]] T LoadLe(const std::uint8_t* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i)
    v |= static_cast<T>(p[i]) << (8 * i);
  return v;
}

class ByteWriter {
 public:
  ByteWriter() = default;
  // Reserve `capacity` bytes up front: a writer sized for its output never
  // reallocates.
  explicit ByteWriter(std::size_t capacity) { buf_.reserve(capacity); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  // Fixed-width fields are little-endian on the wire whatever the host byte
  // order; the shifts compile to one store on little-endian hosts.
  void u32_fixed(std::uint32_t v) { StoreLe(v); }
  void u64_fixed(std::uint64_t v) { StoreLe(v); }
  void varint(std::uint64_t v);
  void svarint(std::int64_t v) { varint(ZigZag(v)); }
  void f64(double v) { u64_fixed(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s);
  void blob(std::span<const std::uint8_t> b);
  void boolean(bool b) { u8(b ? 1 : 0); }

  [[nodiscard]] const Bytes& bytes() const { return buf_; }
  [[nodiscard]] Bytes take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  template <typename T>
  void StoreLe(T v) {
    const std::size_t at = buf_.size();
    buf_.resize(at + sizeof(T));
    for (std::size_t i = 0; i < sizeof(T); ++i)
      buf_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }

  Bytes buf_;
};

// A run of consecutive f64s inside a reader's input (ByteReader::f64s),
// already bounds-checked as a whole; valid as long as that input is.
class F64Run {
 public:
  F64Run() = default;
  explicit F64Run(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t size() const { return bytes_.size() / 8; }
  [[nodiscard]] double operator[](std::size_t i) const {
    return std::bit_cast<double>(LoadLe<std::uint64_t>(&bytes_[8 * i]));
  }

 private:
  std::span<const std::uint8_t> bytes_;
};

// Reads sequentially from a byte span. After any failed read, ok() is false
// and every subsequent read returns a zero value; callers check ok() once at
// the end of a decode (monadic-style error sticking).
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint32_t u32_fixed() { return Fixed<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64_fixed() { return Fixed<std::uint64_t>(); }
  [[nodiscard]] std::uint64_t varint();
  [[nodiscard]] std::int64_t svarint();
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64_fixed()); }
  // `n` f64s with one bounds check: a run the bytes left cannot hold fails
  // the reader, exactly as reading them one by one would, and comes back
  // empty.
  [[nodiscard]] F64Run f64s(std::uint64_t n);
  [[nodiscard]] std::string str();
  [[nodiscard]] Bytes blob();
  // Same as blob(), but a view into the reader's input instead of a copy;
  // valid as long as that input is.
  [[nodiscard]] std::span<const std::uint8_t> blob_view();
  [[nodiscard]] bool boolean() {  // only 0 or 1, as ByteWriter writes
    const std::uint8_t b = u8();
    if (b > 1) fail();
    return b == 1;
  }

  // Mark the stream malformed (e.g. a field decoded to an out-of-range
  // enum value); all subsequent reads return zero and finish() fails.
  void invalidate() { ok_ = false; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  // Finish a decode: success only if no read failed *and* no bytes trail.
  [[nodiscard]] Status finish() const {
    if (!ok_) return Status(Errc::kDecodeError, "truncated or malformed");
    if (!at_end()) return Status(Errc::kDecodeError, "trailing bytes");
    return Status::Ok();
  }

 private:
  void fail() { ok_ = false; }
  template <typename T>
  T Fixed() {
    if (!ok_ || remaining() < sizeof(T)) {
      fail();
      return 0;
    }
    const T v = LoadLe<T>(&data_[pos_]);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace sor
