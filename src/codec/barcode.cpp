#include "codec/barcode.hpp"

#include <array>
#include <cmath>

#include "codec/crc32.hpp"
#include "codec/reed_solomon.hpp"

namespace sor {

namespace {

constexpr std::uint8_t kBarcodeVersion = 1;

// Reed–Solomon armor: every barcode carries nsym parity bytes per block,
// so up to nsym/2 damaged bytes per block are *corrected*, not just
// detected (the CRC inside the payload still guards against miscorrection).
constexpr int kBarcodeNsym = 16;
constexpr int kBarcodeBlockData = kRsMaxBlock - kBarcodeNsym;  // 239

// Layout: u8 block-count, then per block: u8 codeword-length, codeword.
Bytes ArmorBytes(const Bytes& payload) {
  const std::size_t blocks =
      (payload.size() + kBarcodeBlockData - 1) / kBarcodeBlockData;
  Bytes out;
  out.push_back(static_cast<std::uint8_t>(blocks));
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * kBarcodeBlockData;
    const std::size_t hi =
        std::min(payload.size(), lo + kBarcodeBlockData);
    const Result<Bytes> block = RsEncode(
        std::span<const std::uint8_t>(payload.data() + lo, hi - lo),
        kBarcodeNsym);
    // Block size is bounded by construction; encode cannot fail.
    out.push_back(static_cast<std::uint8_t>(block.value().size()));
    out.insert(out.end(), block.value().begin(), block.value().end());
  }
  return out;
}

Result<Bytes> DearmorBytes(std::span<const std::uint8_t> armored) {
  if (armored.empty())
    return Error{Errc::kDecodeError, "empty barcode"};
  const int blocks = armored[0];
  if (blocks < 1 || blocks > 16)
    return Error{Errc::kDecodeError, "bad barcode block count"};
  std::size_t pos = 1;
  Bytes payload;
  for (int b = 0; b < blocks; ++b) {
    if (pos >= armored.size())
      return Error{Errc::kDecodeError, "truncated barcode block"};
    const std::size_t len = armored[pos++];
    if (pos + len > armored.size())
      return Error{Errc::kDecodeError, "truncated barcode block"};
    Result<Bytes> data =
        RsDecode(armored.subspan(pos, len), kBarcodeNsym);
    if (!data.ok()) return data.error();
    payload.insert(payload.end(), data.value().begin(),
                   data.value().end());
    pos += len;
  }
  if (pos != armored.size())
    return Error{Errc::kDecodeError, "trailing bytes after barcode blocks"};
  return payload;
}

// --- finder pattern geometry -------------------------------------------
// A 5x5 finder block (dark ring, light ring, dark center) is stamped in
// three corners, as in QR codes; the scanner requires all three before it
// trusts the data region.
constexpr int kFinder = 5;

bool FinderModule(int r, int c) {
  // ring structure within the 5x5 block
  const int ring = std::max(std::abs(r - 2), std::abs(c - 2));
  return ring != 1;  // dark outer ring + dark center, light middle ring
}

struct Corner {
  int r0, c0;
};

std::array<Corner, 3> FinderCorners(int size) {
  return {{{0, 0}, {0, size - kFinder}, {size - kFinder, 0}}};
}

bool InFinder(int size, int r, int c) {
  for (const Corner& k : FinderCorners(size)) {
    if (r >= k.r0 && r < k.r0 + kFinder && c >= k.c0 && c < k.c0 + kFinder)
      return true;
  }
  return false;
}

constexpr char kBase32Alphabet[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ234567";

int Base32Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a';
  if (c >= '2' && c <= '7') return c - '2' + 26;
  return -1;
}

}  // namespace

Bytes EncodeBarcodeBytes(const BarcodePayload& p) {
  ByteWriter w;
  w.u8(kBarcodeVersion);
  w.varint(p.app.value());
  w.varint(p.place.value());
  w.str(p.place_name);
  w.f64(p.location.lat_deg);
  w.f64(p.location.lon_deg);
  w.f64(p.location.alt_m);
  w.str(p.server);
  w.f64(p.radius_m);
  w.u32_fixed(Crc32(w.bytes()));
  return ArmorBytes(w.bytes());
}

Result<BarcodePayload> DecodeBarcodeBytes(std::span<const std::uint8_t> raw) {
  Result<Bytes> dearmored = DearmorBytes(raw);
  if (!dearmored.ok()) return dearmored.error();
  const Bytes& data = dearmored.value();
  if (data.size() < 5) return Error{Errc::kDecodeError, "barcode too short"};
  const auto payload =
      std::span<const std::uint8_t>(data).first(data.size() - 4);
  ByteReader tail(
      std::span<const std::uint8_t>(data).subspan(data.size() - 4));
  if (Crc32(payload) != tail.u32_fixed())
    return Error{Errc::kDecodeError, "barcode crc mismatch"};

  ByteReader r(payload);
  if (r.u8() != kBarcodeVersion)
    return Error{Errc::kDecodeError, "unsupported barcode version"};
  BarcodePayload p;
  p.app = AppId{r.varint()};
  p.place = PlaceId{r.varint()};
  p.place_name = r.str();
  p.location.lat_deg = r.f64();
  p.location.lon_deg = r.f64();
  p.location.alt_m = r.f64();
  p.server = r.str();
  p.radius_m = r.f64();
  if (Status s = r.finish(); !s.ok()) return s.error();
  return p;
}

std::string EncodeBarcodeText(const BarcodePayload& p) {
  const Bytes data = EncodeBarcodeBytes(p);
  std::string out;
  out.reserve((data.size() * 8 + 4) / 5);
  std::uint32_t acc = 0;
  int bits = 0;
  for (std::uint8_t b : data) {
    acc = (acc << 8) | b;
    bits += 8;
    while (bits >= 5) {
      out.push_back(kBase32Alphabet[(acc >> (bits - 5)) & 0x1f]);
      bits -= 5;
    }
  }
  if (bits > 0) out.push_back(kBase32Alphabet[(acc << (5 - bits)) & 0x1f]);
  return out;
}

Result<BarcodePayload> DecodeBarcodeText(const std::string& s) {
  Bytes data;
  std::uint32_t acc = 0;
  int bits = 0;
  for (char c : s) {
    const int v = Base32Value(c);
    if (v < 0) return Error{Errc::kDecodeError, "invalid base32 character"};
    acc = (acc << 5) | static_cast<std::uint32_t>(v);
    bits += 5;
    if (bits >= 8) {
      data.push_back(static_cast<std::uint8_t>((acc >> (bits - 8)) & 0xff));
      bits -= 8;
    }
  }
  return DecodeBarcodeBytes(data);
}

std::string BitMatrix::ascii() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(size_) * (2 * size_ + 1));
  for (int r = 0; r < size_; ++r) {
    for (int c = 0; c < size_; ++c) out += get(r, c) ? "##" : "  ";
    out += '\n';
  }
  return out;
}

BitMatrix RenderBarcodeMatrix(const BarcodePayload& p) {
  const Bytes data = EncodeBarcodeBytes(p);
  // Capacity: every non-finder module carries one bit. 16 header bits carry
  // the payload bit-length. Grow the grid until everything fits.
  const int payload_bits = static_cast<int>(data.size()) * 8;
  int size = kFinder * 2 + 2;
  while (size * size - 3 * kFinder * kFinder < payload_bits + 16) ++size;

  BitMatrix m(size);
  for (const Corner& k : FinderCorners(size)) {
    for (int r = 0; r < kFinder; ++r)
      for (int c = 0; c < kFinder; ++c)
        m.set(k.r0 + r, k.c0 + c, FinderModule(r, c));
  }

  auto bit_at = [&](int i) -> bool {
    if (i < 16) return ((payload_bits >> (15 - i)) & 1) != 0;
    const int j = i - 16;
    return ((data[static_cast<std::size_t>(j / 8)] >> (7 - j % 8)) & 1) != 0;
  };

  int idx = 0;
  const int total = payload_bits + 16;
  for (int r = 0; r < size && idx < total; ++r) {
    for (int c = 0; c < size && idx < total; ++c) {
      if (InFinder(size, r, c)) continue;
      m.set(r, c, bit_at(idx++));
    }
  }
  return m;
}

Result<BarcodePayload> ScanBarcodeMatrix(const BitMatrix& m) {
  const int size = m.size();
  if (size < kFinder * 2 + 2)
    return Error{Errc::kDecodeError, "matrix too small"};
  // Verify the three finder patterns; a real scanner locates the code by
  // them, we reject the scan if any module is damaged.
  for (const Corner& k : FinderCorners(size)) {
    for (int r = 0; r < kFinder; ++r) {
      for (int c = 0; c < kFinder; ++c) {
        if (m.get(k.r0 + r, k.c0 + c) != FinderModule(r, c))
          return Error{Errc::kDecodeError, "finder pattern damaged"};
      }
    }
  }

  // Read the 16-bit length header, then the payload bits.
  std::vector<bool> stream;
  stream.reserve(static_cast<std::size_t>(size) * size);
  for (int r = 0; r < size; ++r) {
    for (int c = 0; c < size; ++c) {
      if (InFinder(size, r, c)) continue;
      stream.push_back(m.get(r, c));
    }
  }
  if (stream.size() < 16)
    return Error{Errc::kDecodeError, "no length header"};
  int payload_bits = 0;
  for (int i = 0; i < 16; ++i)
    payload_bits = (payload_bits << 1) | (stream[i] ? 1 : 0);
  if (payload_bits % 8 != 0 ||
      static_cast<std::size_t>(payload_bits) > stream.size() - 16)
    return Error{Errc::kDecodeError, "bad payload length"};

  Bytes data(static_cast<std::size_t>(payload_bits / 8), 0);
  for (int i = 0; i < payload_bits; ++i) {
    if (stream[static_cast<std::size_t>(16 + i)])
      data[static_cast<std::size_t>(i / 8)] |=
          static_cast<std::uint8_t>(1u << (7 - i % 8));
  }
  return DecodeBarcodeBytes(data);
}

}  // namespace sor
