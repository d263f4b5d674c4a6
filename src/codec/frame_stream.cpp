#include "codec/frame_stream.hpp"

#include "codec/crc32.hpp"

namespace sor::codec {

namespace {

constexpr std::size_t kHeaderSize = 4;   // u32 payload length
constexpr std::size_t kTrailerSize = 4;  // u32 crc32(payload)
static_assert(kHeaderSize + kTrailerSize == kFrameOverhead);

std::uint32_t ReadU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

void PutU32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

}  // namespace

void AppendFrame(Bytes& out, std::span<const std::uint8_t> payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  PutU32(out, Crc32(payload));
}

void FrameStreamReader::Feed(std::span<const std::uint8_t> bytes) {
  if (bad_) return;  // poisoned: don't grow an unusable buffer
  // Compact lazily: only when the consumed prefix dominates the buffer, so
  // steady-state streaming is append-only.
  if (pos_ > 0 && pos_ * 2 >= buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

FrameStreamReader::Next FrameStreamReader::Pop(Bytes* out) {
  if (bad_) return Next::kBad;
  const std::size_t have = buf_.size() - pos_;
  if (have < kHeaderSize) return Next::kNeedMore;
  const std::uint32_t len = ReadU32(buf_.data() + pos_);
  if (len > max_payload_) {
    bad_ = true;
    error_ = "oversized record (" + std::to_string(len) + " bytes)";
    return Next::kBad;
  }
  const std::size_t total = kHeaderSize + len + kTrailerSize;
  if (have < total) return Next::kNeedMore;
  const std::uint8_t* payload = buf_.data() + pos_ + kHeaderSize;
  const std::uint32_t want = ReadU32(payload + len);
  if (Crc32(std::span<const std::uint8_t>(payload, len)) != want) {
    bad_ = true;
    error_ = "record crc mismatch";
    return Next::kBad;
  }
  out->assign(payload, payload + len);
  pos_ += total;
  ++frames_;
  return Next::kFrame;
}

void FrameStreamReader::Reset() {
  buf_.clear();
  pos_ = 0;
  bad_ = false;
  error_.clear();
}

}  // namespace sor::codec
