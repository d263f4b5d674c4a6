// Length-prefixed frame streaming over byte-stream transports.
//
// A LoopbackNetwork delivery hands the receiver exactly one SOR5 frame, so
// framing is implicit there; a socket hands the receiver an arbitrary run
// of bytes. This module is the single place that turns discrete frames
// into a byte stream and back:
//
//   record := u32 length (LE, payload bytes)
//           | payload (the SOR5 envelope, or a transport record)
//           | u32 CRC-32 of the payload (LE)
//
// The CRC is deliberately redundant with the SOR5 envelope's own CRC: the
// stream layer must reject a mangled record *before* trusting its length
// field to resynchronize, and transport records (channel.hpp) carry
// headers the envelope CRC does not cover.
//
// The reader is incremental — feed it whatever chunk sizes the socket
// produces and pop whole validated payloads. Framing errors (oversized
// length, CRC mismatch) poison the stream: once byte alignment is lost
// there is no way to find the next record boundary, so the connection must
// be dropped. The socket and pipe transports route every frame through
// this codec; LoopbackNetwork crosses no byte stream and only counts the
// record size, kFrameOverhead more than the frame's.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "codec/bytes.hpp"

namespace sor::codec {

// Upper bound on one record's payload. Generous — the largest legitimate
// frame is a schedule for a huge app — while still rejecting a corrupt
// length field before it turns into a multi-gigabyte allocation.
inline constexpr std::size_t kMaxFramePayload = 16u << 20;  // 16 MiB

// Bytes a record adds around its payload: the length prefix and the CRC.
inline constexpr std::size_t kFrameOverhead = 8;

// Append one framed record carrying `payload` to `out`.
void AppendFrame(Bytes& out, std::span<const std::uint8_t> payload);

// Incremental reader over a stream of AppendFrame records.
class FrameStreamReader {
 public:
  explicit FrameStreamReader(std::size_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  // Buffer the next chunk of stream bytes (any size, including empty).
  void Feed(std::span<const std::uint8_t> bytes);

  enum class Next {
    kFrame,     // *out holds the next validated payload
    kNeedMore,  // no complete record buffered yet
    kBad,       // framing lost (oversized or corrupt); stream unusable
  };

  // Extract the next payload. After kBad every further Pop returns kBad:
  // the record boundary is gone and the connection must be dropped.
  [[nodiscard]] Next Pop(Bytes* out);

  [[nodiscard]] bool bad() const { return bad_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::uint64_t frames_popped() const { return frames_; }
  // Bytes buffered but not yet consumed by a popped record.
  [[nodiscard]] std::size_t buffered() const { return buf_.size() - pos_; }

  // Forget all buffered bytes and clear the poison flag (new connection).
  void Reset();

 private:
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::size_t max_payload_;
  std::uint64_t frames_ = 0;
  bool bad_ = false;
  std::string error_;
};

}  // namespace sor::codec
