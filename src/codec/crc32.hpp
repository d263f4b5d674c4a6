// CRC-32 (IEEE 802.3 polynomial, reflected).
//
// Used to detect corruption in barcode payloads and framed wire messages.
#pragma once

#include <cstdint>
#include <span>

namespace sor {

[[nodiscard]] std::uint32_t Crc32(std::span<const std::uint8_t> data);

// How many bytes the calling thread has passed to Crc32, for operation-count
// gates on how often a message is hashed.
[[nodiscard]] std::uint64_t crc32_bytes_on_this_thread();

}  // namespace sor
