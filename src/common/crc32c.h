// CRC32C (Castagnoli), the one checksum of every byte path in the tree:
// wire frames (net/message.h), WAL records (durability/wal.h) and
// snapshot files (durability/snapshot.h).
//
// Polynomial 0x1EDC6F41, bit-reflected (0x82F63B78), initial value and
// final XOR 0xFFFFFFFF — the iSCSI CRC of RFC 3720, so Value("123456789")
// is 0xE3069283.  Values compose: Extend(Value(a), b) == Value(a + b),
// which lets a caller checksum a header and a payload that live in
// different buffers without joining them first.
//
// Two implementations sit behind Extend, chosen once per process from
// cpuid: on SSE4.2 hosts the CRC32 instruction over three interleaved
// streams, whose partial CRCs are joined with precomputed shift tables;
// elsewhere a portable slice-by-8 table walk.  Both produce identical
// values.
#pragma once

#include <cstdint>
#include <string_view>

namespace ecc::crc32c {

/// CRC32C of `data` appended to a stream whose CRC32C so far is `crc`
/// (0 for an empty stream).
[[nodiscard]] std::uint32_t Extend(std::uint32_t crc, std::string_view data);

/// CRC32C of `data`.
[[nodiscard]] inline std::uint32_t Value(std::string_view data) {
  return Extend(0, data);
}

// --- The two implementations, exposed so tests can hold them equal -------

/// Slice-by-8 table walk; runs on any host.
[[nodiscard]] std::uint32_t ExtendPortable(std::uint32_t crc,
                                           std::string_view data);

/// True when this CPU has SSE4.2 (cpuid leaf 1, ECX bit 20).
[[nodiscard]] bool HardwareAvailable();

/// The three-stream SSE4.2 path.  Call only when HardwareAvailable(); on
/// non-x86 builds it is the portable path.
[[nodiscard]] std::uint32_t ExtendHardware(std::uint32_t crc,
                                           std::string_view data);

}  // namespace ecc::crc32c
