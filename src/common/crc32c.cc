#include "common/crc32c.h"

#include <array>
#include <cstddef>
#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <nmmintrin.h>
#endif

namespace ecc::crc32c {

namespace {

static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "the 8-byte steps assume a little-endian host");

constexpr std::uint32_t kPoly = 0x82F63B78u;  // 0x1EDC6F41, bit-reflected

/// kSlice[k][b]: the CRC register after byte b and then k zero bytes, from a
/// zero register.  Row 0 is the classic byte-at-a-time table.
using SliceTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr SliceTables MakeSliceTables() {
  SliceTables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int bit = 0; bit < 8; ++bit) c = (c >> 1) ^ ((c & 1u) ? kPoly : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      const std::uint32_t prev = t[k - 1][b];
      t[k][b] = (prev >> 8) ^ t[0][prev & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kSlice = MakeSliceTables();

std::uint64_t LoadU64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

bool Aligned8(const unsigned char* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 7u) == 0;
}

std::uint32_t StepByte(std::uint32_t c, unsigned char b) {
  return (c >> 8) ^ kSlice[0][(c ^ b) & 0xFFu];
}

#if defined(__x86_64__)

/// Bytes per stream in one block of the three-stream loop.  Long blocks
/// carry the bulk of a large buffer; short blocks keep the streams
/// interleaved on what is left, so only the last < 3 * kShortStream bytes
/// run as a single dependent chain.  Both block sizes fit inside 4 KiB,
/// which is what crc32c_test sweeps.
constexpr std::size_t kLongStream = 1024;
constexpr std::size_t kShortStream = 128;

/// Multiplying a CRC register by x^(8n) — appending n zero bytes — is
/// linear over GF(2), so it is a table lookup per register byte.
/// ShiftTable[j][b] is the effect of byte j of the register holding b.
using ShiftTable = std::array<std::array<std::uint32_t, 256>, 4>;

constexpr ShiftTable MakeShiftTable(std::size_t zero_bytes) {
  // The images of the 32 single-bit registers; every table entry is the XOR
  // of the images of its set bits.
  std::array<std::uint32_t, 32> basis{};
  for (std::size_t i = 0; i < basis.size(); ++i) {
    std::uint32_t c = 1u << i;
    for (std::size_t z = 0; z < zero_bytes; ++z) {
      c = (c >> 8) ^ kSlice[0][c & 0xFFu];
    }
    basis[i] = c;
  }
  ShiftTable t{};
  for (std::size_t j = 0; j < t.size(); ++j) {
    for (std::uint32_t b = 0; b < 256; ++b) {
      std::uint32_t v = 0;
      for (std::size_t bit = 0; bit < 8; ++bit) {
        if ((b >> bit) & 1u) v ^= basis[8 * j + bit];
      }
      t[j][b] = v;
    }
  }
  return t;
}

constexpr ShiftTable kShiftLong = MakeShiftTable(kLongStream);
constexpr ShiftTable kShiftShort = MakeShiftTable(kShortStream);

std::uint64_t Shift(const ShiftTable& t, std::uint64_t c) {
  return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^ t[2][(c >> 16) & 0xFFu] ^
         t[3][(c >> 24) & 0xFFu];
}

/// Consume whole blocks of 3 * kStream bytes.  The CRC32 instruction has a
/// latency of three cycles and a throughput of one, so three independent
/// chains keep it busy; the second and third start from a zero register
/// and are folded in by shifting the running register past them.
template <std::size_t kStream>
__attribute__((target("sse4.2"))) void ThreeStreams(
    const ShiftTable& shift, std::uint64_t& c0, const unsigned char*& p,
    std::size_t& n) {
  while (n >= 3 * kStream) {
    std::uint64_t c1 = 0;
    std::uint64_t c2 = 0;
    for (std::size_t i = 0; i < kStream; i += 8) {
      c0 = _mm_crc32_u64(c0, LoadU64(p + i));
      c1 = _mm_crc32_u64(c1, LoadU64(p + kStream + i));
      c2 = _mm_crc32_u64(c2, LoadU64(p + 2 * kStream + i));
    }
    c0 = Shift(shift, c0) ^ c1;
    c0 = Shift(shift, c0) ^ c2;
    p += 3 * kStream;
    n -= 3 * kStream;
  }
}

__attribute__((target("sse4.2"))) std::uint32_t Sse42(std::uint32_t crc,
                                                       std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint64_t c = ~crc;
  for (; n > 0 && !Aligned8(p); --n) {
    c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  }
  ThreeStreams<kLongStream>(kShiftLong, c, p, n);
  ThreeStreams<kShortStream>(kShiftShort, c, p, n);
  for (; n >= 8; n -= 8, p += 8) c = _mm_crc32_u64(c, LoadU64(p));
  for (; n > 0; --n) c = _mm_crc32_u8(static_cast<std::uint32_t>(c), *p++);
  return ~static_cast<std::uint32_t>(c);
}

#endif  // __x86_64__

}  // namespace

std::uint32_t ExtendPortable(std::uint32_t crc, std::string_view data) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  std::size_t n = data.size();
  std::uint32_t c = ~crc;
  for (; n > 0 && !Aligned8(p); --n) c = StepByte(c, *p++);
  for (; n >= 8; n -= 8, p += 8) {
    // The first byte in memory is the lowest; it still has seven bytes to
    // travel through, hence row 7.
    const std::uint64_t w = LoadU64(p) ^ c;
    c = kSlice[7][w & 0xFFu] ^ kSlice[6][(w >> 8) & 0xFFu] ^
        kSlice[5][(w >> 16) & 0xFFu] ^ kSlice[4][(w >> 24) & 0xFFu] ^
        kSlice[3][(w >> 32) & 0xFFu] ^ kSlice[2][(w >> 40) & 0xFFu] ^
        kSlice[1][(w >> 48) & 0xFFu] ^ kSlice[0][w >> 56];
  }
  for (; n > 0; --n) c = StepByte(c, *p++);
  return ~c;
}

bool HardwareAvailable() {
#if defined(__x86_64__)
  unsigned eax = 0;
  unsigned ebx = 0;
  unsigned ecx = 0;
  unsigned edx = 0;
  return __get_cpuid(1, &eax, &ebx, &ecx, &edx) != 0 &&
         (ecx & bit_SSE4_2) != 0;
#else
  return false;
#endif
}

std::uint32_t ExtendHardware(std::uint32_t crc, std::string_view data) {
#if defined(__x86_64__)
  return Sse42(crc, data);
#else
  return ExtendPortable(crc, data);
#endif
}

std::uint32_t Extend(std::uint32_t crc, std::string_view data) {
  using Impl = std::uint32_t (*)(std::uint32_t, std::string_view);
  static const Impl impl =
      HardwareAvailable() ? &ExtendHardware : &ExtendPortable;
  return impl(crc, data);
}

}  // namespace ecc::crc32c
