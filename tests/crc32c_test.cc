// Tests for src/common/crc32c: the RFC 3720 check values on both paths,
// the SSE4.2 path against the portable one across every block boundary of
// its interleaved loop and every start alignment, and Extend's
// composition rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32c.h"
#include "common/rng.h"

namespace ecc::crc32c {
namespace {

using Impl = std::uint32_t (*)(std::uint32_t, std::string_view);

std::string Bytes(std::size_t n, Rng& rng) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.Next());
  return s;
}

std::string Ramp(int first, int step) {
  std::string s;
  for (int i = 0; i < 32; ++i) s.push_back(static_cast<char>(first + step * i));
  return s;
}

void ExpectCheckValues(Impl impl) {
  // RFC 3720 §B.4.
  EXPECT_EQ(impl(0, std::string(32, '\x00')), 0x8A9136AAu);
  EXPECT_EQ(impl(0, std::string(32, '\xFF')), 0x62A8AB43u);
  EXPECT_EQ(impl(0, Ramp(0x00, 1)), 0x46DD794Eu);
  EXPECT_EQ(impl(0, Ramp(0x1F, -1)), 0x113FDB5Cu);
  // The catalogue check value.
  EXPECT_EQ(impl(0, "123456789"), 0xE3069283u);
  EXPECT_EQ(impl(0, ""), 0u);
}

TEST(Crc32cTest, PortableMatchesCheckValues) {
  ExpectCheckValues(&ExtendPortable);
}

TEST(Crc32cTest, HardwareMatchesCheckValues) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  ExpectCheckValues(&ExtendHardware);
}

TEST(Crc32cTest, DispatchedMatchesCheckValues) {
  ExpectCheckValues(&Extend);
  EXPECT_EQ(Value("123456789"), 0xE3069283u);
}

// Every length 0..4096 at every start offset 0..7: covers the alignment
// prologue, both block sizes of the three-stream loop, and the serial tail.
TEST(Crc32cTest, HardwareEqualsPortableAtEveryLengthAndAlignment) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Rng rng(0xC3C32);
  const std::string buf = Bytes(4096 + 8, rng);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view s(buf.data() + off, len);
      ASSERT_EQ(ExtendHardware(0, s), ExtendPortable(0, s))
          << "offset " << off << " length " << len;
      ASSERT_EQ(ExtendHardware(0xDEADBEEFu, s),
                ExtendPortable(0xDEADBEEFu, s))
          << "seeded, offset " << off << " length " << len;
    }
  }
}

TEST(Crc32cTest, HardwareEqualsPortableOnOneMebibyte) {
  if (!HardwareAvailable()) GTEST_SKIP() << "no SSE4.2 on this CPU";
  Rng rng(0x1A1B);
  const std::string buf = Bytes(1u << 20, rng);
  EXPECT_EQ(ExtendHardware(0, buf), ExtendPortable(0, buf));
}

TEST(Crc32cTest, ExtendComposesWithValue) {
  Rng rng(0xE7);
  std::vector<Impl> impls = {&ExtendPortable, &Extend};
  if (HardwareAvailable()) impls.push_back(&ExtendHardware);
  for (const Impl impl : impls) {
    for (const std::size_t total : {0u, 1u, 9u, 100u, 5000u}) {
      const std::string all = Bytes(total, rng);
      const std::uint32_t whole = impl(0, all);
      for (std::size_t cut = 0; cut <= total; cut += 1 + total / 7) {
        const std::string_view a(all.data(), cut);
        const std::string_view b(all.data() + cut, total - cut);
        EXPECT_EQ(impl(impl(0, a), b), whole)
            << "total " << total << " cut " << cut;
      }
    }
  }
}

}  // namespace
}  // namespace ecc::crc32c
