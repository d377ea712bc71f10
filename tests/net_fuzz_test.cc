// Protocol robustness fuzzing: decoders must reject — never crash on,
// never over-read — arbitrary, truncated, or bit-flipped input.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "net/message.h"
#include "net/wire.h"

namespace ecc::net {
namespace {

TEST(NetFuzzTest, RandomBytesNeverCrashFrameParser) {
  Rng rng(71);
  for (int round = 0; round < 5000; ++round) {
    std::string bytes(rng.Uniform(64), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    auto parsed = Message::Deserialize(bytes);
    if (!parsed.ok()) continue;
    // Whatever parses must re-serialize to the same bytes.
    EXPECT_EQ(parsed->Serialize(), bytes);
  }
}

TEST(NetFuzzTest, RandomPayloadsNeverCrashTypedDecoders) {
  Rng rng(73);
  for (int round = 0; round < 5000; ++round) {
    Message m;
    m.type = static_cast<MsgType>(1 + rng.Uniform(10));
    m.payload.resize(rng.Uniform(96));
    for (char& c : m.payload) c = static_cast<char>(rng.Next());
    // Every decoder must return a Status, not UB, regardless of type/bytes.
    (void)GetRequest::Decode(m);
    (void)GetResponse::Decode(m);
    (void)PutRequest::Decode(m);
    (void)PutResponse::Decode(m);
    (void)MigrateRequest::Decode(m);
    (void)MigrateResponse::Decode(m);
    (void)EraseRequest::Decode(m);
    (void)EraseResponse::Decode(m);
    (void)StatsRequest::Decode(m);
    (void)StatsResponse::Decode(m);
  }
}

class TruncationFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TruncationFuzz, EveryPrefixOfAValidFrameIsRejectedOrExact) {
  // Build a representative valid message per case, then feed every proper
  // prefix to the parser: all must fail cleanly.
  Message valid;
  switch (GetParam()) {
    case 0: valid = GetRequest{0x1234567890ULL}.Encode(); break;
    case 1: {
      GetResponse r;
      r.found = true;
      r.value = std::string(100, 'v');
      valid = r.Encode();
      break;
    }
    case 2: valid = PutRequest{7, std::string(64, 'p')}.Encode(); break;
    case 3: {
      MigrateRequest r;
      for (int i = 0; i < 20; ++i) r.records.emplace_back(i, "value");
      valid = r.Encode();
      break;
    }
    case 4: {
      EraseRequest r;
      r.keys = {1, 2, 3, 4, 5};
      valid = r.Encode();
      break;
    }
    default: valid = StatsResponse{1, 2, 3}.Encode(); break;
  }
  const std::string wire = valid.Serialize();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto parsed = Message::Deserialize(wire.substr(0, cut));
    ASSERT_FALSE(parsed.ok()) << "prefix of length " << cut << " accepted";
  }
  // The full frame round-trips.
  auto parsed = Message::Deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, valid.type);
  EXPECT_EQ(parsed->payload, valid.payload);
}

INSTANTIATE_TEST_SUITE_P(Frames, TruncationFuzz, ::testing::Range(0, 6));

TEST(NetFuzzTest, TruncatedTypedPayloadsRejected) {
  // Chop the payload (not the frame) at every offset: typed decoders must
  // reject every strict prefix.
  MigrateRequest req;
  Rng rng(77);
  for (int i = 0; i < 10; ++i) {
    req.records.emplace_back(rng.Next(), std::string(rng.Uniform(32), 'r'));
  }
  const Message valid = req.Encode();
  for (std::size_t cut = 0; cut < valid.payload.size(); ++cut) {
    Message chopped{valid.type, valid.payload.substr(0, cut)};
    auto decoded = MigrateRequest::Decode(chopped);
    if (decoded.ok()) {
      // A prefix can only decode if it forms a complete shorter batch;
      // verify it is internally consistent rather than over-read.
      ASSERT_LT(decoded->records.size(), req.records.size());
    }
  }
}

// Every single-bit flip of every byte of a frame — tag, length, checksum
// or payload — must fail the parse.  A flip in the tag is the dangerous
// one: ERASE (7) with bit 2 flipped is PUT (3), which a checksum over the
// payload alone would let through as a different request.
TEST(NetFuzzTest, BitFlipsAreContained) {
  const Message frames[] = {
      GetRequest{4242}.Encode(),
      PutRequest{42, std::string(50, 'p')}.Encode(),
      EraseRequest{{4242}}.Encode(),
  };
  for (const Message& valid : frames) {
    const std::string wire = valid.Serialize();
    for (std::size_t pos = 0; pos < wire.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string mutated = wire;
        mutated[pos] = static_cast<char>(
            static_cast<unsigned char>(mutated[pos]) ^ (1u << bit));
        EXPECT_FALSE(Message::Deserialize(mutated).ok())
            << MsgTypeName(valid.type) << " frame, byte " << pos << " bit "
            << bit << " flipped and still parsed";
      }
    }
  }
}

TEST(NetFuzzTest, WireReaderNeverOverreads) {
  Rng rng(83);
  for (int round = 0; round < 3000; ++round) {
    std::string bytes(rng.Uniform(40), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.Next());
    WireReader r(bytes);
    // Drain with a random op sequence; remaining() must stay consistent.
    while (!r.exhausted()) {
      const std::size_t before = r.remaining();
      Status s = Status::Ok();
      switch (rng.Uniform(4)) {
        case 0: {
          std::uint8_t v;
          s = r.GetU8(v);
          break;
        }
        case 1: {
          std::uint64_t v;
          s = r.GetU64(v);
          break;
        }
        case 2: {
          std::uint64_t v;
          s = r.GetVarint(v);
          break;
        }
        default: {
          std::string v;
          s = r.GetBytes(v);
          break;
        }
      }
      ASSERT_LE(r.remaining(), before);
      if (!s.ok()) break;  // stuck on malformed input: done
      ASSERT_LT(r.remaining(), before) << "successful read consumed nothing";
    }
  }
}

}  // namespace
}  // namespace ecc::net
