// Tests for the wire format, protocol messages, network model, and the
// loopback RPC channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "common/time.h"
#include "net/message.h"
#include "net/netmodel.h"
#include "net/rpc.h"
#include "net/wire.h"

namespace ecc::net {
namespace {

// --- wire -------------------------------------------------------------------

TEST(WireTest, FixedWidthRoundTrip) {
  WireWriter w;
  w.PutU8(0xab);
  w.PutU16(0xbeef);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.25);

  WireReader r(w.buffer());
  std::uint8_t u8 = 0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  double d = 0;
  ASSERT_TRUE(r.GetU8(u8).ok());
  ASSERT_TRUE(r.GetU16(u16).ok());
  ASSERT_TRUE(r.GetU32(u32).ok());
  ASSERT_TRUE(r.GetU64(u64).ok());
  ASSERT_TRUE(r.GetDouble(d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, 3.25);
  EXPECT_TRUE(r.exhausted());
}

TEST(WireTest, VarintRoundTripBoundaryValues) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xffffffffull, 0xffffffffffffffffull}) {
    WireWriter w;
    w.PutVarint(v);
    WireReader r(w.buffer());
    std::uint64_t out = 0;
    ASSERT_TRUE(r.GetVarint(out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(WireTest, VarintEncodingIsCompact) {
  WireWriter w;
  w.PutVarint(127);
  EXPECT_EQ(w.size(), 1u);
  w.PutVarint(128);
  EXPECT_EQ(w.size(), 3u);  // +2
}

TEST(WireTest, BytesRoundTripIncludingEmbeddedNul) {
  WireWriter w;
  const std::string payload("a\0b\xff", 4);
  w.PutBytes(payload);
  WireReader r(w.buffer());
  std::string out;
  ASSERT_TRUE(r.GetBytes(out).ok());
  EXPECT_EQ(out, payload);
}

TEST(WireTest, UnderrunIsError) {
  WireWriter w;
  w.PutU8(1);
  WireReader r(w.buffer());
  std::uint64_t u64 = 0;
  EXPECT_FALSE(r.GetU64(u64).ok());
}

TEST(WireTest, TruncatedBytesIsError) {
  WireWriter w;
  w.PutVarint(100);  // claims 100 bytes follow
  w.PutU8('x');      // only one does
  WireReader r(w.buffer());
  std::string out;
  EXPECT_FALSE(r.GetBytes(out).ok());
}

TEST(WireTest, ResizeUninitializedKeepsPrefixAndSize) {
  std::string s = "prefix";
  ResizeUninitialized(s, 100000);  // grows past the small-string buffer
  ASSERT_EQ(s.size(), 100000u);
  EXPECT_EQ(s.substr(0, 6), "prefix");
  EXPECT_EQ(s.c_str()[s.size()], '\0');
  std::fill(s.begin() + 6, s.end(), 'x');
  ResizeUninitialized(s, 8);  // shrinks like resize
  EXPECT_EQ(s, "prefixxx");
}

// --- message framing --------------------------------------------------------

TEST(MessageTest, SerializeDeserializeRoundTrip) {
  Message m{MsgType::kPutRequest, "payload-bytes"};
  auto parsed = Message::Deserialize(m.Serialize());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->type, MsgType::kPutRequest);
  EXPECT_EQ(parsed->payload, "payload-bytes");
}

TEST(MessageTest, RejectsUnknownTag) {
  std::string wire = Message{MsgType::kGetRequest, ""}.Serialize();
  wire[0] = 99;
  EXPECT_FALSE(Message::Deserialize(wire).ok());
}

TEST(MessageTest, RejectsLengthMismatch) {
  std::string wire = Message{MsgType::kGetRequest, "abc"}.Serialize();
  wire.pop_back();
  EXPECT_FALSE(Message::Deserialize(wire).ok());
}

// --- typed payloads ---------------------------------------------------------

TEST(ProtocolTest, GetRoundTrip) {
  const GetRequest req{0xfeedULL};
  auto decoded = GetRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, 0xfeedULL);
}

TEST(ProtocolTest, GetResponseRoundTrip) {
  GetResponse resp;
  resp.found = true;
  resp.value = std::string(500, 'v');
  auto decoded = GetResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->found);
  EXPECT_EQ(decoded->value.size(), 500u);
}

TEST(ProtocolTest, PutRoundTrip) {
  const PutRequest req{42, "value"};
  auto decoded = PutRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->key, 42u);
  EXPECT_EQ(decoded->value, "value");
}

TEST(ProtocolTest, MigrateBatchRoundTrip) {
  MigrateRequest req;
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    req.records.emplace_back(rng.Next(),
                             std::string(rng.Uniform(64), 'r'));
  }
  auto decoded = MigrateRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->records.size(), 100u);
  EXPECT_EQ(decoded->records, req.records);
}

TEST(ProtocolTest, EraseRoundTrip) {
  EraseRequest req;
  req.keys = {1, 2, 3, 0xffffffffffffffffULL};
  auto decoded = EraseRequest::Decode(req.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->keys, req.keys);
}

TEST(ProtocolTest, StatsRoundTrip) {
  StatsResponse resp{100, 2048, 4096};
  auto decoded = StatsResponse::Decode(resp.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->records, 100u);
  EXPECT_EQ(decoded->used_bytes, 2048u);
  EXPECT_EQ(decoded->capacity_bytes, 4096u);
}

TEST(ProtocolTest, DecodeRejectsWrongType) {
  const GetRequest req{1};
  EXPECT_FALSE(PutRequest::Decode(req.Encode()).ok());
}

// --- network model ----------------------------------------------------------

TEST(NetworkModelTest, TransferTimeIsLatencyPlusBandwidth) {
  NetworkModelOptions opts;
  opts.rtt = Duration::Millis(1);
  opts.bandwidth_bytes_per_sec = 1e6;  // 1 MB/s
  opts.per_message_overhead_bytes = 0;
  const NetworkModel model(opts);
  // 1000 bytes at 1 MB/s = 1 ms, plus 1 ms rtt.
  EXPECT_NEAR(model.TransferTime(1000).seconds(), 0.002, 1e-9);
}

TEST(NetworkModelTest, BatchingAmortizesLatency) {
  const NetworkModel model;
  const Duration single = model.PerRecordTime(1000, 1);
  const Duration batched = model.PerRecordTime(1000, 64);
  EXPECT_LT(batched, single);
}

TEST(NetworkModelTest, RoundTripSumsBothLegs) {
  const NetworkModel model;
  EXPECT_EQ(model.RoundTripTime(100, 200).micros(),
            (model.TransferTime(100) + model.TransferTime(200)).micros());
}

// --- RPC --------------------------------------------------------------------

TEST(RpcTest, DispatchRoutesToHandler) {
  RpcServer server;
  server.Handle(MsgType::kGetRequest,
                [](const Message& m) -> StatusOr<Message> {
                  auto req = GetRequest::Decode(m);
                  if (!req.ok()) return req.status();
                  GetResponse resp;
                  resp.found = req->key == 7;
                  return resp.Encode();
                });
  auto out = server.Dispatch(GetRequest{7}.Encode());
  ASSERT_TRUE(out.ok());
  auto resp = GetResponse::Decode(*out);
  ASSERT_TRUE(resp.ok());
  EXPECT_TRUE(resp->found);
}

TEST(RpcTest, UnknownTypeIsUnavailable) {
  RpcServer server;
  EXPECT_EQ(server.Dispatch(StatsRequest{}.Encode()).status().code(),
            StatusCode::kUnavailable);
}

TEST(RpcTest, LoopbackChargesClockBothWays) {
  RpcServer server;
  server.Handle(MsgType::kGetRequest,
                [](const Message&) -> StatusOr<Message> {
                  GetResponse resp;
                  resp.found = true;
                  resp.value = std::string(10000, 'x');
                  return resp.Encode();
                });
  NetworkModelOptions opts;
  opts.rtt = Duration::Millis(1);
  opts.bandwidth_bytes_per_sec = 1e6;
  VirtualClock clock;
  LoopbackChannel channel(&server, NetworkModel(opts), &clock);
  auto out = channel.Call(GetRequest{1}.Encode());
  ASSERT_TRUE(out.ok());
  // Two rtts plus ~10 KB at 1 MB/s ~= 10 ms of payload time.
  EXPECT_GT(clock.now().seconds(), 0.011);
  EXPECT_LT(clock.now().seconds(), 0.02);
  EXPECT_EQ(channel.stats().calls, 1u);
  EXPECT_GT(channel.stats().bytes_received, 10000u);
}

TEST(RpcTest, NullClockSkipsTimeAccounting) {
  RpcServer server;
  server.Handle(MsgType::kStatsRequest,
                [](const Message&) -> StatusOr<Message> {
                  return StatsResponse{}.Encode();
                });
  LoopbackChannel channel(&server, NetworkModel{}, nullptr);
  EXPECT_TRUE(channel.Call(StatsRequest{}.Encode()).ok());
}

}  // namespace
}  // namespace ecc::net
