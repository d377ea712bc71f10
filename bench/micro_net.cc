// Micro-benchmarks for the wire/RPC substrate: serialization throughput of
// the cache protocol, the CRC32C checksum, and the full loopback round trip.
#include <benchmark/benchmark.h>

#include <string>

#include "common/crc32c.h"
#include "common/rng.h"
#include "net/message.h"
#include "net/rpc.h"

namespace {

using ecc::Rng;
namespace net = ecc::net;

void BM_PutRequestEncode(benchmark::State& state) {
  const net::PutRequest req{42, std::string(state.range(0), 'v')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(req.Encode());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PutRequestEncode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_PutRequestDecode(benchmark::State& state) {
  const net::Message msg =
      net::PutRequest{42, std::string(state.range(0), 'v')}.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::PutRequest::Decode(msg));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PutRequestDecode)->Arg(64)->Arg(1024)->Arg(16384);

void BM_MigrateBatchRoundTrip(benchmark::State& state) {
  net::MigrateRequest req;
  Rng rng(1);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    req.records.emplace_back(rng.Next(), std::string(1000, 'r'));
  }
  for (auto _ : state) {
    const net::Message msg = req.Encode();
    auto decoded = net::MigrateRequest::Decode(msg);
    benchmark::DoNotOptimize(decoded.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MigrateBatchRoundTrip)->Arg(16)->Arg(64)->Arg(256);

void BM_FrameSerializeParse(benchmark::State& state) {
  const net::Message msg{net::MsgType::kGetResponse,
                         std::string(state.range(0), 'p')};
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::Message::Deserialize(msg.Serialize()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameSerializeParse)->Arg(64)->Arg(4096);

// The frame, WAL and snapshot checksum on its own, through the runtime
// dispatch.  Gated so that a dispatch that falls back to the portable
// table walk on an SSE4.2 host (~15x slower per byte) fails check_bench.py.
void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<std::size_t>(state.range(0)), 'c');
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc::crc32c::Value(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(1024)->Arg(32768);

void BM_LoopbackCall(benchmark::State& state) {
  net::RpcServer server;
  server.Handle(net::MsgType::kGetRequest,
                [](const net::Message&) -> ecc::StatusOr<net::Message> {
                  net::GetResponse resp;
                  resp.found = true;
                  resp.value = std::string(1000, 'v');
                  return resp.Encode();
                });
  net::LoopbackChannel channel(&server, net::NetworkModel{}, nullptr);
  const net::Message req = net::GetRequest{7}.Encode();
  for (auto _ : state) {
    benchmark::DoNotOptimize(channel.Call(req));
  }
}
BENCHMARK(BM_LoopbackCall);

}  // namespace

#include "benchjson_main.h"  // main() with --json support
