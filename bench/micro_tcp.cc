// Wall-clock micro-benchmarks for the real transport: full kernel round
// trips over the epoll TCP stack (TcpServer + pooled TcpChannel).  Where
// micro_net measures the simulated loopback (pure dispatch cost), these
// numbers are real syscall latency — the floor a deployed fleet pays per
// cache operation.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "net/message.h"
#include "net/rpc.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

namespace {

namespace net = ecc::net;

/// Echo server: responds to GET k with a value of k bytes, so one server
/// serves every payload size below.
net::RpcServer& SharedRpc() {
  static net::RpcServer* rpc = [] {
    auto* s = new net::RpcServer;
    s->Handle(net::MsgType::kGetRequest,
              [](const net::Message& m) -> ecc::StatusOr<net::Message> {
                auto req = net::GetRequest::Decode(m);
                if (!req.ok()) return req.status();
                net::GetResponse resp;
                resp.found = true;
                resp.value.assign(req->key, 'v');
                return resp.Encode();
              });
    return s;
  }();
  return *rpc;
}

/// One TCP server + channel for the whole binary (leaked: benchmark
/// registration outlives any scoped teardown ordering we could write).
struct TcpRig {
  net::TcpServer* server;
  net::TcpChannel* channel;
};

TcpRig& SharedTcp() {
  static TcpRig rig = [] {
    auto* server = new net::TcpServer(&SharedRpc());
    if (auto s = server->Start(); !s.ok()) std::abort();
    net::TcpChannelOptions opts;
    opts.port = server->port();
    opts.max_pool_size = 16;  // one per bench thread at the widest point
    return TcpRig{server, new net::TcpChannel(opts)};
  }();
  return rig;
}

void BM_TcpCall(benchmark::State& state) {
  TcpRig& rig = SharedTcp();
  const net::Message req =
      net::GetRequest{static_cast<std::uint64_t>(state.range(0))}.Encode();
  for (auto _ : state) {
    auto out = rig.channel->Call(req);
    if (!out.ok()) state.SkipWithError("call failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TcpCall)->Arg(64)->Arg(1024)->Arg(16384);

/// Concurrent callers share the pooled channel: each borrows its own
/// connection, so round trips genuinely overlap on the wire.
void BM_TcpCallConcurrent(benchmark::State& state) {
  TcpRig& rig = SharedTcp();
  const net::Message req = net::GetRequest{1024}.Encode();
  for (auto _ : state) {
    auto out = rig.channel->Call(req);
    if (!out.ok()) state.SkipWithError("call failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcpCallConcurrent)->Threads(2)->Threads(4)->UseRealTime();

/// Migration-sized frames: a ~1 MB batch per round trip, the shape the
/// sweep-and-migrate path puts on the wire.
void BM_TcpMigrateBatch(benchmark::State& state) {
  net::RpcServer rpc;
  rpc.Handle(net::MsgType::kMigrateRequest,
             [](const net::Message& m) -> ecc::StatusOr<net::Message> {
               auto req = net::MigrateRequest::Decode(m);
               if (!req.ok()) return req.status();
               net::MigrateResponse resp;
               resp.accepted = req->records.size();
               return resp.Encode();
             });
  net::TcpServer server(&rpc);
  if (auto s = server.Start(); !s.ok()) std::abort();
  net::TcpChannelOptions opts;
  opts.port = server.port();
  net::TcpChannel channel(opts);

  net::MigrateRequest batch;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    batch.records.emplace_back(i, std::string(1000, 'r'));
  }
  const net::Message req = batch.Encode();
  for (auto _ : state) {
    auto out = channel.Call(req);
    if (!out.ok()) state.SkipWithError("call failed");
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(req.WireSize()));
  server.Stop();
}
BENCHMARK(BM_TcpMigrateBatch)->Arg(256)->Arg(1024);

}  // namespace

#include "benchjson_main.h"  // main() with --json support
