// Tests for the real TCP transport: epoll TcpServer + pooled TcpChannel
// over loopback TCP — round trips, connection pooling, concurrent callers,
// large frames, malformed-frame rejection, dead/absent peers, and the full
// cache protocol against a CacheNode — plus the blocking framed IO under
// TcpChannel (framing.h), driven on a bare socketpair.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_node.h"
#include "net/framing.h"
#include "net/message.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

namespace ecc::net {
namespace {

/// Server + channel pair over an ephemeral loopback port.
struct TcpPair {
  explicit TcpPair(RpcServer* rpc, TcpServerOptions sopts = {},
                   TcpChannelOptions copts = {}) {
    server = std::make_unique<TcpServer>(rpc, sopts);
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    copts.port = server->port();
    channel = std::make_unique<TcpChannel>(copts);
  }
  ~TcpPair() {
    channel.reset();
    if (server != nullptr) server->Stop();
  }
  std::unique_ptr<TcpServer> server;
  std::unique_ptr<TcpChannel> channel;
};

RpcServer& EchoServer() {
  static RpcServer* server = [] {
    auto* s = new RpcServer;
    s->Handle(MsgType::kGetRequest,
              [](const Message& m) -> StatusOr<Message> {
                auto req = GetRequest::Decode(m);
                if (!req.ok()) return req.status();
                GetResponse resp;
                resp.found = true;
                resp.value = "key=" + std::to_string(req->key);
                return resp.Encode();
              });
    return s;
  }();
  return *server;
}

TEST(TcpChannelTest, RoundTripOverEphemeralPort) {
  TcpPair pair(&EchoServer());
  EXPECT_GT(pair.server->port(), 0);  // kernel resolved the ephemeral bind
  auto out = pair.channel->Call(GetRequest{42}.Encode());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto resp = GetResponse::Decode(*out);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->value, "key=42");
  const auto stats = pair.channel->stats();
  EXPECT_EQ(stats.calls, 1u);
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_GT(stats.bytes_received, 0u);
  EXPECT_EQ(pair.server->stats().frames_served, 1u);
}

TEST(TcpChannelTest, PoolReusesConnectionsAcrossSequentialCalls) {
  TcpPair pair(&EchoServer());
  for (std::uint64_t k = 0; k < 200; ++k) {
    auto out = pair.channel->Call(GetRequest{k}.Encode());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
  }
  // Sequential callers never need a second connection.
  EXPECT_EQ(pair.channel->connections_opened(), 1u);
  EXPECT_EQ(pair.channel->idle_connections(), 1u);
  EXPECT_EQ(pair.server->stats().connections_accepted, 1u);
}

TEST(TcpChannelTest, ConcurrentCallersOverlapOnThePool) {
  core::CacheNode node(1, 0, 16 << 20);
  TcpServerOptions sopts;
  sopts.io_threads = 2;  // exercise the multi-loop accept hand-off
  TcpPair pair(&node.rpc(), sopts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pair, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t key =
            static_cast<std::uint64_t>(t) * 100000 + i;
        auto put = pair.channel->Call(
            PutRequest{key, "v" + std::to_string(key)}.Encode());
        if (!put.ok() || !PutResponse::Decode(*put)->accepted) {
          ++failures;
          continue;
        }
        auto get = pair.channel->Call(GetRequest{key}.Encode());
        auto resp = get.ok() ? GetResponse::Decode(*get)
                             : StatusOr<GetResponse>(get.status());
        if (!resp.ok() || !resp->found ||
            resp->value != "v" + std::to_string(key)) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(node.record_count(),
            static_cast<std::size_t>(kThreads * kPerThread));
  // Callers genuinely overlapped: more than one connection was dialed, yet
  // never more than one per concurrent caller.
  EXPECT_GT(pair.channel->connections_opened(), 1u);
  EXPECT_LE(pair.channel->connections_opened(),
            static_cast<std::uint64_t>(kThreads));
}

TEST(TcpChannelTest, LargeFrameCrossesManyEpollWakeups) {
  RpcServer rpc;
  rpc.Handle(MsgType::kMigrateRequest,
             [](const Message& m) -> StatusOr<Message> {
               auto req = MigrateRequest::Decode(m);
               if (!req.ok()) return req.status();
               MigrateResponse resp;
               resp.accepted = req->records.size();
               return resp.Encode();
             });
  TcpPair pair(&rpc);
  MigrateRequest req;
  for (int i = 0; i < 4000; ++i) {
    req.records.emplace_back(i, std::string(1000, 'r'));  // ~4 MB total
  }
  auto out = pair.channel->Call(req.Encode());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(MigrateResponse::Decode(*out)->accepted, 4000u);
}

TEST(TcpChannelTest, ConnectionRefusedIsUnavailable) {
  // Bind-then-close to find a port with nothing listening on it.
  const int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  ::close(probe);

  TcpChannelOptions opts;
  opts.port = ntohs(addr.sin_port);
  TcpChannel channel(opts);
  auto out = channel.Call(GetRequest{1}.Encode());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST(TcpChannelTest, ServerStopMidStreamSurfacesUnavailableNotSigpipe) {
  TcpPair pair(&EchoServer());
  ASSERT_TRUE(pair.channel->Call(GetRequest{1}.Encode()).ok());
  pair.server->Stop();
  // The pooled connection is now dead; writing into it must surface as a
  // status (MSG_NOSIGNAL path), never as a process-killing SIGPIPE.  The
  // first call may need to burn the stale pooled fd, hence two tries.
  auto out = pair.channel->Call(GetRequest{2}.Encode());
  if (out.ok()) out = pair.channel->Call(GetRequest{3}.Encode());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
}

TEST(TcpChannelTest, HandlerStatusCodeSurvivesTheWire) {
  RpcServer rpc;
  rpc.Handle(MsgType::kGetRequest,
             [](const Message&) -> StatusOr<Message> {
               return Status::CapacityExceeded("node full");
             });
  TcpPair pair(&rpc);
  auto out = pair.channel->Call(GetRequest{1}.Encode());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCapacityExceeded);
  EXPECT_NE(out.status().message().find("node full"), std::string::npos);
}

TEST(TcpChannelTest, MalformedHeaderClosesOnlyThatConnection) {
  TcpPair pair(&EchoServer());
  // A well-behaved call first, so the server has one healthy connection.
  ASSERT_TRUE(pair.channel->Call(GetRequest{1}.Encode()).ok());

  // Hand-dial a raw socket and send garbage: unknown tag 0xEE plus an
  // absurd length.  The server must reject it BEFORE allocating, count a
  // frame error, and close only this connection.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(pair.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  unsigned char garbage[kFrameHeaderBytes] = {0xEE, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  // The server closes us: read() returns 0 (EOF) rather than a response.
  char buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);
  ::close(fd);

  EXPECT_GE(pair.server->stats().frame_errors, 1u);
  // The original, frame-aligned connection is unaffected.
  auto out = pair.channel->Call(GetRequest{2}.Encode());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
}

TEST(TcpChannelTest, OversizedFrameRejectedBeforeAllocation) {
  RpcServer rpc;
  TcpServerOptions sopts;
  sopts.max_frame_bytes = 1024;  // tiny cap: a 2 KB frame is a violation
  TcpPair pair(&rpc, sopts);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(pair.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Valid tag, hostile length.
  Message big;
  big.type = MsgType::kGetRequest;
  big.payload.assign(2048, 'x');
  const std::string frame = big.Serialize();
  (void)::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  char buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // closed, no response
  ::close(fd);
  EXPECT_GE(pair.server->stats().frame_errors, 1u);
}

TEST(TcpChannelTest, FullCacheProtocolAgainstANode) {
  core::CacheNode node(7, 0, 1 << 20);
  TcpPair pair(&node.rpc());

  MigrateRequest migrate;
  for (std::uint64_t k = 0; k < 50; ++k) {
    migrate.records.emplace_back(k, std::string(100, 'm'));
  }
  auto mresp = pair.channel->Call(migrate.Encode());
  ASSERT_TRUE(mresp.ok()) << mresp.status().ToString();
  EXPECT_EQ(MigrateResponse::Decode(*mresp)->accepted, 50u);

  auto gresp = pair.channel->Call(GetRequest{25}.Encode());
  ASSERT_TRUE(gresp.ok());
  EXPECT_TRUE(GetResponse::Decode(*gresp)->found);

  EraseRequest erase;
  erase.keys = {0, 1, 2};
  auto eresp = pair.channel->Call(erase.Encode());
  ASSERT_TRUE(eresp.ok());
  EXPECT_EQ(EraseResponse::Decode(*eresp)->erased, 3u);

  auto sresp = pair.channel->Call(StatsRequest{}.Encode());
  ASSERT_TRUE(sresp.ok());
  EXPECT_EQ(StatsResponse::Decode(*sresp)->records, 47u);
}

TEST(TcpChannelTest, StopIsIdempotentAndRestartGetsAFreshPort) {
  RpcServer rpc;
  TcpServer server(&rpc);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_TRUE(server.running());
  server.Stop();
  server.Stop();  // second Stop must be a no-op
  EXPECT_FALSE(server.running());
}

TEST(TcpChannelTest, StatsReadableWhileCallsAreInFlight) {
  // TSan coverage: poll channel + server counters from one thread while
  // another hammers Call() — the counters are relaxed atomics.
  TcpPair pair(&EchoServer());
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!done.load(std::memory_order_acquire)) {
      const auto s = pair.channel->stats();
      sink += s.bytes_sent + s.bytes_received + s.calls;
      sink += pair.server->stats().frames_served;
    }
    EXPECT_GT(sink, 0u);
  });
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(pair.channel->Call(GetRequest{k}.Encode()).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(pair.channel->stats().calls, 300u);
}

TEST(TcpChannelTest, StaleReconnectSurvivesServerRestartOnSamePort) {
  auto server = std::make_unique<TcpServer>(&EchoServer());
  ASSERT_TRUE(server->Start().ok());
  const std::uint16_t port = server->port();

  TcpChannelOptions copts;
  copts.port = port;
  TcpChannel channel(copts);
  ASSERT_TRUE(channel.Call(GetRequest{1}.Encode()).ok());
  EXPECT_EQ(channel.idle_connections(), 1u);  // connection now pooled

  // Restart the server on the SAME port: the pooled connection silently
  // became a dead socket (its peer is gone), the classic pooled-client
  // pathology after a node reboot or partition heal.
  server->Stop();
  TcpServerOptions sopts;
  sopts.port = port;
  server = std::make_unique<TcpServer>(&EchoServer(), sopts);
  ASSERT_TRUE(server->Start().ok()) << "could not rebind " << port;

  // The very next Call lands on the stale fd.  The channel must detect
  // the peer-gone failure, redial, and resend — NOT surface Unavailable.
  auto out = channel.Call(GetRequest{2}.Encode());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(GetResponse::Decode(*out)->value, "key=2");
  EXPECT_GE(channel.stale_reconnects(), 1u);
  EXPECT_GE(channel.connections_opened(), 2u);
  server->Stop();
}

TEST(TcpChannelTest, PoolExhaustionFailsBoundedInsteadOfBlocking) {
  // A listener that accepts connections into its backlog but never reads:
  // a black-holed peer.  Borrowers park on their IO timeout; the pool cap
  // must make the NEXT caller fail fast, not queue behind them.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr),
                          &len),
            0);

  TcpChannelOptions opts;
  opts.port = ntohs(addr.sin_port);
  opts.max_connections = 2;
  opts.pool_wait_timeout = Duration::Millis(100);
  opts.io_timeout = Duration::Seconds(3);
  TcpChannel channel(opts);

  // Two borrowers occupy both slots, each stuck on its 3 s read timeout.
  std::vector<std::thread> borrowers;
  for (int i = 0; i < 2; ++i) {
    borrowers.emplace_back([&channel, i] {
      auto out = channel.Call(GetRequest{static_cast<std::uint64_t>(i)}
                                  .Encode());
      EXPECT_FALSE(out.ok());
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  const auto start = std::chrono::steady_clock::now();
  auto out = channel.Call(GetRequest{9}.Encode());
  const auto waited = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(out.status().message().find("exhausted"), std::string::npos)
      << out.status().ToString();
  // Bounded by pool_wait_timeout, far under the borrowers' IO timeout.
  EXPECT_LT(waited, 1500);
  EXPECT_GE(channel.pool_exhausted_failures(), 1u);

  for (auto& t : borrowers) t.join();
  ::close(listener);
}

/// Accept one connection, read the request, answer with `reply`, close.
/// The torn-frame tests use this to die mid-response-frame.
void ServeOneRawReply(int listener, std::string reply) {
  const int conn = ::accept(listener, nullptr, nullptr);
  if (conn < 0) return;
  char buf[4096];
  (void)::read(conn, buf, sizeof(buf));  // swallow the request frame
  (void)::send(conn, reply.data(), reply.size(), MSG_NOSIGNAL);
  ::close(conn);  // dies mid-frame: the client sees a torn stream + EOF
}

int ListenEphemeral(std::uint16_t* port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 4) != 0) {
    ::close(listener);
    return -1;
  }
  socklen_t len = sizeof(addr);
  (void)::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  *port = ntohs(addr.sin_port);
  return listener;
}

TEST(TcpChannelTest, TornHeaderSurfacesUnavailableNotHang) {
  std::uint16_t port = 0;
  const int listener = ListenEphemeral(&port);
  ASSERT_GE(listener, 0);
  // A valid response frame, beheaded after 3 of its header bytes.
  GetResponse resp;
  resp.found = true;
  resp.value = "v";
  const std::string frame = resp.Encode().Serialize();
  std::thread server(ServeOneRawReply, listener, frame.substr(0, 3));

  TcpChannelOptions opts;
  opts.port = port;
  opts.io_timeout = Duration::Seconds(2);
  TcpChannel channel(opts);
  auto out = channel.Call(GetRequest{1}.Encode());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  server.join();
  ::close(listener);
}

TEST(TcpChannelTest, TornBodySurfacesUnavailableNotGarbage) {
  std::uint16_t port = 0;
  const int listener = ListenEphemeral(&port);
  ASSERT_GE(listener, 0);
  // A frame whose header promises more payload than ever arrives.
  GetResponse resp;
  resp.found = true;
  resp.value = std::string(100, 'v');
  const std::string frame = resp.Encode().Serialize();
  std::thread server(ServeOneRawReply, listener,
                     frame.substr(0, kFrameHeaderBytes + 10));

  TcpChannelOptions opts;
  opts.port = port;
  opts.io_timeout = Duration::Seconds(2);
  TcpChannel channel(opts);
  auto out = channel.Call(GetRequest{1}.Encode());
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  server.join();
  ::close(listener);
}

// --- Framed IO on a bare socketpair -----------------------------------------
//
// TcpChannel maps every failed read to Unavailable, so its own tests cannot
// see two things framing::ReadFrame/WriteFrame promise: a clean EOF before
// any frame is NotFound while a torn frame is Unavailable (pooled callers
// use the difference to tell a stale connection from a truncated reply),
// and a write into a dead peer returns an error instead of raising SIGPIPE.
// These tests drive that exact path with a surgically beheaded frame and
// assert the read surfaces a bounded, typed failure — never a hang, a
// crash, or a garbage Message.

TEST(FramingTest, DeadPeerWriteSurfacesErrorNotSigpipe) {
  // Regression: the frame writer used ::write, so writing a frame into a
  // socket whose peer had gone delivered SIGPIPE and killed the whole
  // process.  With MSG_NOSIGNAL the kernel returns EPIPE instead and the
  // framing layer reports it as an IO error.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);  // the peer is dead before we ever write
  const Message request = GetRequest{1}.Encode();
  auto result = framing::IoResult::kOk;
  for (int i = 0; i < 64 && result == framing::IoResult::kOk; ++i) {
    result = framing::WriteFrame(fds[0], request);
  }
  // Reaching this line at all is the real assertion: no SIGPIPE fired.
  EXPECT_EQ(result, framing::IoResult::kError);
  ::close(fds[0]);
}

TEST(FramingTest, TornHeaderOnSocketpairIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  GetResponse resp;
  resp.found = true;
  resp.value = "v";
  const std::string frame = resp.Encode().Serialize();
  // 3 of kFrameHeaderBytes header bytes, then the peer dies.
  ASSERT_EQ(::send(fds[1], frame.data(), 3, MSG_NOSIGNAL), 3);
  ::close(fds[1]);

  auto out = framing::ReadFrame(fds[0], 64u << 20);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  ::close(fds[0]);
}

TEST(FramingTest, TornBodyOnSocketpairIsUnavailable) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  GetResponse resp;
  resp.found = true;
  resp.value = std::string(100, 'v');
  const std::string frame = resp.Encode().Serialize();
  // Full header (promising a 100+ byte payload), 10 payload bytes, death.
  const std::size_t sent = kFrameHeaderBytes + 10;
  ASSERT_EQ(::send(fds[1], frame.data(), sent, MSG_NOSIGNAL),
            static_cast<ssize_t>(sent));
  ::close(fds[1]);

  auto out = framing::ReadFrame(fds[0], 64u << 20);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  ::close(fds[0]);
}

TEST(FramingTest, CleanEofBeforeAnyFrameIsNotFound) {
  // Contrast case: death BETWEEN frames is a clean close, which pooled
  // callers (tcp_channel.cc) use to tell staleness from truncation.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  auto out = framing::ReadFrame(fds[0], 64u << 20);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
  ::close(fds[0]);
}

}  // namespace
}  // namespace ecc::net
