// Tests for the RPC fault/retry layer: scripted and probabilistic call
// faults from a FaultInjector, timeout + bounded-exponential-backoff
// accounting on the virtual clock, at-least-once semantics after a dropped
// response, non-retryable error passthrough, and seed determinism
// (including ECC_FAULT_SEED reproduction).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "fault/fault.h"
#include "fault/faulty_service.h"
#include "net/message.h"
#include "net/netmodel.h"
#include "net/rpc.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "service/service.h"

namespace ecc::net {
namespace {

/// A server with one GET handler that counts executions — the probe for
/// "did the request reach the server?" under injected loss.
struct CountingServer {
  RpcServer server;
  // Atomic: over the TCP transport the increment happens on a server IO
  // thread while the test thread reads it.
  std::atomic<std::uint64_t> handled{0};
  Status respond_with = Status::Ok();  ///< non-OK => handler-level rejection

  CountingServer() {
    server.Handle(MsgType::kGetRequest,
                  [this](const Message& m) -> StatusOr<Message> {
                    ++handled;
                    if (!respond_with.ok()) return respond_with;
                    auto req = GetRequest::Decode(m);
                    if (!req.ok()) return req.status();
                    GetResponse resp;
                    resp.found = true;
                    resp.value = "v" + std::to_string(req->key);
                    return resp.Encode();
                  });
  }
};

RetryPolicy TestPolicy() {
  RetryPolicy p;
  p.max_attempts = 4;
  p.attempt_timeout = Duration::Millis(50);
  p.initial_backoff = Duration::Millis(5);
  p.backoff_multiplier = 2.0;
  p.max_backoff = Duration::Millis(200);
  return p;
}

TEST(RpcRetryTest, TransientDropsRetriedWithBackoffOnVirtualClock) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  // Drop the first two requests to endpoint 7; the third attempt lands.
  fault::FaultPlan plan;
  plan.calls.push_back({/*endpoint=*/7, MsgType::kGetRequest,
                        /*any_type=*/false, /*after_matching=*/0,
                        /*count=*/2, CallFaultKind::kDropRequest, {}});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 7);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{9}.Encode(), TestPolicy(), &rs);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto decoded = GetResponse::Decode(*resp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->value, "v9");

  EXPECT_EQ(cs.handled.load(), 1u);  // the two dropped requests never arrived
  EXPECT_EQ(rs.attempts, 3u);
  EXPECT_EQ(rs.retries, 2u);
  EXPECT_EQ(rs.exhausted, 0u);
  // Two failed attempts charge a detection timeout each, plus backoffs of
  // 5 ms then 10 ms before the retries — exact, deterministic accounting.
  EXPECT_EQ(rs.time_waiting,
            Duration::Millis(50) * 2.0 + Duration::Millis(5) +
                Duration::Millis(10));
  EXPECT_EQ(rs.time_backing_off, Duration::Millis(15));  // 5 + 10
  EXPECT_GE(clock.now().micros(), rs.time_waiting.micros());
  EXPECT_EQ(injector.stats().requests_dropped, 2u);
}

TEST(RpcRetryTest, PermanentFailureSurfacesUnavailableAfterBudget) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  fault::FaultInjector injector;
  channel.BindInterceptor(&injector, 3);
  injector.MarkDown(3);

  RetryStats rs;
  const TimePoint before = clock.now();
  auto resp = CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy(), &rs);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cs.handled.load(), 0u);
  EXPECT_EQ(rs.attempts, 4u);
  EXPECT_EQ(rs.retries, 3u);
  EXPECT_EQ(rs.exhausted, 1u);
  // 4 timeouts + backoffs 5, 10, 20 (no backoff after the final attempt).
  const Duration expected_wait = Duration::Millis(50) * 4.0 +
                                 Duration::Millis(5) + Duration::Millis(10) +
                                 Duration::Millis(20);
  EXPECT_EQ(rs.time_waiting, expected_wait);
  EXPECT_EQ(rs.time_backing_off,
            Duration::Millis(5) + Duration::Millis(10) + Duration::Millis(20));
  EXPECT_GE(clock.now() - before, expected_wait);
  EXPECT_EQ(injector.stats().down_endpoint_drops, 4u);

  // Repair the endpoint: the same channel works again.
  injector.ClearDown(3);
  EXPECT_TRUE(CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy())
                  .ok());
}

TEST(RpcRetryTest, DroppedResponseMeansAtLeastOnceExecution) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  // The first call executes server-side but loses its response — the
  // nastiest partial failure.  The retry re-executes the handler.
  fault::FaultPlan plan;
  plan.calls.push_back({fault::kAnyEndpoint, MsgType::kGetRequest,
                        /*any_type=*/true, /*after_matching=*/0,
                        /*count=*/1, CallFaultKind::kDropResponse, {}});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 0);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{5}.Encode(), TestPolicy(), &rs);
  ASSERT_TRUE(resp.ok());
  // Executed twice: handlers must be idempotent.
  EXPECT_EQ(cs.handled.load(), 2u);
  EXPECT_EQ(rs.retries, 1u);
  EXPECT_EQ(injector.stats().responses_dropped, 1u);
}

TEST(RpcRetryTest, NonRetryableErrorReturnsImmediately) {
  CountingServer cs;
  cs.respond_with = Status::InvalidArgument("handler says no");
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{5}.Encode(), TestPolicy(), &rs);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rs.attempts, 1u);  // an answer, not transport loss: no retry
  EXPECT_EQ(rs.retries, 0u);
  EXPECT_EQ(rs.time_waiting, Duration::Zero());
  EXPECT_EQ(cs.handled.load(), 1u);
}

TEST(RpcRetryTest, DelayFaultChargesExtraWireTime) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  fault::FaultPlan plan;
  plan.calls.push_back({fault::kAnyEndpoint, MsgType::kGetRequest,
                        /*any_type=*/true, /*after_matching=*/0,
                        /*count=*/1, CallFaultKind::kDelay,
                        Duration::Millis(40)});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 0);

  auto resp = channel.Call(GetRequest{5}.Encode());
  ASSERT_TRUE(resp.ok());  // delayed, not lost
  EXPECT_GE(clock.now().micros(), Duration::Millis(40).micros());
  EXPECT_EQ(injector.stats().delays, 1u);
  EXPECT_EQ(channel.stats().faults_injected, 1u);
}

TEST(RpcRetryTest, ProbabilisticFaultsAreDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    CountingServer cs;
    VirtualClock clock;
    LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.drop_request_p = 0.2;
    plan.drop_response_p = 0.1;
    plan.delay_p = 0.1;
    fault::FaultInjector injector(plan);
    channel.BindInterceptor(&injector, 0);
    for (std::uint64_t k = 0; k < 200; ++k) {
      (void)CallWithRetry(channel, GetRequest{k}.Encode(), TestPolicy());
    }
    return injector.stats();
  };
  const fault::FaultStats a = run(0xfeed);
  const fault::FaultStats b = run(0xfeed);
  const fault::FaultStats c = run(0xbeef);
  EXPECT_EQ(a.requests_dropped, b.requests_dropped);
  EXPECT_EQ(a.responses_dropped, b.responses_dropped);
  EXPECT_EQ(a.delays, b.delays);
  EXPECT_GT(a.requests_dropped + a.responses_dropped + a.delays, 0u);
  // A different seed perturbs a different subset of calls.
  EXPECT_TRUE(a.requests_dropped != c.requests_dropped ||
              a.responses_dropped != c.responses_dropped ||
              a.delays != c.delays);
}

TEST(RpcRetryTest, FaultSeedFromEnvParsesOverride) {
  ASSERT_EQ(unsetenv("ECC_FAULT_SEED"), 0);
  EXPECT_EQ(fault::FaultSeedFromEnv(42), 42u);
  ASSERT_EQ(setenv("ECC_FAULT_SEED", "12345", 1), 0);
  EXPECT_EQ(fault::FaultSeedFromEnv(42), 12345u);
  ASSERT_EQ(setenv("ECC_FAULT_SEED", "0xabc", 1), 0);
  EXPECT_EQ(fault::FaultSeedFromEnv(42), 0xabcu);
  ASSERT_EQ(unsetenv("ECC_FAULT_SEED"), 0);
}

TEST(RpcRetryTest, DeadlineClipsRetryBudget) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  fault::FaultInjector injector;
  channel.BindInterceptor(&injector, 3);
  injector.MarkDown(3);

  // 60 ms of budget against a policy that would burn ~235 ms: attempt 0
  // charges its full 50 ms timeout + 5 ms backoff, attempt 1's timeout is
  // clamped to the 5 ms remaining, and attempt 2 never starts.
  const Deadline deadline{&clock, clock.now() + Duration::Millis(60)};
  RetryStats rs;
  const TimePoint before = clock.now();
  auto resp = CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy(),
                            &rs, nullptr, deadline);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cs.handled.load(), 0u);
  EXPECT_EQ(rs.attempts, 2u);
  EXPECT_EQ(rs.retries, 1u);
  EXPECT_EQ(rs.deadline_clipped, 1u);
  EXPECT_EQ(rs.exhausted, 0u);  // clipped, not exhausted
  EXPECT_EQ(rs.time_backing_off, Duration::Millis(5));
  // The overshoot bound the coordinator's deadline math relies on: at most
  // one attempt timeout past the deadline.
  EXPECT_LE(clock.now() - before,
            Duration::Millis(60) + TestPolicy().attempt_timeout);
}

TEST(RpcRetryTest, ExpiredDeadlineShortCircuitsBeforeAnyAttempt) {
  CountingServer cs;
  VirtualClock clock;
  LoopbackChannel channel(&cs.server, NetworkModel{}, &clock);

  const Deadline deadline{&clock, clock.now() + Duration::Millis(1)};
  clock.Advance(Duration::Millis(2));  // budget already spent

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy(),
                            &rs, nullptr, deadline);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(rs.attempts, 0u);
  EXPECT_EQ(rs.deadline_clipped, 1u);
  EXPECT_EQ(cs.handled.load(), 0u);  // the wire was never touched
}

TEST(RpcRetryTest, FaultyServiceFailsScriptedInvocations) {
  service::SyntheticService inner("svc", Duration::Seconds(23), 64);
  fault::FaultPlan plan;
  plan.service_failures = {0, 2};  // fail the 1st and 3rd attempts
  fault::FaultInjector injector(plan);
  fault::FaultyService faulty(&inner, &injector, Duration::Seconds(5));

  VirtualClock clock;
  const sfc::GeoTemporalQuery q{0.0, 0.0, 0.0};
  auto first = faulty.Invoke(q, &clock);
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(clock.now(), TimePoint{} + Duration::Seconds(5));  // failure cost

  auto second = faulty.Invoke(q, &clock);
  ASSERT_TRUE(second.ok());
  auto third = faulty.Invoke(q, &clock);
  ASSERT_FALSE(third.ok());

  EXPECT_EQ(faulty.attempts(), 3u);
  EXPECT_EQ(faulty.invocations(), 1u);  // only the success reached `inner`
  EXPECT_EQ(injector.stats().service_failures, 2u);
}

// --- Transport-parametrized retry suite -----------------------------------
//
// The same fault/retry scenarios, run over every Channel implementation:
// the simulated loopback and the epoll TCP transport.  The TCP channel is
// handed the test's VirtualClock, so CallWithRetry's Wait() calls advance
// simulated time instead of sleeping — the exact deterministic accounting
// assertions hold unchanged, and the suite stays fast over real sockets.

enum class TransportKind { kLoopback, kTcp };

const char* TransportName(TransportKind k) {
  switch (k) {
    case TransportKind::kLoopback: return "Loopback";
    case TransportKind::kTcp: return "Tcp";
  }
  return "Unknown";
}

class RetryOverTransportTest : public ::testing::TestWithParam<TransportKind> {
 protected:
  /// Build a channel of the parametrized kind over `cs_`, sharing `clock_`.
  Channel& MakeChannel() {
    switch (GetParam()) {
      case TransportKind::kLoopback:
        channel_ = std::make_unique<LoopbackChannel>(&cs_.server,
                                                     NetworkModel{}, &clock_);
        break;
      case TransportKind::kTcp: {
        tcp_server_ = std::make_unique<TcpServer>(&cs_.server);
        auto started = tcp_server_->Start();
        EXPECT_TRUE(started.ok()) << started.ToString();
        TcpChannelOptions opts;
        opts.port = tcp_server_->port();
        channel_ = std::make_unique<TcpChannel>(opts, &clock_);
        break;
      }
    }
    return *channel_;
  }

  void TearDown() override {
    channel_.reset();  // client side first: releases pooled connections
    if (tcp_server_ != nullptr) tcp_server_->Stop();
  }

  CountingServer cs_;
  VirtualClock clock_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<TcpServer> tcp_server_;
};

TEST_P(RetryOverTransportTest, TransientDropsRetriedWithExactAccounting) {
  Channel& channel = MakeChannel();
  fault::FaultPlan plan;
  plan.calls.push_back({/*endpoint=*/7, MsgType::kGetRequest,
                        /*any_type=*/false, /*after_matching=*/0,
                        /*count=*/2, CallFaultKind::kDropRequest, {}});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 7);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{9}.Encode(), TestPolicy(), &rs);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  auto decoded = GetResponse::Decode(*resp);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->value, "v9");

  EXPECT_EQ(cs_.handled.load(), 1u);  // the dropped requests never arrived
  EXPECT_EQ(rs.attempts, 3u);
  EXPECT_EQ(rs.retries, 2u);
  // Identical accounting on every transport: two detection timeouts plus
  // 5 ms + 10 ms of backoff, all charged to the shared virtual clock.
  EXPECT_EQ(rs.time_waiting,
            Duration::Millis(50) * 2.0 + Duration::Millis(5) +
                Duration::Millis(10));
  EXPECT_EQ(rs.time_backing_off, Duration::Millis(15));
  EXPECT_GE(clock_.now().micros(), rs.time_waiting.micros());
  EXPECT_EQ(injector.stats().requests_dropped, 2u);
  EXPECT_EQ(channel.stats().faults_injected, 2u);
}

TEST_P(RetryOverTransportTest, DownEndpointExhaustsBudgetThenRecovers) {
  Channel& channel = MakeChannel();
  fault::FaultInjector injector;
  channel.BindInterceptor(&injector, 3);
  injector.MarkDown(3);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy(), &rs);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(cs_.handled.load(), 0u);
  EXPECT_EQ(rs.attempts, 4u);
  EXPECT_EQ(rs.exhausted, 1u);
  EXPECT_EQ(injector.stats().down_endpoint_drops, 4u);

  injector.ClearDown(3);
  EXPECT_TRUE(
      CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy()).ok());
  EXPECT_EQ(cs_.handled.load(), 1u);
}

TEST_P(RetryOverTransportTest, DroppedResponseMeansAtLeastOnceExecution) {
  Channel& channel = MakeChannel();
  fault::FaultPlan plan;
  plan.calls.push_back({fault::kAnyEndpoint, MsgType::kGetRequest,
                        /*any_type=*/true, /*after_matching=*/0,
                        /*count=*/1, CallFaultKind::kDropResponse, {}});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 0);

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{5}.Encode(), TestPolicy(), &rs);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  // The drop-response contract on every transport: the server executed
  // (its state changed) before the answer was lost, so the retry makes it
  // exactly twice.  Handlers must be idempotent.
  EXPECT_EQ(cs_.handled.load(), 2u);
  EXPECT_EQ(rs.retries, 1u);
  EXPECT_EQ(injector.stats().responses_dropped, 1u);
}

TEST_P(RetryOverTransportTest, DelayFaultResolvesWithoutRetry) {
  Channel& channel = MakeChannel();
  fault::FaultPlan plan;
  plan.calls.push_back({fault::kAnyEndpoint, MsgType::kGetRequest,
                        /*any_type=*/true, /*after_matching=*/0,
                        /*count=*/1, CallFaultKind::kDelay,
                        Duration::Millis(40)});
  fault::FaultInjector injector(plan);
  channel.BindInterceptor(&injector, 0);

  auto resp = channel.Call(GetRequest{5}.Encode());
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();  // delayed, not lost
  EXPECT_GE(clock_.now().micros(), Duration::Millis(40).micros());
  EXPECT_EQ(injector.stats().delays, 1u);
  EXPECT_EQ(channel.stats().faults_injected, 1u);
  EXPECT_EQ(cs_.handled.load(), 1u);
}

TEST_P(RetryOverTransportTest, NonRetryableHandlerErrorSurvivesTheWire) {
  // A handler-level InvalidArgument must come back as InvalidArgument on
  // every transport — the TCP transport carries the status code inside
  // the kError frame — so CallWithRetry answers in one attempt instead of
  // re-executing a known-bad request for the whole retry budget.
  cs_.respond_with = Status::InvalidArgument("handler says no");
  Channel& channel = MakeChannel();

  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{5}.Encode(), TestPolicy(), &rs);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(resp.status().message().find("handler says no"),
            std::string::npos);
  EXPECT_EQ(rs.attempts, 1u);
  EXPECT_EQ(rs.retries, 0u);
  EXPECT_EQ(cs_.handled.load(), 1u);
}

TEST_P(RetryOverTransportTest, DeadlineClipsRetryBudget) {
  Channel& channel = MakeChannel();
  fault::FaultInjector injector;
  channel.BindInterceptor(&injector, 3);
  injector.MarkDown(3);

  const Deadline deadline{&clock_, clock_.now() + Duration::Millis(60)};
  RetryStats rs;
  auto resp = CallWithRetry(channel, GetRequest{1}.Encode(), TestPolicy(),
                            &rs, nullptr, deadline);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(cs_.handled.load(), 0u);
  EXPECT_EQ(rs.attempts, 2u);
  EXPECT_EQ(rs.deadline_clipped, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, RetryOverTransportTest,
    ::testing::Values(TransportKind::kLoopback, TransportKind::kTcp),
    [](const ::testing::TestParamInfo<TransportKind>& param) {
      return TransportName(param.param);
    });

}  // namespace
}  // namespace ecc::net
