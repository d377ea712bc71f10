// The pluggable transport boundary: every coordinator -> node call goes
// through a Channel.
//
// A Channel owns one logical request/response path to a single endpoint.
// Implementations differ in what "the wire" is:
//
//   * LoopbackChannel (rpc.h)      — in-process dispatch, transfer *time*
//     charged to a virtual clock from a NetworkModel.  The simulator's
//     transport.
//   * TcpChannel (tcp_channel.h)   — real TCP to a host:port served by an
//     epoll event loop (tcp_server.h), with per-endpoint connection
//     pooling.  The deployable transport.
//
// The retry layer (CallWithRetry, rpc.h) and every call site in core/
// speak only to this interface, so the same cache / crash-test machinery
// runs transport-parametrized over simulated and real wires.
//
// Fault injection: any channel may carry a CallInterceptor (see
// src/fault/), which sees every Call and can drop the request before it is
// sent, drop the response after the server executed (the nastiest partial
// failure), or add wire delay.  Lost messages surface as
// Status::Unavailable, which callers treat as retryable.
//
// Time: clock() is the virtual clock the channel charges, or nullptr for
// channels that run on the wall clock (or charge nothing).  Wait() is how
// the retry layer burns a timeout/backoff span: simulated channels advance
// their virtual clock, wall-clock channels actually sleep, and a channel
// with neither (a charge-free background loopback) does nothing — so one
// retry loop paces correctly over every transport.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "common/time.h"
#include "net/message.h"

namespace ecc::net {

/// What an interceptor may do to one Call.
enum class CallFaultKind : std::uint8_t {
  kNone = 0,
  kDropRequest,   ///< request never reaches the server
  kDropResponse,  ///< server executed, but the response is lost
  kDelay,         ///< extra wire latency, call otherwise succeeds
};

struct CallFault {
  CallFaultKind kind = CallFaultKind::kNone;
  Duration delay;  ///< extra latency for kDelay
};

/// Sees every Call on channels it is bound to.  Implemented by
/// fault::FaultInjector; the indirection keeps ecc_net free of a dependency
/// on the fault library.  Implementations must be internally synchronized
/// when bound to a concurrently-called channel (FaultInjector is).
class CallInterceptor {
 public:
  virtual ~CallInterceptor() = default;

  /// Decide the fate of one call to `endpoint` (the cache-node id the
  /// channel was bound with) carrying a `type` request.
  [[nodiscard]] virtual CallFault OnCall(std::uint64_t endpoint,
                                         MsgType type) = 0;
};

/// Accumulated transfer accounting for one channel.
struct ChannelStats {
  std::uint64_t calls = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t faults_injected = 0;  ///< calls perturbed by an interceptor
  Duration time_on_wire;
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Full round trip: send `request`, block for the decoded response.
  /// Transport loss (peer gone, injected drop, timeout) is Unavailable;
  /// handler-level rejections come back as their own status codes.
  [[nodiscard]] virtual StatusOr<Message> Call(const Message& request) = 0;

  /// The virtual clock this channel charges, or nullptr for wall-clock /
  /// charge-free channels.  Retry accounting stamps events from it.
  [[nodiscard]] virtual VirtualClock* clock() const { return nullptr; }

  /// Burn `d` of retry pacing (detection timeout or backoff).  Default:
  /// advance clock() when the channel has one, otherwise do nothing.
  /// Wall-clock transports override this to really sleep.
  virtual void Wait(Duration d);

  /// Point-in-time transfer accounting.  By value: concurrent transports
  /// materialize a consistent copy from atomics.
  [[nodiscard]] virtual ChannelStats stats() const = 0;

  /// Attach `interceptor` (not owned; nullptr detaches); `endpoint` labels
  /// this channel's destination in the interceptor's view.  Bind before
  /// issuing concurrent Calls — the binding itself is not synchronized.
  void BindInterceptor(CallInterceptor* interceptor, std::uint64_t endpoint) {
    interceptor_ = interceptor;
    endpoint_ = endpoint;
  }

  [[nodiscard]] std::uint64_t endpoint() const { return endpoint_; }

 protected:
  /// The interceptor's verdict for one call (kNone when unbound).
  [[nodiscard]] CallFault NextFault(MsgType type) {
    return interceptor_ != nullptr ? interceptor_->OnCall(endpoint_, type)
                                   : CallFault{};
  }

  [[nodiscard]] CallInterceptor* interceptor() const { return interceptor_; }

 private:
  CallInterceptor* interceptor_ = nullptr;
  std::uint64_t endpoint_ = 0;
};

}  // namespace ecc::net
