#include "net/chaos_proxy.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "net/message.h"

namespace ecc::net {

namespace {

constexpr int kEpollTickMs = 2;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Frame-length bound used only for the proxy's own boundary tracking; it
/// must be at least as permissive as any endpoint's, or the proxy would
/// drop into passthrough on frames the endpoints consider legal.
constexpr std::size_t kTrackerMaxFrame = 256u * 1024u * 1024u;
/// Upstream connect wait; the relay thread blocks here, which is fine —
/// chaos scenarios dial a handful of connections, not thousands.
constexpr int kDialTimeoutMs = 2000;

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

void HardReset(int fd) {
  // SO_LINGER with zero timeout turns close() into an RST, which is how a
  // machine death (as opposed to a process exit) looks on the wire.
  linger lg{};
  lg.l_onoff = 1;
  lg.l_linger = 0;
  (void)setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
}

}  // namespace

ChaosProxy::ChaosProxy(std::string upstream_host, std::uint16_t upstream_port,
                       ChaosPlan plan)
    : upstream_host_(std::move(upstream_host)),
      upstream_port_(upstream_port),
      plan_(std::move(plan)) {}

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (running_.load(std::memory_order_acquire)) return Status::Ok();

  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::Internal("chaos proxy: socket failed");

  const int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
           sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("chaos proxy: bind/listen failed");
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                  &addr_len) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("chaos proxy: getsockname failed");
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Stop();
    return Status::Internal("chaos proxy: epoll/eventfd failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  start_time_ = Clock::now();
  last_tick_ = start_time_;
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { RelayLoop(); });
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (running_.exchange(false, std::memory_order_acq_rel)) {
    const std::uint64_t one = 1;
    (void)write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
  for (auto& [fd, conn] : conns_) {
    if (conn->client_fd >= 0) close(conn->client_fd);
    if (conn->upstream_fd >= 0) close(conn->upstream_fd);
  }
  conns_.clear();
  by_fd_.clear();
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) {
      close(*fd);
      *fd = -1;
    }
  }
}

void ChaosProxy::Partition(bool to_upstream, bool to_client) {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    manual_to_upstream_ = manual_to_upstream_ || to_upstream;
    manual_to_client_ = manual_to_client_ || to_client;
  }
  const std::uint64_t one = 1;
  (void)write(wake_fd_, &one, sizeof(one));
}

void ChaosProxy::Heal() {
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    manual_to_upstream_ = false;
    manual_to_client_ = false;
  }
  const std::uint64_t one = 1;
  (void)write(wake_fd_, &one, sizeof(one));
}

ChaosProxyStats ChaosProxy::stats() const {
  ChaosProxyStats s;
  s.connections = connections_.load(std::memory_order_relaxed);
  s.bytes_relayed = bytes_relayed_.load(std::memory_order_relaxed);
  s.bytes_corrupted = bytes_corrupted_.load(std::memory_order_relaxed);
  s.frames_truncated = frames_truncated_.load(std::memory_order_relaxed);
  s.frames_reset = frames_reset_.load(std::memory_order_relaxed);
  s.chunks_delayed = chunks_delayed_.load(std::memory_order_relaxed);
  s.bytes_throttled = bytes_throttled_.load(std::memory_order_relaxed);
  s.partition_transitions =
      partition_transitions_.load(std::memory_order_relaxed);
  s.partitioned_to_upstream = cut_to_upstream_.load(std::memory_order_relaxed);
  s.partitioned_to_client = cut_to_client_.load(std::memory_order_relaxed);
  return s;
}

void ChaosProxy::BindTrace(obs::TraceLog* trace, std::uint64_t node) {
  trace_ = trace;
  trace_node_ = node;
}

TimePoint ChaosProxy::Elapsed() const {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                      Clock::now() - start_time_)
                      .count();
  return TimePoint::FromMicros(us);
}

void ChaosProxy::EmitChaos(obs::ChaosFaultCode code, std::int64_t arg) {
  if (trace_ == nullptr) return;
  trace_->Append(obs::ChaosFaultEvent(Elapsed(), trace_node_, code, arg));
}

// --- Relay thread ---------------------------------------------------------

void ChaosProxy::RelayLoop() {
  epoll_event events[64];
  while (running_.load(std::memory_order_acquire)) {
    const int n = epoll_wait(epoll_fd_, events, 64, kEpollTickMs);

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        AcceptPending();
        continue;
      }
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        while (read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      const auto it = by_fd_.find(fd);
      if (it == by_fd_.end()) continue;
      Conn& conn = *it->second;
      Leg& leg = (fd == conn.client_fd) ? conn.up : conn.down;
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        ReadLeg(conn, leg);
      }
    }

    // Taken *after* the reads so a chunk stamped due-now inside ReadLeg is
    // already releasable in this very sweep — an unshaped relay must not
    // pay the epoll tick as latency.
    const Clock::time_point now = Clock::now();
    RefreshPartitionState(now);

    // Pump every connection: release due chunks, apply faults, flush, and
    // retire legs/connections that have nothing left to do.
    std::vector<int> to_close;
    for (auto& [client_fd, conn_ptr] : conns_) {
      Conn& conn = *conn_ptr;
      bool write_failed = false;
      for (Leg* leg : {&conn.up, &conn.down}) {
        if (DirectionPartitioned(*leg)) continue;  // frozen until heal
        PumpLeg(conn, *leg, now);
        if (!FlushOutboxOk(conn, *leg)) write_failed = true;
      }
      if (write_failed) {
        to_close.push_back(client_fd);
        continue;
      }
      if (conn.doom != Doom::kNone && conn.up.outbox.empty() &&
          conn.down.outbox.empty()) {
        if (conn.doom == Doom::kReset) {
          HardReset(conn.client_fd);
          HardReset(conn.upstream_fd);
        }
        to_close.push_back(client_fd);
        continue;
      }
      // Half-close propagation: a drained leg whose source is gone shuts
      // down the write side of its destination; the connection dies when
      // both directions are done.
      for (Leg* leg : {&conn.up, &conn.down}) {
        if (!leg->dead && !leg->src_open && leg->inq.empty() &&
            leg->outbox.empty() && !DirectionPartitioned(*leg)) {
          (void)shutdown(leg->dst, SHUT_WR);
          leg->dead = true;
        }
      }
      if (conn.up.dead && conn.down.dead) to_close.push_back(client_fd);
    }
    for (const int fd : to_close) CloseConn(fd);

    last_tick_ = now;
  }
}

void ChaosProxy::AcceptPending() {
  while (true) {
    const int client_fd =
        accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client_fd < 0) return;
    const int one = 1;
    (void)setsockopt(client_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    const int upstream_fd = DialUpstream();
    if (upstream_fd < 0) {
      // Refused upstream reads as connect-then-EOF at the client, which is
      // exactly what a dead node behind a healthy load balancer looks like.
      close(client_fd);
      continue;
    }

    const std::uint64_t conn_seed =
        SplitMix64(plan_.seed ^ SplitMix64(next_conn_index_++));
    auto conn = std::make_unique<Conn>(conn_seed);
    conn->client_fd = client_fd;
    conn->upstream_fd = upstream_fd;
    conn->up = Leg{};
    conn->up.src = client_fd;
    conn->up.dst = upstream_fd;
    conn->up.to_upstream = true;
    conn->up.last_refill = Clock::now();
    conn->down = Leg{};
    conn->down.src = upstream_fd;
    conn->down.dst = client_fd;
    conn->down.to_upstream = false;
    conn->down.last_refill = conn->up.last_refill;
    // Buckets start full so short exchanges are not throttled spuriously.
    conn->up.drip_tokens = static_cast<double>(plan_.drip_bytes);
    conn->down.drip_tokens = conn->up.drip_tokens;
    conn->up.throttle_tokens =
        static_cast<double>(plan_.throttle_bytes_per_sec);
    conn->down.throttle_tokens = conn->up.throttle_tokens;

    epoll_event ev{};
    ev.data.fd = client_fd;
    ev.events = DirectionPartitioned(conn->up)
                    ? 0u
                    : static_cast<std::uint32_t>(EPOLLIN);
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, client_fd, &ev);
    ev.data.fd = upstream_fd;
    ev.events = DirectionPartitioned(conn->down)
                    ? 0u
                    : static_cast<std::uint32_t>(EPOLLIN);
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, upstream_fd, &ev);

    by_fd_[client_fd] = conn.get();
    by_fd_[upstream_fd] = conn.get();
    conns_[client_fd] = std::move(conn);
    connections_.fetch_add(1, std::memory_order_relaxed);
  }
}

int ChaosProxy::DialUpstream() {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  SetNonBlocking(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(upstream_port_);
  if (inet_pton(AF_INET, upstream_host_.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return -1;
  }
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 &&
      errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  pollfd pfd{fd, POLLOUT, 0};
  if (poll(&pfd, 1, kDialTimeoutMs) != 1) {
    close(fd);
    return -1;
  }
  int err = 0;
  socklen_t err_len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len) != 0 || err != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

void ChaosProxy::ReadLeg(Conn& conn, Leg& leg) {
  if (!leg.src_open) return;
  char buf[kReadChunk];
  while (true) {
    const ssize_t got = recv(leg.src, buf, sizeof(buf), MSG_DONTWAIT);
    if (got > 0) {
      const Clock::time_point now = Clock::now();
      Clock::time_point release = now;
      const bool shaped =
          plan_.delay > Duration::Zero() || plan_.jitter > Duration::Zero();
      if (shaped) {
        std::int64_t hold_us = plan_.delay.micros();
        if (plan_.jitter > Duration::Zero()) {
          hold_us += static_cast<std::int64_t>(conn.rng.Uniform(
              static_cast<std::uint64_t>(plan_.jitter.micros())));
        }
        release = now + std::chrono::microseconds(hold_us);
        chunks_delayed_.fetch_add(1, std::memory_order_relaxed);
        if (!conn.delay_traced) {
          conn.delay_traced = true;
          EmitChaos(obs::ChaosFaultCode::kDelay, hold_us);
        }
      }
      leg.inq.append(buf, static_cast<std::size_t>(got));
      leg.chunks.emplace_back(static_cast<std::size_t>(got), release);
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    if (got < 0 && errno == EINTR) continue;
    // EOF or hard error: stop reading; whatever is queued still forwards.
    leg.src_open = false;
    epoll_event ev{};
    ev.data.fd = leg.src;
    ev.events = 0;
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, leg.src, &ev);
    return;
  }
}

void ChaosProxy::PumpLeg(Conn& conn, Leg& leg, Clock::time_point now) {
  if (conn.doom != Doom::kNone) return;

  // Refill the shaping buckets from elapsed time (burst = one period for
  // the drip, one second for the throttle).
  const double dt =
      std::chrono::duration<double>(now - leg.last_refill).count();
  leg.last_refill = now;
  if (plan_.drip_bytes > 0 && plan_.drip_every > Duration::Zero()) {
    const double per_sec =
        static_cast<double>(plan_.drip_bytes) / plan_.drip_every.seconds();
    leg.drip_tokens = std::min(static_cast<double>(plan_.drip_bytes),
                               leg.drip_tokens + dt * per_sec);
  }
  if (plan_.throttle_bytes_per_sec > 0) {
    const auto cap = static_cast<double>(plan_.throttle_bytes_per_sec);
    leg.throttle_tokens = std::min(cap, leg.throttle_tokens + dt * cap);
  }

  // Bytes whose delay has elapsed.
  std::size_t due = 0;
  while (!leg.chunks.empty() && leg.chunks.front().second <= now) {
    due += leg.chunks.front().first;
    leg.chunks.pop_front();
  }
  if (due == 0) return;

  std::size_t take = due;
  if (plan_.drip_bytes > 0 && plan_.drip_every > Duration::Zero()) {
    take = std::min(take, static_cast<std::size_t>(leg.drip_tokens));
  }
  if (plan_.throttle_bytes_per_sec > 0) {
    take = std::min(take, static_cast<std::size_t>(leg.throttle_tokens));
  }
  if (take < due) {
    bytes_throttled_.fetch_add(due - take, std::memory_order_relaxed);
    if (!conn.throttle_traced) {
      conn.throttle_traced = true;
      EmitChaos(obs::ChaosFaultCode::kThrottle,
                static_cast<std::int64_t>(due - take));
    }
    // Deferred bytes go back to the head of the queue, due immediately.
    leg.chunks.emplace_front(due - take, now);
  }
  if (take == 0) return;
  if (plan_.drip_bytes > 0) leg.drip_tokens -= static_cast<double>(take);
  if (plan_.throttle_bytes_per_sec > 0) {
    leg.throttle_tokens -= static_cast<double>(take);
  }

  std::string bytes = leg.inq.substr(0, take);
  leg.inq.erase(0, take);
  FrameAndEmit(conn, leg, std::move(bytes));
}

void ChaosProxy::FrameAndEmit(Conn& conn, Leg& leg, std::string bytes) {
  // Emit helper: apply seeded corruption on the way into the outbox.
  std::uint64_t corrupted_here = 0;
  const auto emit = [&](const char* data, std::size_t n) {
    const std::size_t at = leg.outbox.size();
    leg.outbox.append(data, n);
    if (plan_.corrupt_byte_p > 0.0) {
      for (std::size_t i = 0; i < n; ++i) {
        if (conn.rng.Chance(plan_.corrupt_byte_p)) {
          leg.outbox[at + i] =
              static_cast<char>(static_cast<unsigned char>(leg.outbox[at + i]) ^
                                (1u << conn.rng.Uniform(8)));
          ++corrupted_here;
        }
      }
    }
  };

  std::size_t pos = 0;
  while (pos < bytes.size() && conn.doom == Doom::kNone) {
    if (!leg.frame_parse_ok) {
      // Stream desynced (corrupt header from a buggy peer, or a non-frame
      // protocol): relay the rest verbatim, no frame-boundary faults.
      emit(bytes.data() + pos, bytes.size() - pos);
      pos = bytes.size();
      break;
    }
    if (leg.in_header) {
      const std::size_t need = kFrameHeaderBytes - leg.frame_buf.size();
      const std::size_t got = std::min(need, bytes.size() - pos);
      leg.frame_buf.append(bytes.data() + pos, got);
      pos += got;
      if (leg.frame_buf.size() < kFrameHeaderBytes) break;

      std::uint32_t payload_len = 0;
      if (!ValidateFrameHeader(leg.frame_buf.data(), kTrackerMaxFrame,
                               &payload_len)
               .ok()) {
        leg.frame_parse_ok = false;
        emit(leg.frame_buf.data(), leg.frame_buf.size());
        leg.frame_buf.clear();
        continue;
      }
      leg.frame_total = kFrameHeaderBytes + payload_len;
      leg.frame_done = 0;
      leg.frame_fault = FrameFault::kNone;
      if (plan_.truncate_frame_p > 0.0 &&
          conn.rng.Chance(plan_.truncate_frame_p)) {
        leg.frame_fault = FrameFault::kTruncate;
      } else if (plan_.reset_frame_p > 0.0 &&
                 conn.rng.Chance(plan_.reset_frame_p)) {
        leg.frame_fault = FrameFault::kReset;
      }
      // Strict nonzero prefix: at least one byte forwarded, at least one
      // withheld, so the victim sees a torn frame rather than a clean gap.
      leg.frame_target =
          leg.frame_fault == FrameFault::kNone
              ? leg.frame_total
              : 1 + static_cast<std::size_t>(conn.rng.Uniform(
                        static_cast<std::uint64_t>(leg.frame_total - 1)));

      const std::size_t header_emit =
          std::min(leg.frame_buf.size(), leg.frame_target);
      emit(leg.frame_buf.data(), header_emit);
      leg.frame_done = leg.frame_buf.size();
      leg.frame_buf.clear();
      leg.in_header = false;
      if (leg.frame_done >= leg.frame_target &&
          leg.frame_fault != FrameFault::kNone) {
        ApplyFrameFault(conn, leg);
        break;
      }
      if (leg.frame_done == leg.frame_total) leg.in_header = true;
      continue;
    }

    // Frame body.
    const std::size_t remaining = leg.frame_total - leg.frame_done;
    const std::size_t got = std::min(remaining, bytes.size() - pos);
    const std::size_t can_emit =
        leg.frame_done < leg.frame_target
            ? std::min(got, leg.frame_target - leg.frame_done)
            : 0;
    if (can_emit > 0) emit(bytes.data() + pos, can_emit);
    leg.frame_done += got;
    pos += got;
    if (leg.frame_fault != FrameFault::kNone &&
        leg.frame_done >= leg.frame_target) {
      ApplyFrameFault(conn, leg);
      break;
    }
    if (leg.frame_done == leg.frame_total) {
      leg.in_header = true;
      leg.frame_done = 0;
    }
  }

  if (corrupted_here > 0) {
    bytes_corrupted_.fetch_add(corrupted_here, std::memory_order_relaxed);
    EmitChaos(obs::ChaosFaultCode::kCorrupt,
              static_cast<std::int64_t>(corrupted_here));
  }
}

void ChaosProxy::ApplyFrameFault(Conn& conn, Leg& leg) {
  if (leg.frame_fault == FrameFault::kTruncate) {
    conn.doom = Doom::kClean;
    frames_truncated_.fetch_add(1, std::memory_order_relaxed);
    EmitChaos(obs::ChaosFaultCode::kTruncate,
              static_cast<std::int64_t>(leg.frame_target));
  } else {
    conn.doom = Doom::kReset;
    frames_reset_.fetch_add(1, std::memory_order_relaxed);
    EmitChaos(obs::ChaosFaultCode::kReset,
              static_cast<std::int64_t>(leg.frame_target));
  }
  // Nothing past the prefix may leak out of either direction.
  conn.up.inq.clear();
  conn.up.chunks.clear();
  conn.down.inq.clear();
  conn.down.chunks.clear();
}

bool ChaosProxy::FlushOutboxOk(Conn& conn, Leg& leg) {
  (void)conn;
  while (!leg.outbox.empty()) {
    const ssize_t put = send(leg.dst, leg.outbox.data(), leg.outbox.size(),
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (put > 0) {
      bytes_relayed_.fetch_add(static_cast<std::uint64_t>(put),
                               std::memory_order_relaxed);
      leg.outbox.erase(0, static_cast<std::size_t>(put));
      continue;
    }
    if (put < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (put < 0 && errno == EINTR) continue;
    return false;  // peer gone; caller closes the connection
  }
  return true;
}

void ChaosProxy::CloseConn(int client_fd) {
  const auto it = conns_.find(client_fd);
  if (it == conns_.end()) return;
  Conn& conn = *it->second;
  for (const int fd : {conn.client_fd, conn.upstream_fd}) {
    (void)epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    by_fd_.erase(fd);
    close(fd);
  }
  conns_.erase(it);
}

void ChaosProxy::RefreshPartitionState(Clock::time_point now) {
  bool want_up = false;
  bool want_down = false;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    want_up = manual_to_upstream_;
    want_down = manual_to_client_;
  }
  const Duration elapsed = Duration::Micros(
      std::chrono::duration_cast<std::chrono::microseconds>(now - start_time_)
          .count());
  for (const ChaosPartitionWindow& w : plan_.partitions) {
    if (elapsed >= w.start && elapsed < w.end) {
      want_up = want_up || w.to_upstream;
      want_down = want_down || w.to_client;
    }
  }

  const bool had_up = cut_to_upstream_.load(std::memory_order_relaxed);
  const bool had_down = cut_to_client_.load(std::memory_order_relaxed);
  if (want_up == had_up && want_down == had_down) return;

  cut_to_upstream_.store(want_up, std::memory_order_relaxed);
  cut_to_client_.store(want_down, std::memory_order_relaxed);
  partition_transitions_.fetch_add(1, std::memory_order_relaxed);

  const std::int64_t mask =
      (want_up ? 1 : 0) | (want_down ? 2 : 0);
  if (want_up || want_down) {
    EmitChaos(obs::ChaosFaultCode::kPartition, mask);
  } else {
    EmitChaos(obs::ChaosFaultCode::kHeal, 0);
  }

  for (auto& [client_fd, conn] : conns_) {
    for (Leg* leg : {&conn->up, &conn->down}) {
      SetReadInterest(*leg, !DirectionPartitioned(*leg));
    }
  }
}

void ChaosProxy::SetReadInterest(Leg& leg, bool enabled) {
  if (!leg.src_open) return;
  epoll_event ev{};
  ev.data.fd = leg.src;
  ev.events = enabled ? static_cast<std::uint32_t>(EPOLLIN) : 0u;
  (void)epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, leg.src, &ev);
}

bool ChaosProxy::DirectionPartitioned(const Leg& leg) const {
  return leg.to_upstream ? cut_to_upstream_.load(std::memory_order_relaxed)
                         : cut_to_client_.load(std::memory_order_relaxed);
}

std::uint64_t ChaosSeedFromEnv(std::uint64_t fallback) {
  const char* env = std::getenv("ECC_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  return std::strtoull(env, nullptr, 0);
}

}  // namespace ecc::net
