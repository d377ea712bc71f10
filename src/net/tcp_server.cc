#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/log.h"
#include "net/wire.h"

namespace ecc::net {

namespace {

constexpr int kEpollBatch = 32;
constexpr std::size_t kReadChunk = 64 * 1024;

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void DrainEventFd(int fd) {
  std::uint64_t tick = 0;
  while (::read(fd, &tick, sizeof(tick)) > 0) {
  }
}

void WakeEventFd(int fd) {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t w = ::write(fd, &one, sizeof(one));
}

}  // namespace

TcpServer::TcpServer(RpcServer* dispatch, TcpServerOptions opts)
    : dispatch_(dispatch), opts_(std::move(opts)) {
  assert(dispatch_ != nullptr);
  if (opts_.io_threads == 0) opts_.io_threads = 1;
}

TcpServer::~TcpServer() { Stop(); }

Status TcpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::Ok();
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address: " + opts_.bind_address);
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::Unavailable("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd_, opts_.listen_backlog) != 0 ||
      !SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Unavailable("cannot bind " + opts_.bind_address + ":" +
                               std::to_string(opts_.port));
  }
  // Resolve the ephemeral port before anyone can connect.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  accept_epoll_fd_ = ::epoll_create1(0);
  accept_wake_fd_ = ::eventfd(0, EFD_NONBLOCK);
  epoll_event lev{};
  lev.events = EPOLLIN;
  lev.data.fd = listen_fd_;
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &lev);
  epoll_event wev{};
  wev.events = EPOLLIN;
  wev.data.fd = accept_wake_fd_;
  ::epoll_ctl(accept_epoll_fd_, EPOLL_CTL_ADD, accept_wake_fd_, &wev);

  for (std::size_t i = 0; i < opts_.io_threads; ++i) {
    auto loop = std::make_unique<IoLoop>();
    loop->epoll_fd = ::epoll_create1(0);
    loop->wake_fd = ::eventfd(0, EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loop->wake_fd;
    ::epoll_ctl(loop->epoll_fd, EPOLL_CTL_ADD, loop->wake_fd, &ev);
    loops_.push_back(std::move(loop));
  }

  running_.store(true, std::memory_order_release);
  for (auto& loop : loops_) {
    loop->thread = std::thread([this, raw = loop.get()] { RunIoLoop(*raw); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  ECC_LOG_INFO("tcp: serving on %s:%u (%zu io loop(s))",
               opts_.bind_address.c_str(), static_cast<unsigned>(port_),
               opts_.io_threads);
  return Status::Ok();
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  WakeEventFd(accept_wake_fd_);
  for (auto& loop : loops_) WakeEventFd(loop->wake_fd);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
    for (auto& [fd, conn] : loop->conns) {
      ::close(fd);
      connections_closed_.fetch_add(1, std::memory_order_relaxed);
    }
    loop->conns.clear();
    for (int fd : loop->inbox) ::close(fd);
    loop->inbox.clear();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  loops_.clear();
  ::close(accept_epoll_fd_);
  ::close(accept_wake_fd_);
  ::close(listen_fd_);
  listen_fd_ = accept_epoll_fd_ = accept_wake_fd_ = -1;
}

TcpServerStats TcpServer::stats() const {
  TcpServerStats s;
  s.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  s.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  s.frames_served = frames_served_.load(std::memory_order_relaxed);
  s.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  s.accept_soft_errors = accept_soft_errors_.load(std::memory_order_relaxed);
  return s;
}

void TcpServer::AcceptLoop() {
  epoll_event events[kEpollBatch];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(accept_epoll_fd_, events, kEpollBatch, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      if (events[i].data.fd == accept_wake_fd_) {
        DrainEventFd(accept_wake_fd_);
        continue;  // shutdown checked by the loop condition
      }
      for (;;) {
        const int conn_fd = ::accept(listen_fd_, nullptr, nullptr);
        if (conn_fd < 0) {
          if (errno == EINTR) continue;
          if (errno == ECONNABORTED) {
            // The peer gave up while queued; nothing wrong with us.
            accept_soft_errors_.fetch_add(1, std::memory_order_relaxed);
            continue;
          }
          if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
              errno == ENOMEM) {
            // Descriptor/buffer exhaustion is a load condition, not a
            // protocol error: keep serving the connections we have.  The
            // short sleep matters — the listen fd is level-triggered, so
            // breaking straight back to epoll_wait would busy-spin until
            // a descriptor frees up.
            accept_soft_errors_.fetch_add(1, std::memory_order_relaxed);
            ECC_LOG_WARN("tcp_server: accept: %s (backing off)",
                         std::strerror(errno));
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          break;  // EAGAIN: accepted everything pending
        }
        if (!SetNonBlocking(conn_fd)) {
          ::close(conn_fd);
          continue;
        }
        SetNoDelay(conn_fd);
        connections_accepted_.fetch_add(1, std::memory_order_relaxed);
        IoLoop& loop = *loops_[next_loop_++ % loops_.size()];
        {
          const std::lock_guard<std::mutex> lock(loop.inbox_mutex);
          loop.inbox.push_back(conn_fd);
        }
        WakeEventFd(loop.wake_fd);
      }
    }
  }
}

void TcpServer::RunIoLoop(IoLoop& loop) {
  epoll_event events[kEpollBatch];
  while (running_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(loop.epoll_fd, events, kEpollBatch, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == loop.wake_fd) {
        DrainEventFd(loop.wake_fd);
        // Register freshly accepted connections.
        std::vector<int> fresh;
        {
          const std::lock_guard<std::mutex> lock(loop.inbox_mutex);
          fresh.swap(loop.inbox);
        }
        for (int conn_fd : fresh) {
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = conn_fd;
          if (::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn_fd, &ev) == 0) {
            loop.conns[conn_fd] = Connection{conn_fd, {}, {}, 0};
          } else {
            ::close(conn_fd);
            connections_closed_.fetch_add(1, std::memory_order_relaxed);
          }
        }
        continue;
      }
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) continue;  // already closed this batch
      Connection& conn = it->second;
      bool alive = true;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        alive = false;
      }
      if (alive && (events[i].events & EPOLLIN) != 0) {
        alive = HandleReadable(loop, conn);
      }
      if (alive && (events[i].events & EPOLLOUT) != 0) {
        alive = FlushWrites(loop, conn);
      }
      if (!alive) CloseConnection(loop, fd);
    }
  }
}

bool TcpServer::HandleReadable(IoLoop& loop, Connection& conn) {
  // Pull everything the kernel has for us, straight into conn.in.
  for (;;) {
    const std::size_t have = conn.in.size();
    ResizeUninitialized(conn.in, have + kReadChunk);
    const ssize_t r = ::read(conn.fd, conn.in.data() + have, kReadChunk);
    const int err = errno;
    ResizeUninitialized(conn.in,
                        have + (r > 0 ? static_cast<std::size_t>(r) : 0));
    if (r > 0) continue;
    if (r == 0) return false;  // peer closed
    if (err == EINTR) continue;
    if (err == EAGAIN || err == EWOULDBLOCK) break;
    return false;
  }
  // Serve every complete frame sitting in the buffer.
  std::size_t consumed = 0;
  while (conn.in.size() - consumed >= kFrameHeaderBytes) {
    std::uint32_t len = 0;
    if (Status s = ValidateFrameHeader(conn.in.data() + consumed,
                                       opts_.max_frame_bytes, &len);
        !s.ok()) {
      // Protocol violation: this connection cannot be trusted to stay
      // frame-aligned.  Drop it; other connections are unaffected.
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const std::size_t frame = kFrameHeaderBytes + len;
    if (conn.in.size() - consumed < frame) break;  // wait for the rest
    auto request = Message::Deserialize(
        std::string_view(conn.in).substr(consumed, frame));
    consumed += frame;
    if (!request.ok()) {
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    StatusOr<Message> response = [&] {
      const std::lock_guard<std::mutex> lock(dispatch_mutex_);
      return dispatch_->Dispatch(*request);
    }();
    Message out = response.ok() ? std::move(*response)
                                : EncodeErrorFrame(response.status());
    out.AppendTo(conn.out);
    frames_served_.fetch_add(1, std::memory_order_relaxed);
  }
  if (consumed > 0) conn.in.erase(0, consumed);
  return FlushWrites(loop, conn);
}

bool TcpServer::FlushWrites(IoLoop& loop, Connection& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t w = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // peer gone
    }
    conn.out_off += static_cast<std::size_t>(w);
  }
  epoll_event ev{};
  ev.data.fd = conn.fd;
  if (conn.out_off >= conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
    ev.events = EPOLLIN;
  } else {
    ev.events = EPOLLIN | EPOLLOUT;  // more to write when the pipe drains
  }
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
  return true;
}

void TcpServer::CloseConnection(IoLoop& loop, int fd) {
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  loop.conns.erase(fd);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ecc::net
