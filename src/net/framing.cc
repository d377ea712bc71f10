#include "net/framing.h"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

#include "net/wire.h"

namespace ecc::net::framing {

namespace {

/// Read exactly n bytes.
IoResult ReadFull(int fd, char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t r = ::read(fd, buf + done, n - done);
    if (r == 0) return done == 0 ? IoResult::kEof : IoResult::kError;
    if (r < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kTimeout;
      return IoResult::kError;
    }
    done += static_cast<std::size_t>(r);
  }
  return IoResult::kOk;
}

}  // namespace

StatusOr<Message> ReadFrame(int fd, std::size_t max_frame_bytes,
                            IoResult* io_fail) {
  if (io_fail != nullptr) *io_fail = IoResult::kOk;
  char header[kFrameHeaderBytes];
  switch (const IoResult r = ReadFull(fd, header, sizeof(header))) {
    case IoResult::kOk: break;
    case IoResult::kEof:
      if (io_fail != nullptr) *io_fail = r;
      return Status::NotFound("connection closed");
    case IoResult::kTimeout:
      if (io_fail != nullptr) *io_fail = r;
      return Status::Unavailable("read timed out");
    case IoResult::kError:
      if (io_fail != nullptr) *io_fail = r;
      return Status::Unavailable("read failed");
  }
  // Validate the header before trusting its length: a garbage tag must not
  // commit us to a max_frame_bytes allocation.
  std::uint32_t len = 0;
  if (Status s = ValidateFrameHeader(header, max_frame_bytes, &len);
      !s.ok()) {
    return s;
  }
  // The payload is read once, straight into the message's own string.
  Message m;
  m.type = static_cast<MsgType>(header[0]);
  ResizeUninitialized(m.payload, len);
  if (len > 0) {
    switch (const IoResult r = ReadFull(fd, m.payload.data(), len)) {
      case IoResult::kOk: break;
      case IoResult::kTimeout:
        if (io_fail != nullptr) *io_fail = r;
        return Status::Unavailable("read timed out");
      default:
        if (io_fail != nullptr) *io_fail = r;
        return Status::Unavailable("truncated frame");
    }
  }
  if (Status s = VerifyFrameChecksum(header, m.payload); !s.ok()) return s;
  return m;
}

IoResult WriteFrame(int fd, const Message& m, std::uint64_t* bytes) {
  // Header and payload leave in one sendmsg, without being joined first.
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(m.type, m.payload, header);
  if (bytes != nullptr) *bytes += m.WireSize();
  iovec iov[2] = {{header, sizeof(header)},
                  {const_cast<char*>(m.payload.data()), m.payload.size()}};
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that is gone must surface as an error return
    // (EPIPE), never as a process-killing SIGPIPE.
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kTimeout;
      return IoResult::kError;
    }
    // Skip what went out; resume mid-iovec after a short write.
    auto left = static_cast<std::size_t>(w);
    while (msg.msg_iovlen > 0 && left >= msg.msg_iov->iov_len) {
      left -= msg.msg_iov->iov_len;
      ++msg.msg_iov;
      --msg.msg_iovlen;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<char*>(msg.msg_iov->iov_base) + left;
      msg.msg_iov->iov_len -= left;
    }
  }
  return IoResult::kOk;
}

}  // namespace ecc::net::framing
