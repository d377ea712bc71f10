// Blocking framed IO over a byte-stream descriptor: how the TCP client
// channel (tcp_channel.cc) writes requests and reads replies.  The frame
// layout is exactly Message::Serialize (see kFrameHeaderBytes in
// message.h), but neither direction builds that flat string: a frame is
// written as header + payload in one sendmsg, and read as a header, then
// the payload straight into the Message.
//
// Hardening contract:
//   * writes go through sendmsg(MSG_NOSIGNAL) — a dead peer yields an
//     error return, never SIGPIPE;
//   * headers are validated (known tag, bounded length) BEFORE the frame
//     buffer is allocated, and the CRC32C is checked before a frame is
//     returned;
//   * EINTR is retried; EAGAIN/EWOULDBLOCK (an armed SO_RCVTIMEO/SNDTIMEO
//     firing) is reported as kTimeout so callers can surface Unavailable.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "net/message.h"

namespace ecc::net::framing {

enum class IoResult : std::uint8_t {
  kOk = 0,
  kEof,      ///< peer closed cleanly (reads only)
  kTimeout,  ///< SO_RCVTIMEO / SO_SNDTIMEO fired
  kError,    ///< any other errno (peer reset, bad fd, ...)
};

/// Read one framed Message.  NotFound on clean EOF before a frame,
/// Unavailable on timeout or mid-frame loss, InvalidArgument on a header
/// that fails validation (unknown tag / frame above `max_frame_bytes`) —
/// rejected before any payload allocation.
///
/// `io_fail`, when given, reports the raw IO outcome of the failing read
/// (kOk when the frame was read but failed validation).  Callers that pool
/// connections use it to tell a dead peer (kEof/kError — reconnect and
/// resend) from a slow one (kTimeout — do not).
[[nodiscard]] StatusOr<Message> ReadFrame(int fd, std::size_t max_frame_bytes,
                                          IoResult* io_fail = nullptr);

/// Write one framed Message; `bytes`, when given, accumulates the wire
/// size actually attempted.
[[nodiscard]] IoResult WriteFrame(int fd, const Message& m,
                                  std::uint64_t* bytes = nullptr);

}  // namespace ecc::net::framing
