// Cache wire protocol: the messages a coordinator and cache servers
// exchange.  Each typed struct encodes to / decodes from a framed Message
// (1-byte type tag + payload).  Decoders are total: malformed bytes yield
// InvalidArgument, never UB.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace ecc::net {

enum class MsgType : std::uint8_t {
  kGetRequest = 1,
  kGetResponse = 2,
  kPutRequest = 3,
  kPutResponse = 4,
  kMigrateRequest = 5,
  kMigrateResponse = 6,
  kEraseRequest = 7,
  kEraseResponse = 8,
  kStatsRequest = 9,
  kStatsResponse = 10,
  /// Transport-level failure report (payload = status message text).
  kError = 11,
  /// Record count/bytes within one key range (two-phase migration verify).
  kRangeStatsRequest = 12,
  kRangeStatsResponse = 13,
  /// Bulk range delete (two-phase migration source cleanup / rollback).
  kEraseRangeRequest = 14,
  kEraseRangeResponse = 15,
  /// Commutative digest of [lo, hi] (warm-rejoin anti-entropy diff).
  kDigestRequest = 16,
  kDigestResponse = 17,
};

[[nodiscard]] const char* MsgTypeName(MsgType t);

/// True when `tag` is a defined MsgType value.  Transports must check this
/// (and the length bound) BEFORE allocating a frame buffer, so a garbage
/// header cannot commit the server to a 64 MiB allocation that
/// Message::Deserialize would only reject afterwards.
[[nodiscard]] constexpr bool IsKnownMsgType(std::uint8_t tag) {
  return tag >= static_cast<std::uint8_t>(MsgType::kGetRequest) &&
         tag <= static_cast<std::uint8_t>(MsgType::kDigestResponse);
}

/// Frame layout shared by every byte-stream transport:
///
///   u8 type tag | u32 LE payload length | u32 LE CRC32C | payload
///
/// The CRC32C (common/crc32c.h) runs over the tag and length bytes and then
/// the payload.  It is what turns wire corruption into a detectable,
/// retryable transport error: without it an acknowledged Put whose value
/// byte was damaged in flight would read back corrupt forever, and because
/// it covers the header too, a flipped tag bit cannot turn an ERASE into a
/// PUT that the node would apply.
///
/// The header is exactly 9 bytes and has no version field: NetworkModel
/// charges modelled transfer time per wire byte, so a longer header would
/// move the paper benches' virtual timings.  Peers of one build always
/// agree on the format; a peer from a build with another checksum fails
/// every frame's CRC and is dropped as corrupt.
inline constexpr std::size_t kFrameHeaderBytes = 1 + 4 + 4;

/// Write the header of a frame carrying `payload` into
/// `out[0, kFrameHeaderBytes)`.
void EncodeFrameHeader(MsgType type, std::string_view payload, char* out);

/// Check a received frame: `header` is its kFrameHeaderBytes header bytes,
/// `payload` the bytes after it.  Unavailable on a CRC mismatch — wire
/// damage is loss-equivalent and therefore retryable.
[[nodiscard]] Status VerifyFrameChecksum(const char* header,
                                         std::string_view payload);

/// Validate a frame header before trusting its length: unknown tags and
/// frames above `max_frame_bytes` are rejected without allocating.  On Ok,
/// `len` holds the payload byte count still to be read.
[[nodiscard]] Status ValidateFrameHeader(const char* header,
                                         std::size_t max_frame_bytes,
                                         std::uint32_t* len);

/// Encode a failed dispatch as a kError frame whose payload carries the
/// status code (1 byte) followed by the message text.  Preserving the code
/// across the wire matters for retry semantics: a handler's
/// InvalidArgument must NOT come back as retryable Unavailable, or the
/// client re-executes a known-bad request for its whole retry budget.
[[nodiscard]] struct Message EncodeErrorFrame(const Status& s);

/// Reconstruct the remote Status from a kError frame.  Payloads that do
/// not carry a code byte (or carry a nonsense one) degrade to Unavailable
/// with the raw text — loss-equivalent, hence retryable.
[[nodiscard]] Status DecodeErrorFrame(const struct Message& m);

/// A framed message: type tag + opaque payload bytes.
struct Message {
  MsgType type = MsgType::kGetRequest;
  std::string payload;

  /// Bytes this message occupies on the wire (header + payload).
  [[nodiscard]] std::size_t WireSize() const {
    return kFrameHeaderBytes + payload.size();
  }

  /// Append this frame (header, then payload) to `out`.
  void AppendTo(std::string& out) const;

  /// Flatten to bytes / parse from bytes (the frame layout above).
  [[nodiscard]] std::string Serialize() const;
  [[nodiscard]] static StatusOr<Message> Deserialize(std::string_view bytes);
};

// --- Typed payloads -------------------------------------------------------

struct GetRequest {
  std::uint64_t key = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<GetRequest> Decode(const Message& m);
};

struct GetResponse {
  bool found = false;
  std::string value;

  [[nodiscard]] Message Encode() const;
  /// The same frame, encoded straight from a stored value (nullptr = not
  /// found) without first copying it into a GetResponse.
  [[nodiscard]] static Message EncodeFrom(const std::string* stored);
  [[nodiscard]] static StatusOr<GetResponse> Decode(const Message& m);
};

struct PutRequest {
  std::uint64_t key = 0;
  std::string value;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<PutRequest> Decode(const Message& m);
};

struct PutResponse {
  bool accepted = false;      ///< false => node overflow
  std::uint64_t used_bytes = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<PutResponse> Decode(const Message& m);
};

/// A batch of records swept from one node toward another (Algorithm 2's
/// transfer unit).
struct MigrateRequest {
  std::vector<std::pair<std::uint64_t, std::string>> records;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<MigrateRequest> Decode(const Message& m);
};

struct MigrateResponse {
  std::uint64_t accepted = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<MigrateResponse> Decode(const Message& m);
};

struct EraseRequest {
  std::vector<std::uint64_t> keys;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<EraseRequest> Decode(const Message& m);
};

struct EraseResponse {
  std::uint64_t erased = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<EraseResponse> Decode(const Message& m);
};

struct StatsRequest {
  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<StatsRequest> Decode(const Message& m);
};

struct StatsResponse {
  std::uint64_t records = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t capacity_bytes = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<StatsResponse> Decode(const Message& m);
};

/// "What do you hold in [lo, hi]?" — the verify step of a two-phase
/// migration asks the destination this before the ring commit.
struct RangeStatsRequest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  ///< inclusive

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<RangeStatsRequest> Decode(const Message& m);
};

struct RangeStatsResponse {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<RangeStatsResponse> Decode(const Message& m);
};

/// "Delete everything you hold in [lo, hi]."  Idempotent, so a migration
/// cleanup (or rollback) interrupted mid-flight can simply be re-issued.
struct EraseRangeRequest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  ///< inclusive

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<EraseRangeRequest> Decode(const Message& m);
};

struct EraseRangeResponse {
  std::uint64_t erased = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<EraseRangeResponse> Decode(const Message& m);
};

/// "Fold your records in [lo, hi] to a commutative digest."  The warm
/// rejoin protocol partitions the keyspace into buckets and asks the
/// restarted node this per bucket: matching digests verify a whole bucket
/// of recovered state in one round trip; only mismatched buckets are
/// synced key-by-key.
struct DigestRequest {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;  ///< inclusive

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<DigestRequest> Decode(const Message& m);
};

struct DigestResponse {
  std::uint64_t digest = 0;   ///< sum of common::DigestTerm over the range
  std::uint64_t records = 0;

  [[nodiscard]] Message Encode() const;
  [[nodiscard]] static StatusOr<DigestResponse> Decode(const Message& m);
};

}  // namespace ecc::net
