#include "net/message.h"

#include <cstring>

#include "common/crc32c.h"

namespace ecc::net {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kGetRequest: return "GET";
    case MsgType::kGetResponse: return "GET_RESP";
    case MsgType::kPutRequest: return "PUT";
    case MsgType::kPutResponse: return "PUT_RESP";
    case MsgType::kMigrateRequest: return "MIGRATE";
    case MsgType::kMigrateResponse: return "MIGRATE_RESP";
    case MsgType::kEraseRequest: return "ERASE";
    case MsgType::kEraseResponse: return "ERASE_RESP";
    case MsgType::kStatsRequest: return "STATS";
    case MsgType::kStatsResponse: return "STATS_RESP";
    case MsgType::kError: return "ERROR";
    case MsgType::kRangeStatsRequest: return "RANGE_STATS";
    case MsgType::kRangeStatsResponse: return "RANGE_STATS_RESP";
    case MsgType::kEraseRangeRequest: return "ERASE_RANGE";
    case MsgType::kEraseRangeResponse: return "ERASE_RANGE_RESP";
    case MsgType::kDigestRequest: return "DIGEST";
    case MsgType::kDigestResponse: return "DIGEST_RESP";
  }
  return "UNKNOWN";
}

Message EncodeErrorFrame(const Status& s) {
  Message m;
  m.type = MsgType::kError;
  m.payload.push_back(static_cast<char>(s.code()));
  m.payload += s.message();
  return m;
}

Status DecodeErrorFrame(const Message& m) {
  if (m.type != MsgType::kError || m.payload.empty()) {
    return Status::Unavailable("remote error");
  }
  const auto code_byte = static_cast<std::uint8_t>(m.payload[0]);
  if (code_byte == 0 ||
      code_byte > static_cast<std::uint8_t>(StatusCode::kInternal)) {
    // No code byte (legacy/foreign peer): the text is all we have, and
    // without a code we must assume the transport-loss default.
    return Status::Unavailable("remote error: " + m.payload);
  }
  return Status(static_cast<StatusCode>(code_byte),
                "remote error: " + m.payload.substr(1));
}

Status ValidateFrameHeader(const char* header, std::size_t max_frame_bytes,
                           std::uint32_t* len) {
  const auto tag = static_cast<std::uint8_t>(header[0]);
  if (!IsKnownMsgType(tag)) {
    return Status::InvalidArgument("unknown message type tag");
  }
  std::uint32_t n = 0;
  std::memcpy(&n, header + 1, sizeof(n));
  if (n > max_frame_bytes) {
    return Status::InvalidArgument("frame too large");
  }
  *len = n;
  return Status::Ok();
}

namespace {
/// The CRC field follows the tag and the length, which it covers.
constexpr std::size_t kFrameCrcOffset = 1 + 4;

std::uint32_t FrameCrc(const char* header, std::string_view payload) {
  return crc32c::Extend(
      crc32c::Value(std::string_view(header, kFrameCrcOffset)), payload);
}
}  // namespace

void EncodeFrameHeader(MsgType type, std::string_view payload, char* out) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  out[0] = static_cast<char>(type);
  std::memcpy(out + 1, &len, sizeof(len));
  const std::uint32_t crc = FrameCrc(out, payload);
  std::memcpy(out + kFrameCrcOffset, &crc, sizeof(crc));
}

Status VerifyFrameChecksum(const char* header, std::string_view payload) {
  std::uint32_t crc = 0;
  std::memcpy(&crc, header + kFrameCrcOffset, sizeof(crc));
  if (FrameCrc(header, payload) != crc) {
    // Wire damage, not a malformed request: loss-equivalent and therefore
    // retryable, unlike the InvalidArgument cases of Deserialize.
    return Status::Unavailable("frame checksum mismatch");
  }
  return Status::Ok();
}

void Message::AppendTo(std::string& out) const {
  char header[kFrameHeaderBytes];
  EncodeFrameHeader(type, payload, header);
  out.append(header, sizeof(header));
  out += payload;
}

std::string Message::Serialize() const {
  std::string out;
  out.reserve(WireSize());
  AppendTo(out);
  return out;
}

StatusOr<Message> Message::Deserialize(std::string_view bytes) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("wire underrun");
  }
  const auto tag = static_cast<std::uint8_t>(bytes[0]);
  if (!IsKnownMsgType(tag)) {
    return Status::InvalidArgument("unknown message type tag");
  }
  std::uint32_t len = 0;
  std::memcpy(&len, bytes.data() + 1, sizeof(len));
  const std::string_view payload = bytes.substr(kFrameHeaderBytes);
  if (payload.size() != len) {
    return Status::InvalidArgument("frame length mismatch");
  }
  if (Status s = VerifyFrameChecksum(bytes.data(), payload); !s.ok()) {
    return s;
  }
  return Message{static_cast<MsgType>(tag), std::string(payload)};
}

namespace {
Status ExpectType(const Message& m, MsgType want) {
  if (m.type != want) {
    return Status::InvalidArgument(std::string("expected ") +
                                   MsgTypeName(want) + " got " +
                                   MsgTypeName(m.type));
  }
  return Status::Ok();
}
}  // namespace

// --- GetRequest -----------------------------------------------------------

Message GetRequest::Encode() const {
  WireWriter w;
  w.PutU64(key);
  return Message{MsgType::kGetRequest, w.TakeBuffer()};
}

StatusOr<GetRequest> GetRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kGetRequest); !s.ok()) return s;
  WireReader r(m.payload);
  GetRequest out;
  if (Status s = r.GetU64(out.key); !s.ok()) return s;
  return out;
}

// --- GetResponse ----------------------------------------------------------

namespace {
Message EncodeGetResponse(bool found, std::string_view value) {
  WireWriter w;
  w.PutU8(found ? 1 : 0);
  w.PutBytes(value);
  return Message{MsgType::kGetResponse, w.TakeBuffer()};
}
}  // namespace

Message GetResponse::Encode() const { return EncodeGetResponse(found, value); }

Message GetResponse::EncodeFrom(const std::string* stored) {
  return stored != nullptr ? EncodeGetResponse(true, *stored)
                           : EncodeGetResponse(false, {});
}

StatusOr<GetResponse> GetResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kGetResponse); !s.ok()) return s;
  WireReader r(m.payload);
  GetResponse out;
  std::uint8_t flag = 0;
  if (Status s = r.GetU8(flag); !s.ok()) return s;
  out.found = flag != 0;
  if (Status s = r.GetBytes(out.value); !s.ok()) return s;
  return out;
}

// --- PutRequest -----------------------------------------------------------

Message PutRequest::Encode() const {
  WireWriter w;
  w.PutU64(key);
  w.PutBytes(value);
  return Message{MsgType::kPutRequest, w.TakeBuffer()};
}

StatusOr<PutRequest> PutRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kPutRequest); !s.ok()) return s;
  WireReader r(m.payload);
  PutRequest out;
  if (Status s = r.GetU64(out.key); !s.ok()) return s;
  if (Status s = r.GetBytes(out.value); !s.ok()) return s;
  return out;
}

// --- PutResponse ----------------------------------------------------------

Message PutResponse::Encode() const {
  WireWriter w;
  w.PutU8(accepted ? 1 : 0);
  w.PutU64(used_bytes);
  return Message{MsgType::kPutResponse, w.TakeBuffer()};
}

StatusOr<PutResponse> PutResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kPutResponse); !s.ok()) return s;
  WireReader r(m.payload);
  PutResponse out;
  std::uint8_t flag = 0;
  if (Status s = r.GetU8(flag); !s.ok()) return s;
  out.accepted = flag != 0;
  if (Status s = r.GetU64(out.used_bytes); !s.ok()) return s;
  return out;
}

// --- MigrateRequest -------------------------------------------------------

Message MigrateRequest::Encode() const {
  WireWriter w;
  w.PutVarint(records.size());
  for (const auto& [key, value] : records) {
    w.PutU64(key);
    w.PutBytes(value);
  }
  return Message{MsgType::kMigrateRequest, w.TakeBuffer()};
}

StatusOr<MigrateRequest> MigrateRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kMigrateRequest); !s.ok()) return s;
  WireReader r(m.payload);
  std::uint64_t count = 0;
  if (Status s = r.GetVarint(count); !s.ok()) return s;
  // Plausibility bound: each record costs at least 9 wire bytes (8-byte
  // key + 1-byte length).  Guards reserve() against allocation bombs from
  // corrupt counts.
  if (count > r.remaining() / 9) {
    return Status::InvalidArgument("record count exceeds payload");
  }
  MigrateRequest out;
  out.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t key = 0;
    std::string value;
    if (Status s = r.GetU64(key); !s.ok()) return s;
    if (Status s = r.GetBytes(value); !s.ok()) return s;
    out.records.emplace_back(key, std::move(value));
  }
  return out;
}

// --- MigrateResponse ------------------------------------------------------

Message MigrateResponse::Encode() const {
  WireWriter w;
  w.PutU64(accepted);
  return Message{MsgType::kMigrateResponse, w.TakeBuffer()};
}

StatusOr<MigrateResponse> MigrateResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kMigrateResponse); !s.ok()) return s;
  WireReader r(m.payload);
  MigrateResponse out;
  if (Status s = r.GetU64(out.accepted); !s.ok()) return s;
  return out;
}

// --- EraseRequest ---------------------------------------------------------

Message EraseRequest::Encode() const {
  WireWriter w;
  w.PutVarint(keys.size());
  for (std::uint64_t k : keys) w.PutU64(k);
  return Message{MsgType::kEraseRequest, w.TakeBuffer()};
}

StatusOr<EraseRequest> EraseRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kEraseRequest); !s.ok()) return s;
  WireReader r(m.payload);
  std::uint64_t count = 0;
  if (Status s = r.GetVarint(count); !s.ok()) return s;
  // Plausibility bound (8 wire bytes per key): see MigrateRequest::Decode.
  if (count > r.remaining() / 8) {
    return Status::InvalidArgument("key count exceeds payload");
  }
  EraseRequest out;
  out.keys.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint64_t k = 0;
    if (Status s = r.GetU64(k); !s.ok()) return s;
    out.keys.push_back(k);
  }
  return out;
}

// --- EraseResponse --------------------------------------------------------

Message EraseResponse::Encode() const {
  WireWriter w;
  w.PutU64(erased);
  return Message{MsgType::kEraseResponse, w.TakeBuffer()};
}

StatusOr<EraseResponse> EraseResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kEraseResponse); !s.ok()) return s;
  WireReader r(m.payload);
  EraseResponse out;
  if (Status s = r.GetU64(out.erased); !s.ok()) return s;
  return out;
}

// --- Stats ----------------------------------------------------------------

Message StatsRequest::Encode() const {
  return Message{MsgType::kStatsRequest, {}};
}

StatusOr<StatsRequest> StatsRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kStatsRequest); !s.ok()) return s;
  return StatsRequest{};
}

Message StatsResponse::Encode() const {
  WireWriter w;
  w.PutU64(records);
  w.PutU64(used_bytes);
  w.PutU64(capacity_bytes);
  return Message{MsgType::kStatsResponse, w.TakeBuffer()};
}

StatusOr<StatsResponse> StatsResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kStatsResponse); !s.ok()) return s;
  WireReader r(m.payload);
  StatsResponse out;
  if (Status s = r.GetU64(out.records); !s.ok()) return s;
  if (Status s = r.GetU64(out.used_bytes); !s.ok()) return s;
  if (Status s = r.GetU64(out.capacity_bytes); !s.ok()) return s;
  return out;
}

// --- RangeStats -----------------------------------------------------------

Message RangeStatsRequest::Encode() const {
  WireWriter w;
  w.PutU64(lo);
  w.PutU64(hi);
  return Message{MsgType::kRangeStatsRequest, w.TakeBuffer()};
}

StatusOr<RangeStatsRequest> RangeStatsRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kRangeStatsRequest); !s.ok()) {
    return s;
  }
  WireReader r(m.payload);
  RangeStatsRequest out;
  if (Status s = r.GetU64(out.lo); !s.ok()) return s;
  if (Status s = r.GetU64(out.hi); !s.ok()) return s;
  return out;
}

Message RangeStatsResponse::Encode() const {
  WireWriter w;
  w.PutU64(records);
  w.PutU64(bytes);
  return Message{MsgType::kRangeStatsResponse, w.TakeBuffer()};
}

StatusOr<RangeStatsResponse> RangeStatsResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kRangeStatsResponse); !s.ok()) {
    return s;
  }
  WireReader r(m.payload);
  RangeStatsResponse out;
  if (Status s = r.GetU64(out.records); !s.ok()) return s;
  if (Status s = r.GetU64(out.bytes); !s.ok()) return s;
  return out;
}

// --- EraseRange -----------------------------------------------------------

Message EraseRangeRequest::Encode() const {
  WireWriter w;
  w.PutU64(lo);
  w.PutU64(hi);
  return Message{MsgType::kEraseRangeRequest, w.TakeBuffer()};
}

StatusOr<EraseRangeRequest> EraseRangeRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kEraseRangeRequest); !s.ok()) {
    return s;
  }
  WireReader r(m.payload);
  EraseRangeRequest out;
  if (Status s = r.GetU64(out.lo); !s.ok()) return s;
  if (Status s = r.GetU64(out.hi); !s.ok()) return s;
  return out;
}

Message EraseRangeResponse::Encode() const {
  WireWriter w;
  w.PutU64(erased);
  return Message{MsgType::kEraseRangeResponse, w.TakeBuffer()};
}

StatusOr<EraseRangeResponse> EraseRangeResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kEraseRangeResponse); !s.ok()) {
    return s;
  }
  WireReader r(m.payload);
  EraseRangeResponse out;
  if (Status s = r.GetU64(out.erased); !s.ok()) return s;
  return out;
}

// --- Digest ---------------------------------------------------------------

Message DigestRequest::Encode() const {
  WireWriter w;
  w.PutU64(lo);
  w.PutU64(hi);
  return Message{MsgType::kDigestRequest, w.TakeBuffer()};
}

StatusOr<DigestRequest> DigestRequest::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kDigestRequest); !s.ok()) return s;
  WireReader r(m.payload);
  DigestRequest out;
  if (Status s = r.GetU64(out.lo); !s.ok()) return s;
  if (Status s = r.GetU64(out.hi); !s.ok()) return s;
  return out;
}

Message DigestResponse::Encode() const {
  WireWriter w;
  w.PutU64(digest);
  w.PutU64(records);
  return Message{MsgType::kDigestResponse, w.TakeBuffer()};
}

StatusOr<DigestResponse> DigestResponse::Decode(const Message& m) {
  if (Status s = ExpectType(m, MsgType::kDigestResponse); !s.ok()) return s;
  WireReader r(m.payload);
  DigestResponse out;
  if (Status s = r.GetU64(out.digest); !s.ok()) return s;
  if (Status s = r.GetU64(out.records); !s.ok()) return s;
  return out;
}

}  // namespace ecc::net
