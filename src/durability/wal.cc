#include "durability/wal.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/crc32c.h"
#include "common/log.h"
#include "net/wire.h"

namespace ecc::durability {

namespace {

/// Record header: u32 body length + u32 CRC32C of the length bytes and the
/// body.
constexpr std::size_t kRecordHeaderBytes = 4 + 4;

/// First body byte of every record: high bit set, low bits the format
/// version (2 = CRC32C).  Version 1 records (FNV-1a checksum) had no such
/// byte; their body began with the op code, 1..3, so replay stops at the
/// first of them on this byte alone, whatever their checksum happens to be.
constexpr std::uint8_t kRecordFormat = 0x80 | 2;

/// Lengths above this are corruption, not data (a shard record is bounded
/// by node capacity, far below this).
constexpr std::uint32_t kMaxRecordBodyBytes = 64u << 20;

/// The body up to, not including, a put's value bytes: format byte, op,
/// key, then the value's length (put) or the range end (erase-range).
std::string EncodeBodyHead(WalRecord::Op op, std::uint64_t key,
                           std::uint64_t hi, std::size_t value_size) {
  net::WireWriter w;
  w.PutU8(kRecordFormat);
  w.PutU8(static_cast<std::uint8_t>(op));
  w.PutU64(key);
  switch (op) {
    case WalRecord::Op::kPut:
      w.PutVarint(value_size);
      break;
    case WalRecord::Op::kErase:
      break;
    case WalRecord::Op::kEraseRange:
      w.PutU64(hi);
      break;
  }
  return w.TakeBuffer();
}

/// A record's CRC32C: its four length bytes, then its body, which is
/// `head` followed by `tail`.
std::uint32_t RecordCrc(const char* len_bytes, std::string_view head,
                        std::string_view tail = {}) {
  return crc32c::Extend(
      crc32c::Extend(crc32c::Value(std::string_view(len_bytes, 4)), head),
      tail);
}

/// The record header for a body that is `head` followed by `tail`.
void EncodeHeader(std::string_view head, std::string_view tail, char* out) {
  const auto len = static_cast<std::uint32_t>(head.size() + tail.size());
  std::memcpy(out, &len, sizeof(len));
  const std::uint32_t crc = RecordCrc(out, head, tail);
  std::memcpy(out + 4, &crc, sizeof(crc));
}

Status DecodeBody(std::string_view body, WalRecord* out) {
  net::WireReader r(body);
  std::uint8_t format = 0;
  if (Status s = r.GetU8(format); !s.ok()) return s;
  if (format != kRecordFormat) {
    return Status::InvalidArgument("unknown wal record format");
  }
  std::uint8_t op = 0;
  if (Status s = r.GetU8(op); !s.ok()) return s;
  if (op < static_cast<std::uint8_t>(WalRecord::Op::kPut) ||
      op > static_cast<std::uint8_t>(WalRecord::Op::kEraseRange)) {
    return Status::InvalidArgument("unknown wal op");
  }
  out->op = static_cast<WalRecord::Op>(op);
  if (Status s = r.GetU64(out->key); !s.ok()) return s;
  switch (out->op) {
    case WalRecord::Op::kPut:
      if (Status s = r.GetBytes(out->value); !s.ok()) return s;
      break;
    case WalRecord::Op::kErase:
      break;
    case WalRecord::Op::kEraseRange:
      if (Status s = r.GetU64(out->hi); !s.ok()) return s;
      break;
  }
  if (!r.exhausted()) return Status::InvalidArgument("trailing record bytes");
  return Status::Ok();
}

/// writev until every byte of `iov` is in the kernel.
Status WriteAllV(int fd, iovec* iov, int count) {
  while (count > 0) {
    const ssize_t w = ::writev(fd, iov, count);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("wal write: ") +
                              std::strerror(errno));
    }
    auto left = static_cast<std::size_t>(w);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::Ok();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path) : path_(std::move(path)) {}

WriteAheadLog::~WriteAheadLog() { Close(); }

Status WriteAheadLog::Open() {
  if (fd_ >= 0) return Status::Ok();
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    return Status::Internal("wal open " + path_ + ": " +
                            std::strerror(errno));
  }
  return Status::Ok();
}

void WriteAheadLog::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::string WriteAheadLog::EncodeRecord(const WalRecord& r) {
  const std::string_view tail =
      r.op == WalRecord::Op::kPut ? std::string_view(r.value) : "";
  const std::string head = EncodeBodyHead(r.op, r.key, r.hi, tail.size());
  char header[kRecordHeaderBytes];
  EncodeHeader(head, tail, header);
  std::string out(header, sizeof(header));
  out += head;
  out += tail;
  return out;
}

Status WriteAheadLog::Append(const WalRecord& r) {
  return Append(r.op, r.key, r.hi, r.value);
}

Status WriteAheadLog::Append(WalRecord::Op op, std::uint64_t key,
                             std::uint64_t hi, std::string_view value) {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  // A put's value is checksummed and written from the caller's buffer:
  // header, body head and value leave in one writev, never joined.
  const std::string_view tail = op == WalRecord::Op::kPut ? value : "";
  const std::string head = EncodeBodyHead(op, key, hi, tail.size());
  char header[kRecordHeaderBytes];
  EncodeHeader(head, tail, header);
  iovec iov[3] = {{header, sizeof(header)},
                  {const_cast<char*>(head.data()), head.size()},
                  {const_cast<char*>(tail.data()), tail.size()}};
  if (Status s = WriteAllV(fd_, iov, 3); !s.ok()) return s;
  ++appended_;
  ++unsynced_;
  bytes_appended_ += sizeof(header) + head.size() + tail.size();
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  if (fd_ < 0 || unsynced_ == 0) return Status::Ok();
  if (::fdatasync(fd_) != 0) {
    return Status::Internal(std::string("wal fdatasync: ") +
                            std::strerror(errno));
  }
  unsynced_ = 0;
  return Status::Ok();
}

Status WriteAheadLog::Reset() {
  if (fd_ < 0) return Status::FailedPrecondition("wal not open");
  if (::ftruncate(fd_, 0) != 0) {
    return Status::Internal(std::string("wal truncate: ") +
                            std::strerror(errno));
  }
  unsynced_ = 0;
  return Status::Ok();
}

StatusOr<WalReplayStats> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply,
    bool truncate_torn_tail) {
  WalReplayStats stats;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return stats;  // no log yet: empty, not an error
    return Status::Internal("wal open " + path + ": " +
                            std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return Status::Internal(std::string("wal read: ") +
                              std::strerror(errno));
    }
    if (r == 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  // Walk frames; the first bad one (short header, implausible length, bad
  // checksum, undecodable body) ends the valid prefix.
  std::size_t off = 0;
  while (off + kRecordHeaderBytes <= data.size()) {
    const char* header = data.data() + off;
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    std::memcpy(&len, header, sizeof(len));
    std::memcpy(&crc, header + 4, sizeof(crc));
    if (len > kMaxRecordBodyBytes ||
        off + kRecordHeaderBytes + len > data.size()) {
      break;  // torn tail (or garbage length)
    }
    const std::string_view body(header + kRecordHeaderBytes, len);
    if (RecordCrc(header, body) != crc) break;  // bit damage
    WalRecord rec;
    if (!DecodeBody(body, &rec).ok()) break;
    if (Status s = apply(rec); !s.ok()) return s;
    off += kRecordHeaderBytes + len;
    ++stats.records;
  }
  stats.bytes_kept = off;
  stats.bytes_truncated = data.size() - off;
  stats.torn = stats.bytes_truncated > 0;
  if (stats.torn && truncate_torn_tail) {
    if (::truncate(path.c_str(), static_cast<off_t>(off)) != 0) {
      return Status::Internal(std::string("wal tail truncate: ") +
                              std::strerror(errno));
    }
    ECC_LOG_WARN("wal: %s: dropped torn tail (%llu bytes after %llu records)",
                 path.c_str(),
                 static_cast<unsigned long long>(stats.bytes_truncated),
                 static_cast<unsigned long long>(stats.records));
  }
  return stats;
}

}  // namespace ecc::durability
