#include "durability/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>

#include "common/crc32c.h"
#include "net/wire.h"

namespace ecc::durability {

namespace {

/// The magic doubles as the format version.  "ESC2" on disk: CRC32C over
/// the magic, the length and the payload.
constexpr std::uint32_t kSnapshotMagic = 0x32435345;
/// Format 1 ("SSCE" on disk): an FNV-1a checksum of the payload.  Only
/// recognised to say why such a file is refused.
constexpr std::uint32_t kSnapshotMagicV1 = 0x45435353;
constexpr std::size_t kSnapshotHeaderBytes = 4 + 4 + 4;

/// CRC32C of the first eight header bytes (magic, length), then `payload`.
std::uint32_t SnapshotCrc(const char* header, std::string_view payload) {
  return crc32c::Extend(crc32c::Value(std::string_view(header, 8)), payload);
}

Status SysError(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteAll(int fd, const char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    const ssize_t w = ::write(fd, buf + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return SysError("snapshot write");
    }
    done += static_cast<std::size_t>(w);
  }
  return Status::Ok();
}

/// fsync the directory so the rename itself survives power loss.
Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return SysError("snapshot opendir " + dir);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return SysError("snapshot fsync dir " + dir);
  return Status::Ok();
}

}  // namespace

Status WriteSnapshotFile(const std::string& dir, const std::string& payload) {
  const std::string tmp = dir + "/snapshot.tmp";
  const std::string live = dir + "/" + kSnapshotFileName;

  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return SysError("snapshot open " + tmp);

  char header[kSnapshotHeaderBytes];
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::memcpy(header, &kSnapshotMagic, 4);
  std::memcpy(header + 4, &len, 4);
  const std::uint32_t crc = SnapshotCrc(header, payload);
  std::memcpy(header + 8, &crc, 4);

  Status s = WriteAll(fd, header, sizeof(header));
  if (s.ok()) s = WriteAll(fd, payload.data(), payload.size());
  if (s.ok() && ::fsync(fd) != 0) s = SysError("snapshot fsync " + tmp);
  ::close(fd);
  if (!s.ok()) {
    ::unlink(tmp.c_str());
    return s;
  }
  if (::rename(tmp.c_str(), live.c_str()) != 0) {
    const Status rs = SysError("snapshot rename " + tmp);
    ::unlink(tmp.c_str());
    return rs;
  }
  return SyncDir(dir);
}

StatusOr<std::string> LoadSnapshotFile(const std::string& dir) {
  const std::string live = dir + "/" + kSnapshotFileName;
  const int fd = ::open(live.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no snapshot in " + dir);
    return SysError("snapshot open " + live);
  }
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return SysError("snapshot read " + live);
    }
    if (r == 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);

  net::WireReader r(data);
  std::uint32_t magic = 0;
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  if (Status s = r.GetU32(magic); !s.ok()) return s;
  if (magic == kSnapshotMagicV1) {
    return Status::InvalidArgument(
        "snapshot format 1 (FNV-1a) is no longer read: " + live);
  }
  if (magic != kSnapshotMagic) {
    return Status::InvalidArgument("not a snapshot file: " + live);
  }
  if (Status s = r.GetU32(len); !s.ok()) return s;
  if (Status s = r.GetU32(crc); !s.ok()) return s;
  if (data.size() != kSnapshotHeaderBytes + len) {
    return Status::InvalidArgument("snapshot length mismatch: " + live);
  }
  if (SnapshotCrc(data.data(),
                  std::string_view(data).substr(kSnapshotHeaderBytes)) !=
      crc) {
    return Status::InvalidArgument("snapshot checksum mismatch: " + live);
  }
  data.erase(0, kSnapshotHeaderBytes);  // the payload, moved down in place
  return data;
}

}  // namespace ecc::durability
