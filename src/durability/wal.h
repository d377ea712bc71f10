// Append-only write-ahead log for one cache shard.
//
// Record framing reuses the wire idiom from src/net (framing.h/message.h):
// each record is `u32 length | u32 CRC32C | body`, little-endian, with the
// CRC32C (common/crc32c.h) taken over the four length bytes and then the
// body.  The body is a WireWriter encoding of one shard mutation:
//
//   u8 format (0x82) | u8 op | u64 key | varint len + value   (put)
//                                     | nothing               (erase)
//                                     | u64 hi                (erase-range)
//
// The format byte is the version marker.  Logs written before it existed
// (FNV-1a checksums, format 1) start every body with the op code, 1..3, so
// Replay() rejects their first record on that byte alone — the same torn
// outcome as a damaged record, never a misread one.
//
// Durability contract:
//   * Append() issues the full writev(2) before returning, so once a PUT
//     response leaves the node the record is in the kernel — a SIGKILL
//     cannot lose an acknowledged write.
//   * Sync() batches fdatasync(2) for power-loss durability; callers run
//     it at quiesced slice boundaries (core::MaintenanceTask), not per
//     append.
//   * Replay() is torn-tail tolerant: a record with a short header, an
//     implausible length, a checksum mismatch, or an undecodable body ends
//     the replay at the last valid record — a partial record is never
//     served — and (by default) the file is truncated there so the next
//     append starts from a clean tail.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace ecc::durability {

/// One logged shard mutation.
struct WalRecord {
  enum class Op : std::uint8_t {
    kPut = 1,
    kErase = 2,
    kEraseRange = 3,
  };

  Op op = Op::kPut;
  std::uint64_t key = 0;  ///< kEraseRange: range lo
  std::uint64_t hi = 0;   ///< kEraseRange only (inclusive)
  std::string value;      ///< kPut only
};

/// Outcome of one Replay() pass.
struct WalReplayStats {
  std::uint64_t records = 0;          ///< records decoded and applied
  std::uint64_t bytes_kept = 0;       ///< file prefix covered by them
  std::uint64_t bytes_truncated = 0;  ///< torn/corrupt tail discarded
  bool torn = false;                  ///< replay ended at a bad record
};

class WriteAheadLog {
 public:
  explicit WriteAheadLog(std::string path);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Open (creating if absent) for appends.  Idempotent.
  Status Open();
  void Close();
  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Write one framed record fully into the kernel; Internal on IO error.
  Status Append(const WalRecord& r);

  /// The same record given by its fields: `hi` matters for kEraseRange
  /// only, `value` for kPut only.  The value is checksummed and written
  /// from the caller's buffer, not copied.
  Status Append(WalRecord::Op op, std::uint64_t key, std::uint64_t hi,
                std::string_view value);

  /// fdatasync if any append landed since the last sync (fsync batching).
  Status Sync();

  /// Truncate to zero length (after a snapshot made the log redundant).
  Status Reset();

  [[nodiscard]] std::uint64_t appended() const { return appended_; }
  [[nodiscard]] std::uint64_t bytes_appended() const {
    return bytes_appended_;
  }
  [[nodiscard]] std::uint64_t unsynced() const { return unsynced_; }

  /// One record as its on-disk frame (exposed for torn-tail tests).
  [[nodiscard]] static std::string EncodeRecord(const WalRecord& r);

  /// Replay `path` oldest-first, calling `apply` per valid record.  A
  /// missing file is an empty log (ok, zero records).  The first invalid
  /// record ends the replay; with `truncate_torn_tail` the file is cut at
  /// the last valid byte so subsequent appends extend a clean log.  An
  /// `apply` failure aborts with that status (the tail is left alone).
  static StatusOr<WalReplayStats> Replay(
      const std::string& path,
      const std::function<Status(const WalRecord&)>& apply,
      bool truncate_torn_tail = true);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t appended_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t unsynced_ = 0;
};

}  // namespace ecc::durability
