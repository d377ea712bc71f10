// Atomic on-disk snapshots of one shard.
//
// A snapshot file wraps a CacheNode::SerializeShard() blob in the same
// header idiom as the WAL: `u32 magic | u32 length | u32 CRC32C |
// payload`, little-endian, with the CRC32C (common/crc32c.h) taken over the
// magic, the length and then the payload.  The magic is also the format
// version: "ESC2" on disk.  A format 1 file ("SSCE", FNV-1a checksum) is
// refused on its magic alone, like any damaged snapshot, and recovery falls
// back to the WAL.  Writes go through a temp file + fsync +
// rename-into-place + directory fsync, so a crash at any point leaves
// either the old snapshot or the new one — never a partial file under the
// live name.
#pragma once

#include <string>

#include "common/status.h"

namespace ecc::durability {

/// Live snapshot file name inside a node's durability directory.
inline constexpr char kSnapshotFileName[] = "snapshot.ecc";

/// Write `payload` (a SerializeShard blob) as `dir`/snapshot.ecc,
/// atomically replacing any previous snapshot.
Status WriteSnapshotFile(const std::string& dir, const std::string& payload);

/// Load the snapshot payload from `dir`/snapshot.ecc.  NotFound when no
/// snapshot exists; InvalidArgument when the header or checksum is bad (a
/// damaged snapshot is never served).
StatusOr<std::string> LoadSnapshotFile(const std::string& dir);

}  // namespace ecc::durability
