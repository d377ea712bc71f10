// Tests for src/durability/: WAL record framing and torn-tail-tolerant
// replay (truncation at every byte offset of the final record, bit flips
// in the body), atomic snapshot write/load, NodeDurability recovery across
// a simulated restart (snapshot + WAL, compaction, the
// crash-between-snapshot-and-reset window), the refusal of files in the
// retired FNV-1a format, and FleetDurability's retired-state salvage used
// by the recovery manager.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "core/cache_node.h"
#include "durability/durability.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "net/wire.h"

namespace ecc::durability {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string tmpl = ::testing::TempDir() + "/" + tag + ".XXXXXX";
  if (::mkdtemp(tmpl.data()) == nullptr) ADD_FAILURE() << "mkdtemp failed";
  return tmpl;
}

std::string Val(std::uint64_t k) {
  return "v" + std::to_string(k) + std::string(32, 'x');
}

WalRecord Put(std::uint64_t k) {
  WalRecord r;
  r.op = WalRecord::Op::kPut;
  r.key = k;
  r.value = Val(k);
  return r;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(f.good());
}

std::uint64_t FileSize(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  return f.good() ? static_cast<std::uint64_t>(f.tellg()) : 0;
}

/// Replay into a flat (op, key, value) list.
using Applied = std::vector<std::tuple<WalRecord::Op, std::uint64_t,
                                       std::string>>;
StatusOr<WalReplayStats> ReplayInto(const std::string& path, Applied* out,
                                    bool truncate = true) {
  return WriteAheadLog::Replay(
      path,
      [out](const WalRecord& r) -> Status {
        out->emplace_back(r.op, r.key, r.value);
        return Status::Ok();
      },
      truncate);
}

// --- WriteAheadLog ---------------------------------------------------------

TEST(WalTest, RoundTripAllOps) {
  const std::string dir = FreshDir("wal_roundtrip");
  const std::string path = dir + "/wal.ecc";
  WriteAheadLog wal(path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(Put(1)).ok());
  ASSERT_TRUE(wal.Append(Put(2)).ok());
  WalRecord erase;
  erase.op = WalRecord::Op::kErase;
  erase.key = 1;
  ASSERT_TRUE(wal.Append(erase).ok());
  WalRecord sweep;
  sweep.op = WalRecord::Op::kEraseRange;
  sweep.key = 10;
  sweep.hi = 20;
  ASSERT_TRUE(wal.Append(sweep).ok());
  EXPECT_EQ(wal.appended(), 4u);
  EXPECT_GT(wal.unsynced(), 0u);
  ASSERT_TRUE(wal.Sync().ok());
  EXPECT_EQ(wal.unsynced(), 0u);
  wal.Close();

  Applied got;
  auto stats = ReplayInto(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 4u);
  EXPECT_FALSE(stats->torn);
  EXPECT_EQ(stats->bytes_truncated, 0u);
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], std::make_tuple(WalRecord::Op::kPut, 1ull, Val(1)));
  EXPECT_EQ(got[1], std::make_tuple(WalRecord::Op::kPut, 2ull, Val(2)));
  EXPECT_EQ(std::get<0>(got[2]), WalRecord::Op::kErase);
  EXPECT_EQ(std::get<1>(got[2]), 1ull);
  EXPECT_EQ(std::get<0>(got[3]), WalRecord::Op::kEraseRange);
  EXPECT_EQ(std::get<1>(got[3]), 10ull);
}

TEST(WalTest, MissingFileIsEmptyLog) {
  Applied got;
  auto stats = ReplayInto(FreshDir("wal_missing") + "/absent.ecc", &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 0u);
  EXPECT_FALSE(stats->torn);
  EXPECT_TRUE(got.empty());
}

// The satellite case: a crash can cut the final record at *any* byte.  For
// every truncation offset inside the last record's frame the replay must
// keep exactly the preceding records, report the tail torn, and cut the
// file back so the next append extends a clean log.
TEST(WalTest, TornTailTruncatedAtEveryByteOffset) {
  std::string base;
  for (std::uint64_t k = 1; k <= 3; ++k) {
    base += WriteAheadLog::EncodeRecord(Put(k));
  }
  const std::string final_frame = WriteAheadLog::EncodeRecord(Put(99));
  const std::string full = base + final_frame;
  const std::string dir = FreshDir("wal_torn_offsets");

  for (std::size_t off = base.size(); off < full.size(); ++off) {
    const std::string path =
        dir + "/wal_" + std::to_string(off) + ".ecc";
    WriteFile(path, full.substr(0, off));
    Applied got;
    auto stats = ReplayInto(path, &got);
    ASSERT_TRUE(stats.ok()) << "offset " << off;
    EXPECT_EQ(stats->records, 3u) << "offset " << off;
    EXPECT_EQ(stats->bytes_kept, base.size()) << "offset " << off;
    EXPECT_EQ(stats->torn, off != base.size()) << "offset " << off;
    EXPECT_EQ(stats->bytes_truncated, off - base.size()) << "offset " << off;
    ASSERT_EQ(got.size(), 3u) << "offset " << off;
    EXPECT_EQ(std::get<1>(got.back()), 3ull) << "offset " << off;
    // The torn tail was cut off the file itself.
    EXPECT_EQ(FileSize(path), base.size()) << "offset " << off;
  }
}

// A flipped bit anywhere in the final record's body must fail the
// checksum: the record is dropped whole, never served corrupted.
TEST(WalTest, BitFlipInBodyDropsFinalRecord) {
  const std::string base = WriteAheadLog::EncodeRecord(Put(7));
  const std::string final_frame = WriteAheadLog::EncodeRecord(Put(8));
  constexpr std::size_t kHeaderBytes = 8;  // u32 len + u32 crc
  const std::string dir = FreshDir("wal_bitflip");

  for (std::size_t i = kHeaderBytes; i < final_frame.size(); ++i) {
    std::string corrupted = base + final_frame;
    corrupted[base.size() + i] =
        static_cast<char>(corrupted[base.size() + i] ^ (1 << (i % 8)));
    const std::string path = dir + "/wal_" + std::to_string(i) + ".ecc";
    WriteFile(path, corrupted);
    Applied got;
    auto stats = ReplayInto(path, &got);
    ASSERT_TRUE(stats.ok()) << "body byte " << i;
    EXPECT_EQ(stats->records, 1u) << "body byte " << i;
    EXPECT_TRUE(stats->torn) << "body byte " << i;
    ASSERT_EQ(got.size(), 1u) << "body byte " << i;
    EXPECT_EQ(std::get<1>(got[0]), 7ull) << "body byte " << i;
  }
}

TEST(WalTest, AppendAfterTornReplayExtendsCleanLog) {
  const std::string dir = FreshDir("wal_resume");
  const std::string path = dir + "/wal.ecc";
  const std::string frame = WriteAheadLog::EncodeRecord(Put(1));
  WriteFile(path, frame + frame.substr(0, frame.size() / 2));

  Applied got;
  auto stats = ReplayInto(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->torn);
  EXPECT_EQ(stats->records, 1u);

  WriteAheadLog wal(path);
  ASSERT_TRUE(wal.Open().ok());
  ASSERT_TRUE(wal.Append(Put(2)).ok());
  wal.Close();

  Applied again;
  auto second = ReplayInto(path, &again);
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second->torn);
  EXPECT_EQ(second->records, 2u);
  EXPECT_EQ(std::get<1>(again[1]), 2ull);
}

TEST(WalTest, ApplyFailureAbortsReplayAndKeepsFile) {
  const std::string dir = FreshDir("wal_applyfail");
  const std::string path = dir + "/wal.ecc";
  const std::string full = WriteAheadLog::EncodeRecord(Put(1)) +
                           WriteAheadLog::EncodeRecord(Put(2));
  WriteFile(path, full);
  std::size_t seen = 0;
  auto stats = WriteAheadLog::Replay(path, [&seen](const WalRecord&) {
    return ++seen == 2 ? Status::Internal("boom") : Status::Ok();
  });
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(FileSize(path), full.size());  // an apply error never truncates
}

// --- Snapshot files --------------------------------------------------------

TEST(SnapshotTest, RoundTrip) {
  const std::string dir = FreshDir("snap_roundtrip");
  const std::string payload = "shard-blob-" + std::string(500, 's');
  ASSERT_TRUE(WriteSnapshotFile(dir, payload).ok());
  auto loaded = LoadSnapshotFile(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, payload);
  // Overwrite-in-place is atomic rename: a second write fully replaces.
  ASSERT_TRUE(WriteSnapshotFile(dir, "second").ok());
  auto again = LoadSnapshotFile(dir);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, "second");
}

TEST(SnapshotTest, MissingIsNotFound) {
  auto loaded = LoadSnapshotFile(FreshDir("snap_missing"));
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(SnapshotTest, DamageIsRejectedNeverServed) {
  const std::string dir = FreshDir("snap_damage");
  ASSERT_TRUE(WriteSnapshotFile(dir, std::string(256, 'p')).ok());
  const std::string path = dir + "/" + kSnapshotFileName;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();

  // A flipped payload byte fails the checksum.
  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x20;
  WriteFile(path, flipped);
  EXPECT_EQ(LoadSnapshotFile(dir).status().code(),
            StatusCode::kInvalidArgument);

  // A truncated file fails the length check.
  WriteFile(path, bytes.substr(0, bytes.size() - 3));
  EXPECT_EQ(LoadSnapshotFile(dir).status().code(),
            StatusCode::kInvalidArgument);

  // A wrong magic is not a snapshot at all.
  std::string alien = bytes;
  alien[0] ^= 0xff;
  WriteFile(path, alien);
  EXPECT_EQ(LoadSnapshotFile(dir).status().code(),
            StatusCode::kInvalidArgument);
}

// --- NodeDurability --------------------------------------------------------

DurabilityOptions NoFsync() {
  DurabilityOptions o;
  o.fsync = false;  // tests exercise logic, not the platter
  return o;
}

TEST(NodeDurabilityTest, RecoversShardAcrossRestart) {
  const std::string dir = FreshDir("nd_restart");
  {
    core::CacheNode node(1, 0, 1u << 20);
    NodeDurability nd(dir, NoFsync());
    ASSERT_TRUE(nd.Attach(&node).ok());
    for (std::uint64_t k = 0; k < 32; ++k) {
      ASSERT_TRUE(node.Insert(k, Val(k)).ok());
    }
    EXPECT_TRUE(node.Erase(3));
    EXPECT_EQ(node.EraseRange(10, 14), 5u);
    nd.Tick();
    EXPECT_EQ(nd.appends(), 34u);  // 32 puts + erase + erase-range
    nd.Detach();
  }

  core::CacheNode revived(1, 0, 1u << 20);
  NodeDurability nd(dir, NoFsync());
  ASSERT_TRUE(nd.Attach(&revived).ok());
  EXPECT_EQ(nd.recover_stats().wal_records, 34u);
  EXPECT_FALSE(nd.recover_stats().torn);
  EXPECT_EQ(revived.record_count(), 26u);
  EXPECT_FALSE(revived.Contains(3));
  EXPECT_FALSE(revived.Contains(12));
  ASSERT_NE(revived.Find(7), nullptr);
  EXPECT_EQ(*revived.Find(7), Val(7));
  // The revived shard keeps logging: a post-restart write survives another
  // restart.
  ASSERT_TRUE(revived.Insert(100, Val(100)).ok());
  nd.Detach();
  core::CacheNode third(1, 0, 1u << 20);
  NodeDurability nd3(dir, NoFsync());
  ASSERT_TRUE(nd3.Attach(&third).ok());
  EXPECT_TRUE(third.Contains(100));
}

TEST(NodeDurabilityTest, CompactionSnapshotsAndResetsWal) {
  const std::string dir = FreshDir("nd_compact");
  DurabilityOptions opts = NoFsync();
  opts.snapshot_every_appends = 8;
  {
    core::CacheNode node(2, 0, 1u << 20);
    NodeDurability nd(dir, opts);
    ASSERT_TRUE(nd.Attach(&node).ok());
    for (std::uint64_t k = 0; k < 20; ++k) {
      ASSERT_TRUE(node.Insert(k, Val(k)).ok());
    }
    EXPECT_EQ(nd.snapshots(), 2u);  // compacted at appends 8 and 16
    nd.Detach();
  }

  core::CacheNode revived(2, 0, 1u << 20);
  NodeDurability nd(dir, opts);
  ASSERT_TRUE(nd.Attach(&revived).ok());
  EXPECT_EQ(nd.recover_stats().snapshot_records, 16u);
  EXPECT_EQ(nd.recover_stats().wal_records, 4u);
  EXPECT_EQ(revived.record_count(), 20u);
  for (std::uint64_t k = 0; k < 20; ++k) {
    EXPECT_TRUE(revived.Contains(k)) << "key " << k;
  }
}

// A crash between the snapshot rename and the WAL reset leaves the same
// records in both; replaying the stale WAL over the snapshot must be
// idempotent, not an error.
TEST(NodeDurabilityTest, SnapshotPlusStaleWalReplaysIdempotently) {
  const std::string dir = FreshDir("nd_stale_wal");
  core::CacheNode donor(3, 0, 1u << 20);
  for (std::uint64_t k = 0; k < 10; ++k) {
    ASSERT_TRUE(donor.Insert(k, Val(k)).ok());
  }
  ASSERT_TRUE(WriteSnapshotFile(dir, donor.SerializeShard()).ok());
  WriteAheadLog wal(dir + "/wal.ecc");
  ASSERT_TRUE(wal.Open().ok());
  for (std::uint64_t k = 0; k < 15; ++k) {  // 0..9 duplicate the snapshot
    ASSERT_TRUE(wal.Append(Put(k)).ok());
  }
  wal.Close();

  core::CacheNode node(3, 0, 1u << 20);
  NodeDurability nd(dir, NoFsync());
  ASSERT_TRUE(nd.Attach(&node).ok());
  EXPECT_EQ(nd.recover_stats().snapshot_records, 10u);
  EXPECT_EQ(nd.recover_stats().wal_records, 15u);
  EXPECT_EQ(node.record_count(), 15u);
}

TEST(NodeDurabilityTest, TornWalTailSurfacesInRecoverStats) {
  const std::string dir = FreshDir("nd_torn");
  {
    core::CacheNode node(4, 0, 1u << 20);
    NodeDurability nd(dir, NoFsync());
    ASSERT_TRUE(nd.Attach(&node).ok());
    for (std::uint64_t k = 0; k < 5; ++k) {
      ASSERT_TRUE(node.Insert(k, Val(k)).ok());
    }
    nd.Detach();
  }
  {
    std::ofstream f(dir + "/wal.ecc", std::ios::binary | std::ios::app);
    f.write("\x20\x00\x00", 3);  // half a header: a record cut mid-crash
  }
  core::CacheNode revived(4, 0, 1u << 20);
  NodeDurability nd(dir, NoFsync());
  ASSERT_TRUE(nd.Attach(&revived).ok());
  EXPECT_TRUE(nd.recover_stats().torn);
  EXPECT_EQ(nd.recover_stats().wal_bytes_truncated, 3u);
  EXPECT_EQ(nd.recover_stats().wal_records, 5u);
  EXPECT_EQ(revived.record_count(), 5u);
}

TEST(NodeDurabilityTest, AttachRefusesNonEmptyNode) {
  core::CacheNode node(5, 0, 1u << 20);
  ASSERT_TRUE(node.Insert(1, Val(1)).ok());
  NodeDurability nd(FreshDir("nd_nonempty"), NoFsync());
  EXPECT_EQ(nd.Attach(&node).code(), StatusCode::kFailedPrecondition);
}

// --- Format 1 files (FNV-1a era) ------------------------------------------

/// The checksum of format 1 WAL records and snapshots, kept here only to
/// write such files.
std::uint32_t Fnv1a(std::string_view bytes) {
  std::uint32_t h = 2166136261u;
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 16777619u;
  }
  return h;
}

/// A format 1 put record: u32 body length | u32 FNV-1a of the body | body,
/// where the body is u8 op | u64 key | varint length + value.
std::string FormatOnePut(std::uint64_t k) {
  net::WireWriter body;
  body.PutU8(static_cast<std::uint8_t>(WalRecord::Op::kPut));
  body.PutU64(k);
  body.PutBytes(Val(k));
  net::WireWriter rec;
  rec.PutU32(static_cast<std::uint32_t>(body.size()));
  rec.PutU32(Fnv1a(body.buffer()));
  return rec.TakeBuffer() + body.buffer();
}

/// A format 1 snapshot: u32 magic "SSCE" | u32 length | u32 FNV-1a of the
/// payload | payload.
std::string FormatOneSnapshot(const std::string& payload) {
  net::WireWriter w;
  w.PutU32(0x45435353);
  w.PutU32(static_cast<std::uint32_t>(payload.size()));
  w.PutU32(Fnv1a(payload));
  return w.TakeBuffer() + payload;
}

// Files written before the CRC32C formats must be refused the way damaged
// ones are — never misread: the snapshot is rejected, the WAL replays
// nothing and is cut back to its (empty) valid prefix, and a node attached
// to such a directory starts empty, saying why.
TEST(FormatVersionTest, FormatOneFilesAreRefusedNotMisread) {
  const std::string old_wal =
      FormatOnePut(1) + FormatOnePut(2) + FormatOnePut(3);

  const std::string replay_dir = FreshDir("v1_replay");
  const std::string path = replay_dir + "/wal.ecc";
  WriteFile(path, old_wal);
  Applied got;
  auto stats = ReplayInto(path, &got);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->records, 0u);
  EXPECT_TRUE(stats->torn);
  EXPECT_EQ(stats->bytes_kept, 0u);
  EXPECT_EQ(stats->bytes_truncated, old_wal.size());
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(FileSize(path), 0u);

  const std::string dir = FreshDir("v1_attach");
  core::CacheNode donor(6, 0, 1u << 20);
  for (std::uint64_t k = 10; k < 14; ++k) {
    ASSERT_TRUE(donor.Insert(k, Val(k)).ok());
  }
  WriteFile(dir + "/" + kSnapshotFileName,
            FormatOneSnapshot(donor.SerializeShard()));
  WriteFile(dir + "/wal.ecc", old_wal);
  EXPECT_EQ(LoadSnapshotFile(dir).status().code(),
            StatusCode::kInvalidArgument);

  core::CacheNode node(6, 0, 1u << 20);
  NodeDurability nd(dir, NoFsync());
  ::testing::internal::CaptureStderr();
  const Status attached = nd.Attach(&node);
  const std::string log = ::testing::internal::GetCapturedStderr();
  ASSERT_TRUE(attached.ok()) << attached.message();
  EXPECT_NE(log.find("[W] durability: " + dir), std::string::npos) << log;
  EXPECT_NE(log.find("recovering from WAL only"), std::string::npos) << log;
  EXPECT_EQ(nd.recover_stats().snapshot_records, 0u);
  EXPECT_EQ(nd.recover_stats().wal_records, 0u);
  EXPECT_TRUE(nd.recover_stats().torn);
  EXPECT_EQ(node.record_count(), 0u);
  EXPECT_EQ(FileSize(dir + "/wal.ecc"), 0u);

  // The node logs in the current format from the clean start.
  ASSERT_TRUE(node.Insert(20, Val(20)).ok());
  nd.Detach();
  core::CacheNode revived(6, 0, 1u << 20);
  NodeDurability again(dir, NoFsync());
  ASSERT_TRUE(again.Attach(&revived).ok());
  EXPECT_EQ(again.recover_stats().wal_records, 1u);
  EXPECT_FALSE(again.recover_stats().torn);
  EXPECT_TRUE(revived.Contains(20));
}

// --- FleetDurability -------------------------------------------------------

TEST(FleetDurabilityTest, FactoryBindsAndSalvagesRetiredState) {
  DurabilityOptions opts = NoFsync();
  opts.dir = FreshDir("fleet_salvage");
  FleetDurability fleet(opts);
  ASSERT_TRUE(fleet.enabled());
  auto factory = fleet.Factory();

  auto node = std::make_unique<core::CacheNode>(7, 0, 1u << 20);
  auto handle = factory(7, node.get());
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(fleet.attached(), 1u);
  for (std::uint64_t k = 0; k < 16; ++k) {
    ASSERT_TRUE(node->Insert(k, Val(k)).ok());
  }

  // Nothing is salvageable while the node lives — salvage serves crashes.
  EXPECT_FALSE(fleet.SalvageValue(5).ok());

  handle.reset();  // node deallocation retires the on-disk state
  node.reset();
  EXPECT_EQ(fleet.retired(), 1u);
  auto v = fleet.SalvageValue(5);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, Val(5));
  EXPECT_EQ(fleet.SalvageValue(999).status().code(), StatusCode::kNotFound);
}

TEST(FleetDurabilityTest, SalvagePrefersNewestRetirement) {
  DurabilityOptions opts = NoFsync();
  opts.dir = FreshDir("fleet_newest");
  FleetDurability fleet(opts);
  auto factory = fleet.Factory();

  auto first = std::make_unique<core::CacheNode>(1, 0, 1u << 20);
  auto h1 = factory(1, first.get());
  ASSERT_NE(h1, nullptr);
  ASSERT_TRUE(first->Insert(42, "old-copy").ok());
  h1.reset();
  first.reset();

  auto second = std::make_unique<core::CacheNode>(2, 0, 1u << 20);
  auto h2 = factory(2, second.get());
  ASSERT_NE(h2, nullptr);
  ASSERT_TRUE(second->Insert(42, "new-copy").ok());
  h2.reset();
  second.reset();

  auto v = fleet.SalvageValue(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, "new-copy");
  EXPECT_EQ(fleet.retired(), 2u);
}

TEST(FleetDurabilityTest, DisabledFactoryHandsOutNothing) {
  FleetDurability fleet(DurabilityOptions{});
  EXPECT_FALSE(fleet.enabled());
  core::CacheNode node(1, 0, 1u << 20);
  EXPECT_EQ(fleet.Factory()(1, &node), nullptr);
}

// --- Env overlay -----------------------------------------------------------

TEST(DurabilityOptionsTest, EnvOverlay) {
  ::setenv("ECC_DURABILITY_DIR", "/tmp/ecc_env_dir", 1);
  ::setenv("ECC_DURABILITY_FSYNC", "0", 1);
  ::setenv("ECC_DURABILITY_SNAPSHOT_EVERY", "77", 1);
  const DurabilityOptions opts = DurabilityOptionsFromEnv();
  EXPECT_EQ(opts.dir, "/tmp/ecc_env_dir");
  EXPECT_FALSE(opts.fsync);
  EXPECT_EQ(opts.snapshot_every_appends, 77u);
  ::unsetenv("ECC_DURABILITY_DIR");
  ::unsetenv("ECC_DURABILITY_FSYNC");
  ::unsetenv("ECC_DURABILITY_SNAPSHOT_EVERY");
  const DurabilityOptions fresh = DurabilityOptionsFromEnv();
  EXPECT_TRUE(fresh.dir.empty());
  EXPECT_TRUE(fresh.fsync);
}

}  // namespace
}  // namespace ecc::durability
