// Durable node state: WAL + snapshot per shard, and the fleet-wide manager
// that survives node restarts.
//
// NodeDurability mirrors one CacheNode's shard onto disk: every successful
// mutation is appended to a write-ahead log (core::ShardMutationListener),
// fsync is batched at slice boundaries (Tick), and a periodic compaction
// writes an atomic snapshot then resets the log.  Attach() runs the warm
// side of recovery — load snapshot, replay WAL (torn-tail tolerant), then
// start logging.
//
// FleetDurability owns one NodeDurability per live node (bound into
// ElasticCache through its durability_factory hook) and keeps the on-disk
// state of *retired* nodes around so the recovery manager can salvage an
// acknowledged write whose every in-memory copy died (SalvageValue).
//
// Opt-in: everything here is off unless a durability directory is
// configured (ECC_DURABILITY_DIR for the env overlay).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "core/cache_node.h"
#include "core/maintenance.h"
#include "durability/wal.h"
#include "obs/obs.h"

namespace ecc::durability {

struct DurabilityOptions {
  /// Root directory; each node persists under `<dir>/node_<id>/`.  Empty =
  /// durability disabled.
  std::string dir;
  /// fdatasync the WAL at slice boundaries (power-loss durability).  Off
  /// still survives SIGKILL — appends reach the kernel before the ack.
  bool fsync = true;
  /// Compact (snapshot + WAL reset) after this many appends.
  std::uint64_t snapshot_every_appends = 4096;
  obs::Observability obs;
  /// Virtual-clock source for trace stamps; nullptr stamps t = 0.
  std::function<TimePoint()> now;
};

/// Overlay `base` with ECC_DURABILITY_DIR, ECC_DURABILITY_FSYNC and
/// ECC_DURABILITY_SNAPSHOT_EVERY.
[[nodiscard]] DurabilityOptions DurabilityOptionsFromEnv(
    DurabilityOptions base = {});

/// What Attach() recovered from disk.
struct RecoverStats {
  std::uint64_t snapshot_records = 0;  ///< records restored from snapshot
  std::uint64_t wal_records = 0;       ///< mutations replayed from the WAL
  std::uint64_t wal_bytes_truncated = 0;  ///< torn tail dropped on replay
  bool torn = false;
};

/// Durable mirror of one shard.  Thread-safe: the RPC dispatch thread
/// drives the listener callbacks while the node's main loop drives Tick().
class NodeDurability final : public core::ShardMutationListener {
 public:
  /// `dir` is this node's own directory (created on Attach).
  NodeDurability(std::string dir, const DurabilityOptions& opts);
  ~NodeDurability() override;

  NodeDurability(const NodeDurability&) = delete;
  NodeDurability& operator=(const NodeDurability&) = delete;

  /// Recover `node` from disk (snapshot, then WAL replay; a missing or
  /// damaged snapshot falls back to the log alone) and start mirroring its
  /// mutations.  The node must be empty.
  Status Attach(core::CacheNode* node);

  /// Stop mirroring and close the log; on-disk state stays for salvage.
  void Detach();

  /// Slice-boundary maintenance: fsync the append batch and emit the
  /// wal_append trace event.  Threshold compaction runs inline on the
  /// mutating thread (the only one that may serialize the shard); Tick
  /// only compacts after a RestoreShard obsoleted the log.
  void Tick();

  /// Force a snapshot + WAL reset now.
  Status Compact();

  [[nodiscard]] const RecoverStats& recover_stats() const {
    return recovered_;
  }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] std::uint64_t appends() const;
  [[nodiscard]] std::uint64_t snapshots() const;

  // core::ShardMutationListener
  void OnInsert(core::Key k, std::string_view v) override;
  void OnErase(core::Key k) override;
  void OnEraseRange(core::Key lo, core::Key hi) override;
  void OnRestore() override;

 private:
  /// Log one mutation (fields as in WriteAheadLog::Append); compacts once
  /// the log has grown past the snapshot threshold.
  void AppendLocked(WalRecord::Op op, core::Key key, core::Key hi,
                    std::string_view value);
  Status CompactLocked();

  const std::string dir_;
  const DurabilityOptions opts_;
  core::CacheNode* node_ = nullptr;

  mutable std::mutex mutex_;
  WriteAheadLog wal_;
  RecoverStats recovered_;
  std::uint64_t appends_since_snapshot_ = 0;
  std::uint64_t batch_records_ = 0;  ///< appends since the last Tick
  std::uint64_t batch_bytes_ = 0;
  std::uint64_t snapshots_ = 0;
  bool need_compact_ = false;  ///< a RestoreShard obsoleted the log
};

/// Per-fleet durability manager.  Hands ElasticCache a factory that binds a
/// NodeDurability to every allocated node, ticks them at slice boundaries
/// (core::MaintenanceTask), and answers salvage lookups against the on-disk
/// state of retired nodes.
class FleetDurability final : public core::MaintenanceTask {
 public:
  explicit FleetDurability(DurabilityOptions opts);
  ~FleetDurability() override;

  FleetDurability(const FleetDurability&) = delete;
  FleetDurability& operator=(const FleetDurability&) = delete;

  [[nodiscard]] bool enabled() const { return !opts_.dir.empty(); }
  [[nodiscard]] const DurabilityOptions& options() const { return opts_; }
  [[nodiscard]] std::string NodeDir(core::NodeId id) const;

  /// Factory for ElasticCacheOptions::durability_factory.  The returned
  /// handle keeps the node's durable mirror alive; destroying it (node
  /// deallocation) retires the on-disk state into the salvage set.
  [[nodiscard]] std::function<std::unique_ptr<core::ShardMutationListener>(
      core::NodeId, core::CacheNode*)>
  Factory();

  /// Tick every live node's durability (fsync batch + maybe compact).
  void Tick() override;

  /// Last-resort lookup for the recovery manager: search the WAL+snapshot
  /// state of retired nodes for `k`.  NotFound when no retired copy exists.
  [[nodiscard]] StatusOr<std::string> SalvageValue(core::Key k);

  [[nodiscard]] std::uint64_t attached() const;
  [[nodiscard]] std::uint64_t retired() const;

 private:
  class Handle;

  void Retire(core::NodeId id);
  /// Replay one retired dir into a key→value map (cached per dir).
  const std::unordered_map<core::Key, std::string>* LoadRetired(
      const std::string& dir);

  const DurabilityOptions opts_;

  mutable std::mutex mutex_;
  std::unordered_map<core::NodeId, std::unique_ptr<NodeDurability>> active_;
  std::vector<std::string> retired_dirs_;
  std::unordered_map<std::string, std::unordered_map<core::Key, std::string>>
      salvage_cache_;
  std::uint64_t attached_ = 0;
};

/// mkdir -p for durability directories (0755); Ok if it already exists.
Status EnsureDir(const std::string& path);

}  // namespace ecc::durability
