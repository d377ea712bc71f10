// ElasticCache: the paper's cooperative elastic cloud cache.
//
// Placement is a consistent-hash ring whose bucket arcs are key intervals
// (the auxiliary hash h'(k) = k mod r is order-preserving for k < r, the
// configuration the paper's sweep semantics require: a bucket's keys form a
// contiguous B+-Tree range on its node).
//
// GBA-insert (Algorithm 1): on node overflow, find the fullest bucket
// referencing the node, take the median key k^mu of that bucket's records,
// sweep-and-migrate the lower half to the least-loaded cooperating node —
// allocating a fresh cloud node only if nothing can absorb the range — and
// register a new bucket at h'(k^mu) pointing at the destination.
//
// Sweep-and-migrate (Algorithm 2): one root-to-leaf search plus a linked-
// leaf sweep on the source shard; records ship in batched MIGRATE messages
// whose transfer time (T_net per record) dominates, as in the paper's
// analysis.
//
// Contraction: merge the two least-loaded nodes when their combined data
// fits under the churn-avoidance threshold (65% of a node), then release
// the freed instance.
// Threading: ElasticCache itself is single-threaded except for the pieces
// the striped front-end (striped_backend.h) relies on — the virtual clock
// is atomic, and every counter lives in a MetricsRegistry cell whose
// increments are single atomic RMWs (obs/metrics.h), so the hot path
// (Get / PutNoSplit) and stats() polls need no lock at all.  Everything
// that can mutate topology (Put-with-split, contraction, eviction, failure
// injection) must be externally serialized; StripedBackend does so with an
// exclusive topology lock.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "cloudsim/provider.h"
#include "common/time.h"
#include "core/backend.h"
#include "core/cache_node.h"
#include "core/types.h"
#include "fault/fault.h"
#include "hashring/consistent_hash.h"
#include "net/netmodel.h"
#include "net/rpc.h"
#include "obs/obs.h"

namespace ecc::core {

struct ElasticCacheOptions {
  /// Usable cache bytes per node.  The default is scaled for laptop-size
  /// experiments (see DESIGN.md: shapes depend on capacity/keyspace ratio,
  /// not absolute bytes).
  std::uint64_t node_capacity_bytes = 4ull << 20;
  std::size_t initial_nodes = 1;
  std::size_t initial_buckets_per_node = 4;
  hashring::RingOptions ring{.range = 1ull << 48, .mix_keys = false};
  net::NetworkModelOptions net;
  /// Records per MIGRATE message.
  std::size_t migrate_batch_records = 64;
  /// CPU charge per B+-Tree operation on the virtual clock.
  Duration local_op_time = Duration::Micros(20);
  /// Contraction floor and churn-avoidance fill threshold (paper: 65%).
  std::size_t min_nodes = 1;
  double merge_fill_threshold = 0.65;
  /// Safety bound on consecutive splits for one insert.
  std::size_t max_split_iterations = 64;
  /// Copies of each record (extension; paper §VI suggests replication to
  /// survive node loss).  1 = primary only; 2 = primary + a mirror copy
  /// stored at the diametrically opposite ring position (k + r/2), so the
  /// replica rides the normal split/migration machinery and stays
  /// addressable through any topology change.  Requires primary keys to
  /// occupy the lower half of the hash line.
  std::size_t replicas = 1;
  /// Asynchronous allocation + prefetch extension (paper §VI): when a
  /// node's fill fraction reaches this threshold, split it *proactively in
  /// the background* — boot capacity via the warm pool and migrate the
  /// half-bucket off the query path, so later inserts never block on a
  /// cold boot or a synchronous sweep.  0 disables (the paper's reactive
  /// last-resort behaviour).
  double proactive_split_fill = 0.0;
  /// Retry/timeout policy for every coordinator -> node RPC.  The defaults
  /// never fire on a healthy loopback channel (the only retryable status is
  /// Unavailable, which the channel emits solely under fault injection), so
  /// the happy path is byte-identical with or without this layer.
  net::RetryPolicy rpc_retry;
  /// Transport factory: how the coordinator reaches a node it allocated.
  /// Called twice per node — once with the query clock (foreground), once
  /// with `clock == nullptr` (charge-free background migrations) — and may
  /// return any net::Channel (a TcpChannel to a TcpServer in front of the
  /// node's RpcServer puts it behind a real kernel boundary; see DESIGN.md
  /// §14).  nullptr = the default LoopbackChannel under the cache's
  /// NetworkModel.
  std::function<std::unique_ptr<net::Channel>(
      NodeId id, net::RpcServer* rpc, VirtualClock* clock)>
      channel_factory;
  /// Fault injector (not owned; nullptr = no faults).  When set, every node
  /// channel is bound to it and the two-phase migration protocol consults
  /// it between phases.
  fault::FaultInjector* fault = nullptr;
  /// Durability hook (opt-in): called once per allocated node, after the
  /// node exists but before it serves traffic.  The factory may recover the
  /// shard from disk, bind a mutation listener, and return an owning handle
  /// the cache keeps for the node's lifetime (destroyed at deallocation —
  /// durability::FleetDurability retires the on-disk state then).  nullptr
  /// (factory or returned handle) = no durability for that node.
  std::function<std::unique_ptr<ShardMutationListener>(NodeId, CacheNode*)>
      durability_factory;
  /// Observability sinks (none owned).  With obs.metrics == nullptr the
  /// cache creates a private registry, because its stats() accounting lives
  /// in registry cells; pass &obs::EccObsDisabled() to compile the whole
  /// accounting path down to no-ops (stats() then reads all-zero).  A
  /// non-null obs.trace receives split / migration / eviction / node
  /// lifecycle / RPC-retry events, and is forwarded to the fault injector.
  obs::Observability obs;
};

/// Outcome of one overflow-triggered split, for Fig. 4 accounting.
struct SplitReport {
  NodeId source = 0;
  NodeId destination = 0;
  bool allocated_new_node = false;
  std::size_t records_moved = 0;
  std::uint64_t bytes_moved = 0;
  Duration alloc_time;
  Duration move_time;

  [[nodiscard]] Duration TotalOverhead() const {
    return alloc_time + move_time;
  }
};

/// Outcome of an injected node failure.
struct KillReport {
  NodeId node = 0;
  std::size_t records_dropped = 0;      ///< records the dead node held
  std::size_t records_recoverable = 0;  ///< of those, replicated elsewhere
  std::size_t buckets_reassigned = 0;
  /// Every key the dead node held, for crash accounting: a key may vanish
  /// from the fleet only by appearing here.  (Keys that also survive
  /// elsewhere — mirrors, or source copies salvaged by a two-phase abort —
  /// legitimately overlap with the live set.)
  std::vector<Key> keys_dropped;
};

/// Point-in-time description of one node, for reporting/tests.
struct NodeSnapshot {
  NodeId id = 0;
  std::size_t records = 0;
  std::uint64_t used_bytes = 0;
  std::uint64_t capacity_bytes = 0;
  std::size_t buckets = 0;
};

class ElasticCache final : public CacheBackend {
 public:
  /// `provider` supplies/retires instances; `clock` is the shared virtual
  /// clock.  Neither is owned.
  ElasticCache(ElasticCacheOptions opts, cloudsim::CloudProvider* provider,
               VirtualClock* clock);

  [[nodiscard]] std::string Name() const override { return "gba-elastic"; }

  [[nodiscard]] StatusOr<std::string> Get(Key k) override;

  /// Degraded read for overload protection: probe only the mirror copy at
  /// MirrorKey(k).  A mirror can outlive the primary when the eviction
  /// ERASE that should have removed it was lost (its response is ignored —
  /// fault-droppable), which is exactly the stale redundancy this serves.
  /// Under `replicas == 1` there is no mirror tier; with a spill store
  /// attached (AttachSpillStore) the spilled copy is probed instead, so
  /// single-copy fleets can still answer degraded — NotFound otherwise.
  [[nodiscard]] StatusOr<std::string> GetStale(Key k) override;

  /// Bind the coordinator's spill tier so GetStale (replicas == 1) and
  /// KillNode recoverability accounting can consult it.  Not owned;
  /// nullptr detaches.
  void AttachSpillStore(cloudsim::PersistentStore* store) override {
    spill_ = store;
  }

  /// Bind the coordinator front tier's invalidation hub.  Value-level
  /// mutations (Put, erase, eviction, mirror write) bump the key's version;
  /// topology-level changes (two-phase migration commit, contraction,
  /// node crash — and hence recovery re-replication, which rides Put /
  /// WriteMirror / ErasePhysicalRecord) bump the global epoch.  Not owned;
  /// nullptr detaches.
  void AttachInvalidationHub(fronttier::InvalidationHub* hub) override {
    hub_ = hub;
  }

  Status Put(Key k, std::string v) override;

  /// Single-attempt insert that never mutates topology: stores (k, v) on
  /// k's current owner if it fits, and returns CapacityExceeded when a
  /// split would be required (the caller then retries through Put under an
  /// exclusive lock).  Primary copy only — the striped front-end requires
  /// `replicas == 1`.  Duplicate puts are idempotent successes.
  Status PutNoSplit(Key k, const std::string& v);
  std::size_t EvictKeys(const std::vector<Key>& keys) override;
  std::vector<std::pair<Key, std::string>> ExtractKeys(
      const std::vector<Key>& keys) override;
  bool TryContract() override;

  [[nodiscard]] std::size_t NodeCount() const override {
    return nodes_.size();
  }
  [[nodiscard]] std::uint64_t TotalUsedBytes() const override;
  [[nodiscard]] std::uint64_t TotalCapacityBytes() const override;
  [[nodiscard]] std::size_t TotalRecords() const override;
  /// Consistent by-value snapshot assembled from the metrics registry;
  /// outcome counters are read before their attempt counters, so derived
  /// invariants (hits + misses <= gets, put_failures <= puts) hold even
  /// while front-end workers are mid-flight.
  [[nodiscard]] CacheStats stats() const override;
  [[nodiscard]] std::vector<obs::NodeLoad> NodeLoads() const override;

  /// The registry the cache accounts into (the wired one, or the internal
  /// private registry when none was supplied).
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return *metrics_; }
  [[nodiscard]] obs::TraceLog* trace() const { return trace_; }

  // --- Introspection (tests, benches) -------------------------------------

  /// Abrupt node loss (failure injection): the node's shard vanishes
  /// without migration; its buckets repoint to each arc's successor owner;
  /// the backing instance is terminated.  With replication enabled the
  /// lost records' mirror copies survive on other nodes and subsequent
  /// Gets fail over to them.
  StatusOr<KillReport> KillNode(NodeId id);

  /// Hash-line position of k's mirror copy: (k + r/2) mod r.
  [[nodiscard]] Key MirrorKey(Key k) const {
    return (k + opts_.ring.range / 2) % opts_.ring.range;
  }

  /// Node currently owning k's mirror copy.
  [[nodiscard]] StatusOr<NodeId> ReplicaOwnerOf(Key k) const;

  [[nodiscard]] const hashring::ConsistentHashRing& ring() const {
    return ring_;
  }
  [[nodiscard]] const ElasticCacheOptions& options() const { return opts_; }
  [[nodiscard]] StatusOr<NodeId> OwnerOf(Key k) const;
  [[nodiscard]] std::vector<NodeSnapshot> Snapshot() const;
  [[nodiscard]] const CacheNode* GetNode(NodeId id) const;
  [[nodiscard]] const std::vector<SplitReport>& split_history() const {
    return split_history_;
  }

  /// Every abrupt node loss this cache absorbed (KillNode plus crashes
  /// injected mid-migration), in order.  Crash accounting for tests: the
  /// union of live keys and kill_history keys_dropped never shrinks.
  [[nodiscard]] const std::vector<KillReport>& kill_history() const {
    return kill_history_;
  }

  /// Key interval(s) covered by a ring arc, as inclusive key ranges
  /// ([lo, hi] pairs; two when the arc wraps the ring origin).  Exposed for
  /// tests of sweep coverage.
  [[nodiscard]] std::vector<std::pair<Key, Key>> ArcKeyRanges(
      const hashring::Arc& arc) const;

  // --- Recovery hooks (src/recovery/) -------------------------------------

  /// Live node ids, ring order not guaranteed.
  [[nodiscard]] std::vector<NodeId> NodeIds() const;

  /// One liveness probe: a single STATS round trip on `id`'s background
  /// channel (no virtual-time charge, single attempt — the failure
  /// detector's suspicion counter is the retry policy).  False when the
  /// node is unknown or the probe was lost/refused.
  [[nodiscard]] bool ProbeNode(NodeId id);

  /// Remove the physical record at hash-line position `k` wherever it
  /// routes, with no eviction accounting — a repair primitive, not an
  /// eviction (scrub conflict repair, recovery rollback).
  void ErasePhysicalRecord(Key k);

  /// Overwrite k's mirror copy with `v` (erase-then-store: plain puts are
  /// idempotent and would never replace a divergent value).  Primary key
  /// expected (lower half of the hash line); requires replicas >= 2.
  void WriteMirror(Key k, const std::string& v);

  /// The attached spill tier, if any (recovery salvages from it when no
  /// live copy survives a crash).
  [[nodiscard]] cloudsim::PersistentStore* spill_store() const {
    return spill_;
  }

 private:
  struct NodeEntry {
    std::unique_ptr<CacheNode> node;
    std::unique_ptr<net::Channel> channel;
    /// Same endpoint without clock charging: background migrations ride
    /// this one (the work happens concurrently with query service).
    std::unique_ptr<net::Channel> bg_channel;
    /// Durable-mirror handle from durability_factory (maybe null).  Last
    /// member so it is destroyed first, while `node` is still alive.
    std::unique_ptr<ShardMutationListener> durability;
  };

  /// Allocate a cloud instance + cache node (no buckets yet).  Advances the
  /// clock by the boot wait.
  StatusOr<NodeId> AllocateNode();

  /// The GBA insert loop (Algorithm 1) for one physical record.
  Status PutInternal(Key k, const std::string& v);

  /// Store the mirror copy of (k, v); drops (with accounting) when the
  /// mirror currently lands on k's own primary node.
  void StoreReplica(Key k, const std::string& v);

  /// Stats (records/bytes) of `node`'s records inside `arc`.
  [[nodiscard]] RangeStats ArcStats(const CacheNode& node,
                                    const hashring::Arc& arc) const;

  /// Key at `rank` in ring order within `arc` on `node`.
  [[nodiscard]] Key KeyAtRankInArc(const CacheNode& node,
                                   const hashring::Arc& arc,
                                   std::size_t rank) const;

  /// Split the fullest bucket of `node_id` (Algorithm 1 lines 8-15).
  Status SplitNode(NodeId node_id);

  /// Fire a background split when `node_id` crosses the proactive fill
  /// threshold (no-op unless the extension is enabled and spare capacity
  /// is ready).
  void MaybeProactiveSplit(NodeId node_id);

  /// One coordinator -> node RPC (any transport) with timeout/retry per
  /// opts_.rpc_retry; rides the background channel during proactive splits
  /// and folds retry counters into stats().
  StatusOr<net::Message> CallNode(NodeEntry& entry,
                                  const net::Message& request);

  /// The crash-safe sweep-and-migrate protocol: copy `ranges` from `src` to
  /// `dest` (source copies retained), verify the destination holds them,
  /// run `commit` (the caller's atomic ring mutation), then delete at the
  /// source.  Consults the fault injector between phases; on a fault it
  /// rolls back (pre-commit: un-copy at dest, `uncommit` unused) or forward
  /// (post-commit: finish the delete / `uncommit` if the destination died),
  /// so a crash at ANY step conserves the key set.  Either node may be gone
  /// on return — callers must re-check nodes_.  `moved` gets the totals
  /// actually shipped.
  Status TwoPhaseMigrate(NodeId src_id, NodeId dest_id,
                         const std::vector<std::pair<Key, Key>>& ranges,
                         const std::function<Status()>& commit,
                         const std::function<void()>& uncommit,
                         RangeStats* moved);

  /// Injector hook between migration phases (kNone when no injector); also
  /// traces the phase transition with the migration id and endpoints.
  [[nodiscard]] fault::MigrationFault FireStep(std::size_t migration,
                                               fault::MigrationStep step,
                                               NodeId src, NodeId dest);

  /// Erase `keys` on `entry`'s node, RPC first, falling back to direct
  /// shard access if the wire path is faulted — recovery must never itself
  /// be lost to the fault it is recovering from.
  void EraseKeysReliable(NodeEntry& entry, const std::vector<Key>& keys);

  /// Abrupt node loss, shared by KillNode and injected migration crashes:
  /// record every dropped key, repoint the dead node's buckets at arc
  /// successors, fail the backing instance, append to kill_history_.
  KillReport CrashNodeInternal(NodeId id);

  [[nodiscard]] NodeEntry& Entry(NodeId id) { return nodes_.at(id); }

  /// Null-safe hub notifications (defined in the .cc: the header only sees
  /// the InvalidationHub forward declaration).
  void FrontBumpKey(Key k);
  void FrontBumpAll();

  ElasticCacheOptions opts_;
  cloudsim::CloudProvider* provider_;
  VirtualClock* clock_;
  net::NetworkModel net_model_;
  hashring::ConsistentHashRing ring_;
  std::map<NodeId, NodeEntry> nodes_;
  NodeId next_node_id_ = 0;
  /// Registry handles for every CacheStats field (Durations as _us
  /// counters).  Registration order matters: an attempt counter (gets,
  /// puts) registers before its outcome counters so the reverse-order
  /// snapshot preserves `outcomes <= attempts`; the hot paths write in
  /// matching order (attempt first).
  struct Handles {
    obs::Counter gets, hits, misses, failover_reads, degraded_gets;
    obs::Counter puts, put_failures, degraded_puts;
    obs::Counter evictions, splits, proactive_splits;
    obs::Counter node_allocations, node_removals, node_failures;
    obs::Counter records_migrated, bytes_migrated;
    obs::Counter replica_writes, replica_drops;
    obs::Counter rpc_retries, rpc_failures;
    obs::Counter migration_aborts, migration_recoveries;
    obs::Counter total_split_overhead_us, total_alloc_time_us;
    obs::Counter total_migration_time_us;
    obs::Gauge last_split_overhead_us;
    obs::HistogramHandle split_overhead_s;
    obs::Counter node_rpc_ops;
  };
  Handles m_;
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::TraceLog* trace_ = nullptr;
  /// Coordinator's spill tier, when attached (not owned).
  cloudsim::PersistentStore* spill_ = nullptr;
  /// Front-tier invalidation fan-out, when attached (not owned).
  fronttier::InvalidationHub* hub_ = nullptr;
  /// Plain mirror of total_alloc_time, kept because SplitReport needs the
  /// per-split allocation delta even when the registry is the disabled one
  /// (all cells null, reads zero).  Only touched on the exclusively locked
  /// topology path.
  Duration alloc_time_accum_;
  std::vector<SplitReport> split_history_;
  std::vector<KillReport> kill_history_;
  /// True while a proactive split runs: transfers use bg channels and
  /// charge nothing to the virtual clock.
  bool background_mode_ = false;
  /// Per-node high-water mark of used_bytes at the last proactive attempt;
  /// a node must grow ~5% of capacity past it before the next attempt
  /// (prevents re-split thrash on nodes hovering at the threshold).
  std::map<NodeId, std::uint64_t> proactive_marker_;
};

}  // namespace ecc::core
