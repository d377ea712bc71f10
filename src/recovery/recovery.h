// Self-healing layer: failure detection, re-replication, anti-entropy.
//
// Before this layer the cache *survived* node loss (mirror copies answer
// failover Gets; KillNode repoints the dead node's buckets) but never
// *repaired* it: detection happened only when a Put tripped over a down
// endpoint, and lost copies stayed lost, so a second crash could drop keys
// whose only remaining copy sat on the second victim.  This module closes
// the detect -> repair -> re-protect loop:
//
//   * FailureDetector — periodic liveness probes (one STATS round trip per
//     node on the charge-free background channel) driven by the virtual
//     clock.  A node that misses `suspect_threshold` consecutive probe
//     rounds is confirmed dead and crashed through the same ring-repair
//     path CrashNodeInternal uses — proactively, with zero Put-path
//     involvement.  Probes ride the fault injector like any other RPC, so
//     injected drops and delays exercise the suspicion counter; a single
//     lost heartbeat only *suspects* a node, never kills it.
//
//   * RecoveryManager — after any confirmed death (detector-driven or any
//     other crash path; it scans ElasticCache::kill_history), walks the
//     surviving copies of the dead node's keys — live primary, live mirror,
//     then the spill tier — and re-inserts them through the normal GBA Put
//     machinery, restoring the `replicas` copy invariant.  Work proceeds in
//     interruptible batches; each batch stages its reads and records
//     per-key pre-state first, so a failure mid-batch rolls back cleanly
//     (copies that existed before the batch are never erased) and the
//     batch retries on the next tick.
//
//   * Anti-entropy scrub — every `scrub_every_ticks` maintenance ticks
//     (replicated fleets only), fold a commutative per-bucket digest over
//     the primary half of each arc and its mirror image, diff divergent
//     buckets key-by-key, and repair: a missing mirror is re-written, a
//     conflicting mirror is overwritten (the primary copy is
//     authoritative).  Orphan mirrors — a mirror with no live primary —
//     are deliberately left alone: that is exactly the stale redundancy
//     GetStale serves, and recovery may still salvage from it.
//
// RecoveryManager implements core::MaintenanceTask, so either coordinator
// drives the whole loop from its quiesced time-step boundary
// (AttachMaintenance); nothing here is thread-safe on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/time.h"
#include "core/elastic_cache.h"
#include "core/maintenance.h"
#include "obs/obs.h"

namespace ecc::durability {
class FleetDurability;
}  // namespace ecc::durability

namespace ecc::recovery {

struct RecoveryOptions {
  /// Master switch; false = Tick() costs one branch.
  bool enabled = false;

  /// Virtual-time spacing of heartbeat rounds.  Elapsed virtual time since
  /// the last poll is converted to rounds (capped at `suspect_threshold` —
  /// a long quiet slice cannot over-confirm), with a floor of one round per
  /// poll so detection also progresses on idle ticks.  Zero disables the
  /// detector (recovery/scrub still run for crashes from other paths).
  Duration heartbeat_every = Duration::Millis(250);

  /// Consecutive missed probe rounds before a node is confirmed dead.
  std::size_t suspect_threshold = 3;

  /// Probes per node per round; the round fails only if all are lost.
  /// Softens probabilistic heartbeat drops without lengthening detection.
  std::size_t probe_attempts = 2;

  /// Run the anti-entropy scrub every this many ticks (0 = never).
  std::uint64_t scrub_every_ticks = 0;

  /// Keys re-replicated per two-phase batch.
  std::size_t rereplicate_batch = 32;

  /// Fleet durability manager (not owned; nullptr = none).  When set, a key
  /// whose every in-memory copy died is salvaged from the retired nodes'
  /// WAL + snapshot state before being declared unrecoverable.
  durability::FleetDurability* durable = nullptr;

  /// Metric / trace sinks (none owned).
  obs::Observability obs;
};

/// Heartbeat prober with a per-node suspicion counter.  Poll() is cheap on
/// a healthy fleet: NodeCount probes, no virtual-time charge.
class FailureDetector {
 public:
  /// Neither pointer is owned.
  FailureDetector(const RecoveryOptions& opts, core::ElasticCache* cache,
                  VirtualClock* clock);

  /// Run the probe rounds owed since the last poll.  Confirmed-dead nodes
  /// are crashed via ElasticCache::KillNode (never the last node of the
  /// fleet) and reported through kill_history like any other crash.
  /// Returns the number of nodes confirmed dead this poll.
  std::size_t Poll();

  /// Current suspicion count for `id` (0 = healthy or unknown).
  [[nodiscard]] std::size_t SuspicionOf(core::NodeId id) const;

 private:
  RecoveryOptions opts_;
  core::ElasticCache* cache_;
  VirtualClock* clock_;
  obs::TraceLog* trace_ = nullptr;
  std::map<core::NodeId, std::size_t> suspicion_;
  TimePoint last_poll_;
  bool polled_once_ = false;

  obs::Counter m_heartbeats_, m_probe_failures_;
  obs::Counter m_suspected_, m_confirmed_;
};

/// The maintenance task either coordinator drives: detector poll, then
/// re-replication of any newly crashed node's keys, then (periodically)
/// the anti-entropy scrub.
class RecoveryManager final : public core::MaintenanceTask {
 public:
  /// Neither pointer is owned; `cache` must outlive the manager.
  RecoveryManager(RecoveryOptions opts, core::ElasticCache* cache,
                  VirtualClock* clock);

  void Tick() override;

  /// Force one scrub pass now (tests / operator tooling); returns the
  /// number of divergent buckets found (0 = fleet coherent).
  std::size_t ScrubNow();

  [[nodiscard]] const RecoveryOptions& options() const { return opts_; }
  [[nodiscard]] const FailureDetector& detector() const { return detector_; }
  /// Keys awaiting re-replication (non-empty after a rolled-back batch).
  [[nodiscard]] std::size_t pending_keys() const { return pending_.size(); }
  /// Maintenance ticks received while enabled (coordinator wiring tests).
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  /// Pull keys_dropped from kill reports not yet seen into pending_,
  /// normalized to logical (primary-half) keys and deduplicated.
  void IngestNewCrashes();

  /// Re-replicate pending_ in two-phase batches.  Stops early (keeping the
  /// failed batch queued) if a batch rolls back.
  void ProcessPending();

  /// One batch: stage salvage reads + pre-state, apply, roll back on
  /// failure.  Returns false if the batch rolled back.
  bool ProcessBatch(const std::vector<core::Key>& batch);

  /// Anti-entropy pass over every ring bucket; returns divergent buckets.
  std::size_t Scrub();

  RecoveryOptions opts_;
  core::ElasticCache* cache_;
  VirtualClock* clock_;
  FailureDetector detector_;
  obs::TraceLog* trace_ = nullptr;

  /// kill_history() entries already ingested.
  std::size_t kills_seen_ = 0;
  /// Logical keys still owed a repair, in discovery order (dedup via set).
  std::deque<core::Key> pending_;
  std::set<core::Key> pending_set_;
  std::uint64_t ticks_ = 0;

  obs::Counter m_rereplicated_, m_from_spill_, m_from_wal_, m_unrecoverable_;
  obs::Counter m_batches_, m_batch_rollbacks_;
  obs::Counter m_scrub_passes_, m_scrub_repairs_, m_scrub_divergent_;
};

}  // namespace ecc::recovery
