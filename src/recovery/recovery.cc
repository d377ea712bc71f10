#include "recovery/recovery.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

#include "cloudsim/persistent_store.h"
#include "durability/durability.h"
#include "recovery/invariant_checker.h"

namespace ecc::recovery {

// --- FailureDetector -------------------------------------------------------

FailureDetector::FailureDetector(const RecoveryOptions& opts,
                                 core::ElasticCache* cache,
                                 VirtualClock* clock)
    : opts_(opts), cache_(cache), clock_(clock), trace_(opts.obs.trace) {
  assert(cache != nullptr && clock != nullptr);
  m_heartbeats_ = opts_.obs.MakeCounter("recovery.heartbeats");
  m_probe_failures_ = opts_.obs.MakeCounter("recovery.probe_failures");
  m_suspected_ = opts_.obs.MakeCounter("recovery.nodes_suspected");
  m_confirmed_ = opts_.obs.MakeCounter("recovery.nodes_confirmed_dead");
}

std::size_t FailureDetector::Poll() {
  if (opts_.heartbeat_every <= Duration::Zero()) return 0;
  const std::size_t threshold = std::max<std::size_t>(1, opts_.suspect_threshold);
  const TimePoint now = clock_->now();

  // Rounds owed since the last poll, by virtual time.  Capped at the
  // suspicion threshold: however long the quiet slice was, confirming a
  // death still takes `threshold` *distinct* failed probes this poll.
  // Floor of one so idle ticks (no virtual time passing) still probe.
  std::size_t rounds = 1;
  if (polled_once_) {
    const std::int64_t owed =
        (now - last_poll_).micros() / opts_.heartbeat_every.micros();
    rounds = static_cast<std::size_t>(
        std::clamp<std::int64_t>(owed, 1, static_cast<std::int64_t>(threshold)));
  }
  last_poll_ = now;
  polled_once_ = true;

  const std::size_t attempts = std::max<std::size_t>(1, opts_.probe_attempts);
  std::size_t confirmed = 0;
  std::vector<core::NodeId> ids;
  for (std::size_t round = 0; round < rounds; ++round) {
    ids = cache_->NodeIds();
    for (const core::NodeId id : ids) {
      bool alive = false;
      for (std::size_t a = 0; a < attempts && !alive; ++a) {
        m_heartbeats_.Inc();
        alive = cache_->ProbeNode(id);
        if (!alive) m_probe_failures_.Inc();
      }
      if (alive) {
        suspicion_.erase(id);
        continue;
      }
      std::size_t& s = suspicion_[id];
      if (s < threshold) ++s;
      if (s < threshold) {
        m_suspected_.Inc();
        obs::Emit(trace_, obs::NodeSuspectedEvent(now, id, s));
        continue;
      }
      // Confirmed dead — unless it is the last node standing, which the
      // ring cannot repair around (keep it suspected; a later Put will
      // surface the failure to the caller instead).
      if (cache_->NodeCount() <= 1) continue;
      m_confirmed_.Inc();
      obs::Emit(trace_, obs::NodeConfirmedDeadEvent(now, id, s));
      suspicion_.erase(id);
      auto report = cache_->KillNode(id);
      (void)report;  // keys land in kill_history for the RecoveryManager
      ++confirmed;
    }
  }
  // Forget suspicions of nodes that left the fleet through other paths.
  for (auto it = suspicion_.begin(); it != suspicion_.end();) {
    if (std::find(ids.begin(), ids.end(), it->first) == ids.end()) {
      it = suspicion_.erase(it);
    } else {
      ++it;
    }
  }
  return confirmed;
}

std::size_t FailureDetector::SuspicionOf(core::NodeId id) const {
  const auto it = suspicion_.find(id);
  return it == suspicion_.end() ? 0 : it->second;
}

// --- RecoveryManager -------------------------------------------------------

RecoveryManager::RecoveryManager(RecoveryOptions opts,
                                 core::ElasticCache* cache,
                                 VirtualClock* clock)
    : opts_(std::move(opts)),
      cache_(cache),
      clock_(clock),
      detector_(opts_, cache, clock),
      trace_(opts_.obs.trace) {
  assert(cache != nullptr && clock != nullptr);
  m_rereplicated_ = opts_.obs.MakeCounter("recovery.keys_rereplicated");
  m_from_spill_ = opts_.obs.MakeCounter("recovery.keys_from_spill");
  m_from_wal_ = opts_.obs.MakeCounter("recovery.keys_from_wal");
  m_unrecoverable_ = opts_.obs.MakeCounter("recovery.keys_unrecoverable");
  m_batches_ = opts_.obs.MakeCounter("recovery.batches");
  m_batch_rollbacks_ = opts_.obs.MakeCounter("recovery.batch_rollbacks");
  m_scrub_passes_ = opts_.obs.MakeCounter("recovery.scrub_passes");
  m_scrub_repairs_ = opts_.obs.MakeCounter("recovery.scrub_repairs");
  m_scrub_divergent_ =
      opts_.obs.MakeCounter("recovery.scrub_divergent_buckets");
}

void RecoveryManager::Tick() {
  if (!opts_.enabled) return;
  ++ticks_;
  detector_.Poll();
  IngestNewCrashes();
  ProcessPending();
  if (opts_.scrub_every_ticks > 0 && ticks_ % opts_.scrub_every_ticks == 0) {
    Scrub();
  }
}

std::size_t RecoveryManager::ScrubNow() { return Scrub(); }

void RecoveryManager::IngestNewCrashes() {
  const auto& kills = cache_->kill_history();
  const core::ElasticCacheOptions& o = cache_->options();
  const std::uint64_t half = o.ring.range / 2;
  for (; kills_seen_ < kills.size(); ++kills_seen_) {
    for (const core::Key k : kills[kills_seen_].keys_dropped) {
      // Normalize the dead node's physical keys to logical primaries: a
      // mirror-half position maps back to the primary it shadows.
      const core::Key logical =
          (o.replicas >= 2 && k >= half) ? cache_->MirrorKey(k) : k;
      if (pending_set_.insert(logical).second) pending_.push_back(logical);
    }
  }
}

void RecoveryManager::ProcessPending() {
  const std::size_t batch_size = std::max<std::size_t>(1, opts_.rereplicate_batch);
  while (!pending_.empty()) {
    const std::size_t n = std::min(batch_size, pending_.size());
    const std::vector<core::Key> batch(pending_.begin(),
                                       pending_.begin() + n);
    if (!ProcessBatch(batch)) return;  // rolled back; retry next tick
    for (std::size_t i = 0; i < n; ++i) {
      pending_set_.erase(pending_.front());
      pending_.pop_front();
    }
  }
}

bool RecoveryManager::ProcessBatch(const std::vector<core::Key>& batch) {
  const bool mirrored = cache_->options().replicas >= 2;

  // Phase 1 — stage: salvage a value for every key still missing a copy and
  // record its pre-batch state, so a failed apply knows exactly which
  // copies the batch itself created.
  struct Plan {
    core::Key key = 0;
    std::string value;
    bool from_spill = false;
    bool from_wal = false;
    bool pre_primary = false;
    bool pre_mirror = false;
  };
  std::vector<Plan> plans;
  std::uint64_t unrecoverable = 0;
  for (const core::Key p : batch) {
    Plan plan;
    plan.key = p;
    const std::string* primary = nullptr;
    if (auto owner = cache_->OwnerOf(p); owner.ok()) {
      if (const core::CacheNode* n = cache_->GetNode(*owner); n != nullptr) {
        primary = n->Find(p);
      }
    }
    plan.pre_primary = primary != nullptr;
    const std::string* mirror = nullptr;
    if (mirrored) {
      if (auto owner = cache_->ReplicaOwnerOf(p); owner.ok()) {
        if (const core::CacheNode* n = cache_->GetNode(*owner);
            n != nullptr) {
          mirror = n->Find(cache_->MirrorKey(p));
        }
      }
    }
    plan.pre_mirror = mirror != nullptr;
    if (plan.pre_primary && (!mirrored || plan.pre_mirror)) continue;  // whole

    if (primary != nullptr) {
      plan.value = *primary;
    } else if (mirror != nullptr) {
      plan.value = *mirror;
    } else {
      // Every in-memory copy is gone: fall through the persistent tiers —
      // the spill store, then the retired nodes' WAL + snapshot state.
      bool salvaged = false;
      if (cache_->spill_store() != nullptr) {
        auto spilled = cache_->spill_store()->Get(p);
        if (spilled.ok()) {
          plan.value = std::move(*spilled);
          plan.from_spill = true;
          salvaged = true;
        }
      }
      if (!salvaged && opts_.durable != nullptr) {
        auto durable = opts_.durable->SalvageValue(p);
        if (!durable.ok() && mirrored) {
          durable = opts_.durable->SalvageValue(cache_->MirrorKey(p));
        }
        if (durable.ok()) {
          plan.value = std::move(*durable);
          plan.from_wal = true;
          salvaged = true;
        }
      }
      if (!salvaged) {
        ++unrecoverable;
        continue;
      }
    }
    plans.push_back(std::move(plan));
  }
  m_unrecoverable_.Inc(unrecoverable);

  // Phase 2 — apply through the normal GBA machinery.  A missing primary
  // goes through Put (which also re-mirrors); a present primary with a
  // missing or divergent-by-absence mirror needs WriteMirror, because
  // plain puts are idempotent and would no-op on the existing primary.
  std::size_t applied = 0;
  std::uint64_t recovered = 0;
  std::uint64_t from_spill = 0;
  std::uint64_t from_wal = 0;
  bool failed = false;
  for (const Plan& plan : plans) {
    if (!plan.pre_primary) {
      if (const Status s = cache_->Put(plan.key, plan.value); !s.ok()) {
        failed = true;
        ++applied;  // the failed Put may have partially landed; roll it too
        break;
      }
    } else {
      cache_->WriteMirror(plan.key, plan.value);
    }
    ++applied;
    ++recovered;
    if (plan.from_spill) ++from_spill;
    if (plan.from_wal) ++from_wal;
  }

  if (failed) {
    // Roll back: erase only the copies this batch created — anything
    // present before the batch is real data and must survive the abort.
    for (std::size_t i = 0; i < applied && i < plans.size(); ++i) {
      const Plan& plan = plans[i];
      if (!plan.pre_primary) cache_->ErasePhysicalRecord(plan.key);
      if (mirrored && !plan.pre_mirror) {
        cache_->ErasePhysicalRecord(cache_->MirrorKey(plan.key));
      }
    }
    m_batch_rollbacks_.Inc();
    return false;
  }

  if (recovered > 0 || unrecoverable > 0) {
    m_batches_.Inc();
    m_rereplicated_.Inc(recovered);
    m_from_spill_.Inc(from_spill);
    m_from_wal_.Inc(from_wal);
    obs::Emit(trace_, obs::RereplicateEvent(clock_->now(), recovered,
                                            from_spill, unrecoverable));
  }
  return true;
}

std::size_t RecoveryManager::Scrub() {
  const core::ElasticCacheOptions& o = cache_->options();
  if (o.replicas < 2) return 0;  // nothing to cross-check
  const std::uint64_t half = o.ring.range / 2;

  struct Repair {
    core::Key key = 0;
    std::string value;
    obs::ScrubRepairKind kind = obs::ScrubRepairKind::kMissingMirror;
  };
  std::vector<Repair> repairs;
  std::size_t divergent = 0;

  // Read-only pass first: repairs can split nodes and move buckets, so no
  // ring mutation may happen while we walk buckets_ by index.
  const auto& ring = cache_->ring();
  const std::vector<core::NodeId> ids = cache_->NodeIds();
  for (std::size_t idx = 0; idx < ring.bucket_count(); ++idx) {
    // The bucket's key interval(s), clipped to the primary half of the
    // line; the mirror image of [lo, hi] is [lo + r/2, hi + r/2].
    std::vector<std::pair<core::Key, core::Key>> ranges;
    for (const auto& [lo, hi] : cache_->ArcKeyRanges(ring.ArcOf(idx))) {
      if (lo >= half) continue;
      ranges.emplace_back(lo, std::min(hi, half - 1));
    }
    if (ranges.empty()) continue;

    // Cheap pass: commutative digests of the primary set and the
    // (key-normalized) mirror set, across every node — identical sets
    // fold to identical sums regardless of placement.
    std::uint64_t digest_primary = 0;
    std::uint64_t digest_mirror = 0;
    for (const core::NodeId id : ids) {
      const core::CacheNode* n = cache_->GetNode(id);
      if (n == nullptr) continue;
      for (const auto& [lo, hi] : ranges) {
        for (const auto& [k, v] : n->SweepRange(lo, hi)) {
          digest_primary += DigestTerm(k, v);
        }
        for (const auto& [k, v] : n->SweepRange(lo + half, hi + half)) {
          digest_mirror += DigestTerm(k - half, v);
        }
      }
    }
    if (digest_primary == digest_mirror) continue;

    // Divergent bucket: key-level diff, the routed primary copy wins.
    std::map<core::Key, std::string> primaries;
    std::map<core::Key, std::string> mirrors;
    for (const core::NodeId id : ids) {
      const core::CacheNode* n = cache_->GetNode(id);
      if (n == nullptr) continue;
      for (const auto& [lo, hi] : ranges) {
        for (auto& [k, v] : n->SweepRange(lo, hi)) {
          auto owner = cache_->OwnerOf(k);
          if (!primaries.count(k) || (owner.ok() && *owner == id)) {
            primaries[k] = std::move(v);
          }
        }
        for (auto& [k, v] : n->SweepRange(lo + half, hi + half)) {
          const core::Key logical = k - half;
          auto owner = cache_->ReplicaOwnerOf(logical);
          if (!mirrors.count(logical) || (owner.ok() && *owner == id)) {
            mirrors[logical] = std::move(v);
          }
        }
      }
    }
    std::size_t bucket_repairs = 0;
    for (const auto& [k, v] : primaries) {
      const auto it = mirrors.find(k);
      if (it == mirrors.end()) {
        repairs.push_back({k, v, obs::ScrubRepairKind::kMissingMirror});
        ++bucket_repairs;
      } else if (it->second != v) {
        repairs.push_back({k, v, obs::ScrubRepairKind::kConflict});
        ++bucket_repairs;
      }
    }
    // Mirrors with no live primary are left alone on purpose: that stale
    // redundancy is what GetStale serves and what recovery salvages from.
    if (bucket_repairs > 0) ++divergent;
  }

  // Apply pass: now the ring may mutate freely.
  for (const Repair& r : repairs) {
    cache_->WriteMirror(r.key, r.value);
    m_scrub_repairs_.Inc();
    obs::Emit(trace_, obs::ScrubRepairEvent(clock_->now(), r.key, r.kind));
  }
  m_scrub_passes_.Inc();
  m_scrub_divergent_.Inc(divergent);
  return divergent;
}

}  // namespace ecc::recovery
