// The coordinator front tier: a tiny bounded cache of the hottest keys,
// sitting in front of the elastic cache fleet so that zipf/hotspot traffic
// stops saturating the one node that owns the hot shard (the client/proxy
// hot-key tier of CoT, "Decentralized Elastic Caches for Cloud
// Environments", adapted to this simulator's coordinator front-end).
//
// Three pieces:
//
//   * SpaceSavingTracker (heavy_hitters.h) decides *admission*: only keys
//     with a provable hit count make it in, so the cache stays tiny and a
//     uniform tail cannot thrash it.
//
//   * InvalidationHub decides *freshness*.  It is the one structure shared
//     between the coordinator threads and the mutation paths: a fixed array
//     of per-key version slots (hashed) plus a global topology epoch, all
//     atomics — no locks, so the hot path stays wait-free and TSan-clean.
//     Value-level changes (Put, erase, eviction, mirror write) bump the
//     key's slot; topology-level changes (migration commit, contraction,
//     node crash/recovery) bump the epoch, invalidating every front entry
//     at once.  Hash collisions only ever *over*-invalidate: safe.
//
//   * FrontCache holds the entries.  One instance per coordinator worker
//     — strictly single-owner, never shared, which is the whole
//     thread-safety story.
//
// Staleness bound — by construction, not by TTL.  The lookup protocol is:
//
//     Stamp pre = cache.PreReadStamp(k);     // BEFORE the backend read
//     value     = backend.Get(k);            // authoritative read
//     cache.Offer(k, value, pre);            // admit only if stamp holds
//
// Offer re-checks the hub at admission: if any writer bumped the key (or
// the epoch) between the stamp and the admission, the value is discarded.
// A resident entry is revalidated against the hub on every Find.  Hence a
// front entry can never serve a value older than the latest bump of its
// key — the staleness bound is "no staleness past the most recent
// invalidation point", verified by tests/fronttier_staleness_test.cc.
//
// Admission happens on the *hit* path only (after a successful backend
// Get), never on the miss path: the miss path's own Put bumps the version,
// so no pre-read stamp taken around it can vouch for the value.  A hot key
// therefore pays one extra backend hit before going front-resident —
// negligible for keys hot enough to qualify.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/time.h"
#include "fronttier/heavy_hitters.h"
#include "obs/obs.h"

namespace ecc::fronttier {

/// A point-in-time freshness witness: global topology epoch + per-key
/// version.  Both are monotonic, so a stale stamp can never re-match.
struct Stamp {
  std::uint64_t epoch = 0;
  std::uint64_t version = 0;
  [[nodiscard]] bool operator==(const Stamp&) const = default;
};

/// Lock-free invalidation fan-out from the mutation paths to every front
/// cache.  Shared by all coordinator threads; writers are the backend's
/// mutation paths (under their own locks), readers are the front caches.
class InvalidationHub {
 public:
  struct Stats {
    std::uint64_t key_bumps = 0;
    std::uint64_t epoch_bumps = 0;
  };

  /// `slots` fixes the per-key version table size; keys hash onto slots,
  /// and a collision merely invalidates an extra entry (never misses one).
  explicit InvalidationHub(std::size_t slots = 1024);

  InvalidationHub(const InvalidationHub&) = delete;
  InvalidationHub& operator=(const InvalidationHub&) = delete;

  /// The key's current freshness witness (acquire; pairs with bump release).
  [[nodiscard]] Stamp Current(Key k) const;

  /// A value-level change to `k`: Put, erase, eviction, mirror write.
  void BumpKey(Key k);
  /// A topology-level change (migration commit, contraction, crash,
  /// recovery re-replication): invalidates every front entry at once.
  void BumpAll();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  [[nodiscard]] std::size_t SlotOf(Key k) const;

  std::vector<std::atomic<std::uint64_t>> slots_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> key_bumps_{0};
  std::atomic<std::uint64_t> epoch_bumps_{0};
};

/// Why a front entry was dropped (trace `front_invalidate` reason, and the
/// `a` field of obs::FrontInvalidateEvent).
enum class FrontInvalidateCode : int {
  kVersion = 0,   ///< the key's version slot moved (value-level change)
  kEpoch = 1,     ///< the topology epoch moved (migration/contraction/crash)
  kCapacity = 2,  ///< displaced by a hotter key under the capacity bound
  kWindow = 3,    ///< no longer hot after window decay
};

struct FrontTierOptions {
  /// Master switch: default off so every existing configuration is
  /// byte-for-byte unchanged.
  bool enabled = false;
  /// Space-saving counters (the tracker's k).  O(k) memory total.
  std::size_t tracker_counters = 64;
  /// Max resident entries per front cache.
  std::size_t capacity = 32;
  /// Guaranteed (estimate - error) hits a key needs before admission.
  std::uint64_t admit_min_count = 4;
  /// Halve tracker counters at every window boundary so a stale hot set
  /// ages out.
  bool decay_per_window = true;
  /// Virtual-clock cost of a front hit (vs. the full backend probe,
  /// core::kLookupCost on a private clock): the front tier answers from
  /// coordinator-local memory.
  Duration hit_cost = Duration::Micros(2);
  /// Share an external hub (several coordinators over one backend).
  /// nullptr = the owning coordinator creates a private hub, shared by its
  /// workers, and attaches it to its backend.
  InvalidationHub* hub = nullptr;
};

/// Aggregate counters, mirrored into obs metrics (`fronttier.*`).
struct FrontCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        ///< lookups that found no usable entry
  std::uint64_t admissions = 0;
  std::uint64_t rejections = 0;    ///< Offer declined (cold key/stale stamp)
  std::uint64_t invalidations = 0; ///< resident entries dropped stale on Find
  std::uint64_t evictions = 0;     ///< capacity displacement + window decay
};

/// One per coordinator thread; single-owner by contract (only the hub it
/// reads is shared, and the hub is atomics-only).
class FrontCache {
 public:
  struct Lookup {
    const std::string* value = nullptr;  ///< non-null on a front hit
    bool invalidated = false;  ///< a resident entry was dropped stale
    FrontInvalidateCode reason = FrontInvalidateCode::kVersion;
  };

  /// `hub` must be non-null and outlive the cache.
  FrontCache(const FrontTierOptions& opts, InvalidationHub* hub,
             const obs::Observability& obs);

  FrontCache(const FrontCache&) = delete;
  FrontCache& operator=(const FrontCache&) = delete;

  /// Record the access in the tracker and consult the front entries.  A
  /// resident entry whose stamp no longer matches the hub is dropped here
  /// (lazy invalidation) and reported as `invalidated`.
  [[nodiscard]] Lookup Find(Key k, TimePoint now);

  /// The freshness witness to capture BEFORE reading the backend.
  [[nodiscard]] Stamp PreReadStamp(Key k) const { return hub_->Current(k); }

  /// Admit `value` for `k` if (a) the tracker guarantees at least
  /// admit_min_count hits, and (b) the hub still matches `pre_read` — i.e.
  /// nothing invalidated the key between the stamp and now.  When full, a
  /// hotter candidate displaces the coldest resident.  Returns true on
  /// admission.
  bool Offer(Key k, const std::string& value, Stamp pre_read, TimePoint now);

  /// Window boundary: decay the tracker and drop residents that are no
  /// longer provably hot.
  void OnWindowBoundary(TimePoint now);

  [[nodiscard]] const FrontCacheStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool Contains(Key k) const { return entries_.contains(k); }
  [[nodiscard]] const SpaceSavingTracker& tracker() const { return tracker_; }
  [[nodiscard]] InvalidationHub* hub() const { return hub_; }
  [[nodiscard]] const FrontTierOptions& options() const { return opts_; }

 private:
  struct Entry {
    std::string value;
    Stamp stamp;
  };

  void DropEntry(Key k, FrontInvalidateCode reason, TimePoint now);

  FrontTierOptions opts_;
  InvalidationHub* hub_;
  SpaceSavingTracker tracker_;
  std::unordered_map<Key, Entry> entries_;
  obs::TraceLog* trace_ = nullptr;

  FrontCacheStats stats_;
  obs::Counter m_lookups_;
  obs::Counter m_hits_;
  obs::Counter m_misses_;
  obs::Counter m_admissions_;
  obs::Counter m_rejections_;
  obs::Counter m_invalidations_;
  obs::Counter m_evictions_;
};

}  // namespace ecc::fronttier
