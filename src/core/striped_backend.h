// Striped thread-safe front over the elastic cache.
//
// One mutex around the whole cache would be correct, but it would collapse
// a multi-worker coordinator back to the paper's sequential one.
// StripedBackend instead splits the locking by what an operation can touch:
//
//   * a topology lock (shared_mutex) — held *shared* by every Get/Put fast
//     path, and *exclusively* by anything that can change the ring, the
//     fleet, or cross-node state (splits, contraction, eviction, aggregate
//     inspection);
//   * per-node stripe mutexes — a Get or no-split Put locks only the stripe
//     of the key's owning node, so requests to different nodes proceed in
//     parallel.
//
// Put runs two-phase: first PutNoSplit under shared-topology + stripe (the
// common case once the fleet is warm); if the owner is full it retries
// through the full GBA insert under the exclusive topology lock, where
// splitting and allocation are safe.
//
// Lock order (outer to inner): topology -> node stripe.  (The wrapped
// cache's counters are lock-free registry cells, so there is no inner
// stats lock anymore.)  Never acquire a stripe before the topology lock.
//
// Requirements on the wrapped cache: replicas == 1 (fast paths touch only
// the owner node) — asserted at construction.  Proactive splits are fine:
// they only trigger inside the full Put, which runs exclusively.
#pragma once

#include <cstddef>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "core/backend.h"
#include "core/elastic_cache.h"

namespace ecc::core {

class StripedBackend final : public CacheBackend {
 public:
  /// `inner` is not owned and must outlive the wrapper.  `stripes` bounds
  /// the number of nodes that can be served concurrently.
  explicit StripedBackend(ElasticCache* inner, std::size_t stripes = 16);

  [[nodiscard]] std::string Name() const override {
    return inner_->Name() + "+striped";
  }

  [[nodiscard]] StatusOr<std::string> Get(Key k) override;
  [[nodiscard]] StatusOr<std::string> GetStale(Key k) override;

  /// Forwarded to the inner cache under the exclusive topology lock (the
  /// store locks itself, so concurrent stale probes may share it).
  void AttachSpillStore(cloudsim::PersistentStore* store) override {
    const std::unique_lock<std::shared_mutex> topo(topology_mutex_);
    inner_->AttachSpillStore(store);
  }

  /// Forwarded under the exclusive topology lock (wiring-time operation;
  /// the hub itself is atomics-only, so the inner cache's bumps need no
  /// further synchronization).
  void AttachInvalidationHub(fronttier::InvalidationHub* hub) override {
    const std::unique_lock<std::shared_mutex> topo(topology_mutex_);
    inner_->AttachInvalidationHub(hub);
  }

  Status Put(Key k, std::string v) override;
  std::size_t EvictKeys(const std::vector<Key>& keys) override;
  std::vector<std::pair<Key, std::string>> ExtractKeys(
      const std::vector<Key>& keys) override;
  bool TryContract() override;

  [[nodiscard]] std::size_t NodeCount() const override;
  [[nodiscard]] std::uint64_t TotalUsedBytes() const override;
  [[nodiscard]] std::uint64_t TotalCapacityBytes() const override;
  [[nodiscard]] std::size_t TotalRecords() const override;

  /// By-value snapshot from the inner cache; safe to poll concurrently
  /// with in-flight workers (see ElasticCache::stats for the consistency
  /// guarantees).
  [[nodiscard]] CacheStats stats() const override { return inner_->stats(); }

  /// Per-node loads, taken under the shared topology lock so the fleet
  /// cannot change mid-walk.
  [[nodiscard]] std::vector<obs::NodeLoad> NodeLoads() const override {
    const std::shared_lock<std::shared_mutex> topo(topology_mutex_);
    return inner_->NodeLoads();
  }

  [[nodiscard]] ElasticCache& inner() { return *inner_; }
  [[nodiscard]] std::size_t stripe_count() const { return stripes_.size(); }

 private:
  [[nodiscard]] std::mutex& StripeFor(NodeId owner) const {
    return stripes_[static_cast<std::size_t>(owner) % stripes_.size()];
  }

  ElasticCache* inner_;
  mutable std::shared_mutex topology_mutex_;
  mutable std::vector<std::mutex> stripes_;
};

}  // namespace ecc::core
