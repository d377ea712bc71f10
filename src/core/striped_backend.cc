#include "core/striped_backend.h"

#include <cassert>
#include <utility>

namespace ecc::core {

StripedBackend::StripedBackend(ElasticCache* inner, std::size_t stripes)
    : inner_(inner), stripes_(stripes == 0 ? 1 : stripes) {
  assert(inner_ != nullptr);
  assert(inner_->options().replicas == 1 &&
         "striped fast paths touch only the owner node; replicas must be 1");
}

StatusOr<std::string> StripedBackend::Get(Key k) {
  std::shared_lock<std::shared_mutex> topo(topology_mutex_);
  auto owner = inner_->OwnerOf(k);
  if (!owner.ok()) return owner.status();
  // Ownership cannot change while the topology lock is held shared, so the
  // stripe we pick stays the right one for the duration of the call.
  const std::lock_guard<std::mutex> stripe(StripeFor(*owner));
  return inner_->Get(k);
}

StatusOr<std::string> StripedBackend::GetStale(Key k) {
  // The striped fast paths require replicas == 1 (asserted at
  // construction), so the inner cache has no mirror tier and answers
  // NotFound without touching any node; the lock discipline still mirrors
  // Get in case that invariant is ever relaxed.
  std::shared_lock<std::shared_mutex> topo(topology_mutex_);
  auto owner = inner_->OwnerOf(k);
  if (!owner.ok()) return owner.status();
  const std::lock_guard<std::mutex> stripe(StripeFor(*owner));
  return inner_->GetStale(k);
}

Status StripedBackend::Put(Key k, std::string v) {
  {
    std::shared_lock<std::shared_mutex> topo(topology_mutex_);
    auto owner = inner_->OwnerOf(k);
    if (!owner.ok()) return owner.status();
    const std::lock_guard<std::mutex> stripe(StripeFor(*owner));
    const Status fast = inner_->PutNoSplit(k, v);
    if (fast.code() != StatusCode::kCapacityExceeded &&
        fast.code() != StatusCode::kUnavailable) {
      return fast;
    }
  }
  // Owner full (split required) or unreachable (ring repair required):
  // retry through the GBA insert, which may split buckets, allocate nodes,
  // crash dead nodes out of the ring, and rewrite it — exclusive access
  // required.
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->Put(k, std::move(v));
}

std::size_t StripedBackend::EvictKeys(const std::vector<Key>& keys) {
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->EvictKeys(keys);
}

std::vector<std::pair<Key, std::string>> StripedBackend::ExtractKeys(
    const std::vector<Key>& keys) {
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->ExtractKeys(keys);
}

bool StripedBackend::TryContract() {
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->TryContract();
}

std::size_t StripedBackend::NodeCount() const {
  std::shared_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->NodeCount();
}

std::uint64_t StripedBackend::TotalUsedBytes() const {
  // Aggregates read every node's byte counter, which concurrent stripe
  // holders mutate; take the writer lock to quiesce them.
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->TotalUsedBytes();
}

std::uint64_t StripedBackend::TotalCapacityBytes() const {
  std::shared_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->TotalCapacityBytes();
}

std::size_t StripedBackend::TotalRecords() const {
  std::unique_lock<std::shared_mutex> topo(topology_mutex_);
  return inner_->TotalRecords();
}

}  // namespace ecc::core
