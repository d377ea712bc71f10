// Simulated persistent Cloud object store (S3-like, 2010 pricing).
//
// The paper's §IV.D "assessed the various cost aspects of the Cloud's
// persistent storage, such as Amazon S3 and Elastic Block Storage" and
// defers the study to a companion paper.  This substrate lets the cache
// spill evicted derived results to durable storage: object get/put charge
// a latency far above memory yet far below recomputation, and cost accrues
// as $/GB-month plus per-request fees.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "common/time.h"

namespace ecc::cloudsim {

struct PersistentStoreOptions {
  /// Object round-trip latencies (2010-era S3 from EC2).
  Duration get_latency = Duration::Millis(220);
  Duration put_latency = Duration::Millis(300);
  /// 2010 S3 pricing: ~$0.15/GB-month, ~$0.01 per 1000 PUTs,
  /// ~$0.001 per 1000 GETs.
  double price_per_gb_month = 0.15;
  double put_price_per_1k = 0.01;
  double get_price_per_1k = 0.001;
};

/// Thread-safe: one internal mutex serializes every call, so coordinator
/// workers and the backend's stale probes may share one store.
class PersistentStore {
 public:
  /// `clock` is shared with the simulation; not owned.
  PersistentStore(PersistentStoreOptions opts, VirtualClock* clock);

  /// Store (replacing) an object; charges put latency.
  void Put(std::uint64_t key, std::string value);

  /// Fetch an object; charges get latency (also on miss — the request
  /// still happens).
  [[nodiscard]] StatusOr<std::string> Get(std::uint64_t key);

  /// Delete; no latency charge (asynchronous fire-and-forget).
  bool Erase(std::uint64_t key);

  [[nodiscard]] bool Contains(std::uint64_t key) const {
    const std::lock_guard<std::mutex> g(mutex_);
    return objects_.count(key) != 0;
  }
  [[nodiscard]] std::size_t object_count() const {
    const std::lock_guard<std::mutex> g(mutex_);
    return objects_.size();
  }
  [[nodiscard]] std::uint64_t used_bytes() const {
    const std::lock_guard<std::mutex> g(mutex_);
    return used_bytes_;
  }
  [[nodiscard]] std::uint64_t puts() const {
    const std::lock_guard<std::mutex> g(mutex_);
    return puts_;
  }
  [[nodiscard]] std::uint64_t gets() const {
    const std::lock_guard<std::mutex> g(mutex_);
    return gets_;
  }
  [[nodiscard]] std::uint64_t get_hits() const {
    const std::lock_guard<std::mutex> g(mutex_);
    return get_hits_;
  }
  /// What one Get charges the store's clock.
  [[nodiscard]] Duration get_latency() const { return opts_.get_latency; }

  /// Storage + request bill as of the clock's now.
  [[nodiscard]] double AccruedCostDollars() const;

 private:
  /// Fold the byte-time integral forward to `now` (caller holds mutex_).
  void AccrueStorage();

  PersistentStoreOptions opts_;
  VirtualClock* clock_;
  mutable std::mutex mutex_;  ///< guards everything below
  std::unordered_map<std::uint64_t, std::string> objects_;
  std::uint64_t used_bytes_ = 0;
  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t get_hits_ = 0;
  /// Integral of used_bytes over time, in byte-seconds.
  double byte_seconds_ = 0.0;
  TimePoint last_accrual_;
};

}  // namespace ecc::cloudsim
