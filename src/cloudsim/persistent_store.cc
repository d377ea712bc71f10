#include "cloudsim/persistent_store.h"

#include <cassert>

namespace ecc::cloudsim {

namespace {
constexpr double kSecondsPerMonth = 30.0 * 24.0 * 3600.0;
constexpr double kBytesPerGb = 1024.0 * 1024.0 * 1024.0;
}  // namespace

PersistentStore::PersistentStore(PersistentStoreOptions opts,
                                 VirtualClock* clock)
    : opts_(opts), clock_(clock), last_accrual_(clock->now()) {
  assert(clock != nullptr);
}

void PersistentStore::AccrueStorage() {
  const TimePoint now = clock_->now();
  byte_seconds_ += static_cast<double>(used_bytes_) *
                   (now - last_accrual_).seconds();
  last_accrual_ = now;
}

void PersistentStore::Put(std::uint64_t key, std::string value) {
  const std::lock_guard<std::mutex> g(mutex_);
  AccrueStorage();
  clock_->Advance(opts_.put_latency);
  ++puts_;
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    used_bytes_ -= it->second.size();
    it->second = std::move(value);
    used_bytes_ += it->second.size();
    return;
  }
  used_bytes_ += value.size();
  objects_.emplace(key, std::move(value));
}

StatusOr<std::string> PersistentStore::Get(std::uint64_t key) {
  const std::lock_guard<std::mutex> g(mutex_);
  AccrueStorage();
  clock_->Advance(opts_.get_latency);
  ++gets_;
  const auto it = objects_.find(key);
  if (it == objects_.end()) return Status::NotFound();
  ++get_hits_;
  return it->second;
}

bool PersistentStore::Erase(std::uint64_t key) {
  const std::lock_guard<std::mutex> g(mutex_);
  AccrueStorage();
  const auto it = objects_.find(key);
  if (it == objects_.end()) return false;
  used_bytes_ -= it->second.size();
  objects_.erase(it);
  return true;
}

double PersistentStore::AccruedCostDollars() const {
  const std::lock_guard<std::mutex> g(mutex_);
  const double live_byte_seconds =
      byte_seconds_ + static_cast<double>(used_bytes_) *
                          (clock_->now() - last_accrual_).seconds();
  const double gb_months =
      live_byte_seconds / kBytesPerGb / kSecondsPerMonth;
  return gb_months * opts_.price_per_gb_month +
         static_cast<double>(puts_) / 1000.0 * opts_.put_price_per_1k +
         static_cast<double>(gets_) / 1000.0 * opts_.get_price_per_1k;
}

}  // namespace ecc::cloudsim
