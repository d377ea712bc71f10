// Tests for the coordinator's multi-worker mode: single-flight determinism
// (K concurrent misses on one key -> exactly one service invocation),
// coalescing accounting, batch reports, virtual-time scaling, and the
// quiesced time-step machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/provider.h"
#include "core/elastic_cache.h"
#include "core/coordinator.h"
#include "core/striped_backend.h"
#include "service/service.h"

namespace ecc::core {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;  // matches the 4+3 bit grid

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

/// A service whose Invoke blocks until released, so a test can hold a miss
/// in flight while followers pile onto the single-flight table.
class BlockingService final : public service::Service {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    service::ServiceResult r;
    r.payload = std::string(100, 'v');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::string name_ = "blocking";
  std::atomic<std::uint64_t> invocations_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

/// A miss this query led: it invoked the service (or failed doing so).
bool LedMiss(const QueryOutcome& o) {
  return !o.hit && !o.coalesced && !o.shed && !o.stale;
}

struct Fixture {
  explicit Fixture(std::size_t workers, service::Service* svc = nullptr,
                   CoordinatorOptions copts = {})
      : provider(
            [] {
              cloudsim::CloudOptions o;
              o.boot_mean = Duration::Seconds(60);
              o.seed = 3;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes = 256 * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              return o;
            }(),
            &provider, &clock),
        striped(&cache, /*stripes=*/8),
        synthetic("svc", Duration::Seconds(23), 100),
        linearizer(Grid()),
        coordinator(
            [&] {
              copts.workers = workers;
              return copts;
            }(),
            &striped, svc != nullptr ? svc : &synthetic, &linearizer) {}

  VirtualClock clock;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  StripedBackend striped;
  service::SyntheticService synthetic;
  sfc::Linearizer linearizer;
  Coordinator coordinator;
};

TEST(MultiWorkerCoordinatorTest, MissThenHitOnOneWorker) {
  Fixture f(/*workers=*/1);
  const QueryOutcome first = f.coordinator.ProcessKey(5, 0);
  EXPECT_TRUE(LedMiss(first));
  EXPECT_GE(first.latency.seconds(), 23.0 * 0.9);
  EXPECT_EQ(f.synthetic.invocations(), 1u);

  const QueryOutcome second = f.coordinator.ProcessKey(5, 0);
  EXPECT_TRUE(second.hit);
  EXPECT_LT(second.latency.seconds(), 1.0);
  EXPECT_EQ(f.synthetic.invocations(), 1u);
  EXPECT_EQ(f.coordinator.total_queries(), 2u);
  EXPECT_EQ(f.coordinator.total_hits(), 1u);
  EXPECT_EQ(f.coordinator.total_misses(), 1u);
}

// The determinism guarantee the ISSUE gates on: K >= 8 simultaneous misses
// on one key cause exactly one service::Service invocation.  The blocking
// service pins the leader inside Invoke until every follower has joined
// the flight, so the coalescing really is concurrent, not accidental
// serialization.
TEST(MultiWorkerCoordinatorTest, EightConcurrentMissesInvokeServiceOnce) {
  constexpr std::size_t kThreads = 8;
  BlockingService blocking;
  Fixture f(kThreads, &blocking);

  std::vector<std::thread> threads;
  std::vector<QueryOutcome> results(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&f, &results, i] {
      results[i] = f.coordinator.ProcessKey(42, i);
    });
  }

  // Wait until all seven followers have registered on the flight.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (f.coordinator.coalesced_hits() < kThreads - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(f.coordinator.coalesced_hits(), kThreads - 1)
      << "followers failed to coalesce before the deadline";
  EXPECT_EQ(blocking.invocations(), 1u);  // leader is inside the only call

  blocking.Release();
  for (auto& t : threads) t.join();

  EXPECT_EQ(blocking.invocations(), 1u);
  EXPECT_EQ(f.coordinator.total_misses(), 1u);
  EXPECT_EQ(f.coordinator.coalesced_hits(), kThreads - 1);
  std::size_t leaders = 0, followers = 0;
  for (const auto& r : results) {
    if (LedMiss(r)) ++leaders;
    if (r.coalesced) ++followers;
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(followers, kThreads - 1);
  // The landed result serves later queries from the cache.
  EXPECT_TRUE(f.coordinator.ProcessKey(42, 0).hit);
}

TEST(MultiWorkerCoordinatorTest, BatchOfIdenticalColdKeysInvokesOnce) {
  Fixture f(/*workers=*/4);
  const std::vector<Key> keys(64, Key{7});
  const BatchReport report = f.coordinator.RunKeys(keys);
  EXPECT_EQ(report.queries, 64u);
  EXPECT_EQ(report.service_invocations, 1u);
  EXPECT_EQ(f.synthetic.invocations(), 1u);
  EXPECT_EQ(report.hits + report.coalesced + report.misses, 64u);
  EXPECT_EQ(report.misses, 1u);
}

TEST(MultiWorkerCoordinatorTest, HitHeavyBatchScalesWithWorkers) {
  // Same warm working set, same query stream; the 4-worker batch must
  // finish in under half the 1-worker virtual makespan.
  std::vector<Key> warm;
  for (Key k = 0; k < 64; ++k) warm.push_back(k);
  std::vector<Key> stream;
  for (std::size_t i = 0; i < 1024; ++i) stream.push_back(warm[i % 64]);

  auto run = [&](std::size_t workers) {
    Fixture f(workers);
    for (Key k : warm) {
      EXPECT_TRUE(f.striped.Put(k, std::string(100, 'w')).ok());
    }
    const BatchReport r = f.coordinator.RunKeys(stream);
    EXPECT_EQ(r.hits, stream.size());
    return r.makespan;
  };
  const Duration serial = run(1);
  const Duration parallel4 = run(4);
  EXPECT_GT(serial, Duration::Zero());
  EXPECT_LT(parallel4 * 2.0, serial);
}

TEST(MultiWorkerCoordinatorTest, EndTimeStepEvictsAndReportsLikeSequential) {
  CoordinatorOptions copts;
  copts.window.slices = 3;
  copts.window.alpha = 0.9;
  copts.contraction_epsilon = 0;
  Fixture f(/*workers=*/2, nullptr, copts);

  (void)f.coordinator.ProcessKey(7, 0);
  (void)f.coordinator.ProcessKey(7, 1);
  (void)f.coordinator.ProcessKey(9, 0);
  const TimeStepReport report = f.coordinator.EndTimeStep();
  EXPECT_EQ(report.step_queries, 3u);
  EXPECT_EQ(report.step_hits, 1u);
  EXPECT_EQ(report.step_misses, 2u);
  ASSERT_EQ(f.cache.TotalRecords(), 2u);

  // Age both keys out of the window with no further references.
  std::size_t evicted = 0;
  for (int i = 0; i < 4; ++i) evicted += f.coordinator.EndTimeStep().evicted;
  EXPECT_EQ(evicted, 2u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);
}

TEST(MultiWorkerCoordinatorTest, ProcessQueryEncodesThroughLinearizer) {
  Fixture f(/*workers=*/1);
  const sfc::GeoTemporalQuery q{10.0, 20.0, 100.0};
  auto first = f.coordinator.ProcessQuery(q, 0);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(LedMiss(*first));
  auto second = f.coordinator.ProcessQuery(q, 0);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  EXPECT_FALSE(f.coordinator.ProcessQuery({999.0, 0.0, 0.0}, 0).ok());
}

/// Blocks like BlockingService but FAILS its first invocation after
/// release (Unavailable, full 23 s charged), succeeding from then on —
/// the shape of a transient backing-service outage under single-flight.
class FailingOnceService final : public service::Service {
 public:
  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    const std::uint64_t attempt =
        invocations_.fetch_add(1, std::memory_order_relaxed);
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return released_; });
    }
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    if (attempt == 0) return Status::Unavailable("injected service outage");
    service::ServiceResult r;
    r.payload = std::string(100, 'v');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

  void Release() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::string name_ = "failing-once";
  std::atomic<std::uint64_t> invocations_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

// Regression: when the single-flight leader's service call fails, its
// followers must stay kCoalesced without being charged the failed call's
// 23 s (they never invoked anything — charging both the leader and every
// follower would double-count the outage).  Nothing is cached, so the
// key's next query elects a fresh leader and re-invokes the service.
TEST(MultiWorkerCoordinatorTest, CoalescedFollowersNotChargedWhenLeaderFails) {
  constexpr std::size_t kThreads = 4;
  FailingOnceService failing;
  Fixture f(kThreads, &failing);

  std::vector<std::thread> threads;
  std::vector<QueryOutcome> results(kThreads);
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&f, &results, i] {
      results[i] = f.coordinator.ProcessKey(42, i);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (f.coordinator.coalesced_hits() < kThreads - 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(f.coordinator.coalesced_hits(), kThreads - 1)
      << "followers failed to coalesce before the deadline";

  failing.Release();
  for (auto& t : threads) t.join();

  EXPECT_EQ(f.coordinator.service_failures(), 1u);
  EXPECT_EQ(failing.invocations(), 1u);  // one leader, one failed call
  std::size_t leaders = 0;
  for (const QueryOutcome& r : results) {
    if (LedMiss(r)) {
      ++leaders;
      // Only the leader's clock carries the failed call's cost.
      EXPECT_GE(r.latency.seconds(), 23.0 * 0.9);
    } else {
      ASSERT_TRUE(r.coalesced);
      EXPECT_LT(r.latency.seconds(), 1.0)
          << "follower charged for the leader's failed service call";
    }
  }
  EXPECT_EQ(leaders, 1u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);  // a failure is never cached

  // The failure did not poison the key: a fresh leader re-invokes, and the
  // landed result then serves hits.
  const QueryOutcome retry = f.coordinator.ProcessKey(42, 0);
  EXPECT_TRUE(LedMiss(retry));
  EXPECT_EQ(failing.invocations(), 2u);
  EXPECT_EQ(f.coordinator.service_failures(), 1u);
  EXPECT_TRUE(f.coordinator.ProcessKey(42, 1).hit);
}

TEST(MultiWorkerCoordinatorTest, WorkerHistogramsRecordLatencies) {
  Fixture f(/*workers=*/2);
  (void)f.coordinator.ProcessKey(1, 0);  // miss: ~23 s
  (void)f.coordinator.ProcessKey(1, 0);  // hit: ~lookup cost
  (void)f.coordinator.ProcessKey(1, 1);  // hit on the other worker
  const Histogram merged = f.coordinator.MergedLatency();
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_GE(merged.max(), 20e6);  // the miss, in microseconds
  EXPECT_LE(merged.min(), 100.0);  // a hit
  EXPECT_GT(f.coordinator.WorkerTime(0).micros(), 0);
  EXPECT_GT(f.coordinator.WorkerTime(1).micros(), 0);
}

}  // namespace
}  // namespace ecc::core
