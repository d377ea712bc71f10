// Sanitizer-facing stress tests for the concurrent front-end: N worker
// threads hammering a striped elastic cache while splits, decay eviction,
// and contraction are forced mid-flight.  The assertions here are
// conservation properties (every query answered, counters add up); the
// real verdict comes from running this binary under TSan, which the CI
// matrix does on every change.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/provider.h"
#include "common/rng.h"
#include "core/elastic_cache.h"
#include "core/coordinator.h"
#include "core/striped_backend.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/service.h"

namespace ecc::core {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

struct Fixture {
  Fixture(std::size_t workers, std::size_t records_per_node,
          bool front_on = false)
      : provider(
            [] {
              cloudsim::CloudOptions o;
              o.boot_mean = Duration::Seconds(60);
              o.seed = 11;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes =
                  records_per_node * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              // Full observability under the stress load: the registry and
              // trace ring get hammered by every worker, which is exactly
              // what the TSan CI job wants to see.
              o.obs.metrics = &metrics;
              o.obs.trace = &trace;
              return o;
            }(),
            &provider, &clock),
        striped(&cache, /*stripes=*/8),
        service("svc", Duration::Millis(5), 100),
        linearizer(Grid()),
        coordinator(
            [&] {
              CoordinatorOptions o;
              o.workers = workers;
              o.window.slices = 4;
              o.window.alpha = 0.9;
              o.contraction_epsilon = 2;
              o.obs.metrics = &metrics;
              o.obs.trace = &trace;
              if (front_on) {
                o.front.enabled = true;
                o.front.tracker_counters = 32;
                o.front.capacity = 16;
                o.front.admit_min_count = 2;
              }
              return o;
            }(),
            &striped, &service, &linearizer) {}

  ~Fixture() { obs::MaybeDumpTraceFromEnv(trace); }

  VirtualClock clock;
  obs::MetricsRegistry metrics;
  obs::TraceLog trace;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  StripedBackend striped;
  service::SyntheticService service;
  sfc::Linearizer linearizer;
  Coordinator coordinator;
};

// Workers query a mixed hot/cold stream with a node capacity small enough
// that the miss-driven inserts force splits while gets are in flight.  A
// chaos thread concurrently forces contraction attempts and evicts random
// keys through the exclusive topology path.
TEST(ParallelStressTest, SplitsEvictionAndContractionMidFlight) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 400;
  Fixture f(kThreads, /*records_per_node=*/48);

  std::atomic<bool> done{false};
  std::thread chaos([&f, &done] {
    Rng rng(0xc4a05);
    while (!done.load(std::memory_order_relaxed)) {
      (void)f.striped.TryContract();
      std::vector<Key> doomed;
      for (int i = 0; i < 8; ++i) {
        doomed.push_back(rng.Uniform(kKeyspace));
      }
      (void)f.striped.EvictKeys(doomed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> workers;
  std::atomic<std::uint64_t> answered{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, &answered, t] {
      Rng rng(0x5eed + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        // 75% of traffic on a 16-key hot set (contended single-flight),
        // the rest uniform over the keyspace (drives splits).
        const Key k = (rng.Uniform(4) != 0)
                          ? rng.Uniform(16)
                          : rng.Uniform(kKeyspace);
        const QueryOutcome r = f.coordinator.ProcessKey(k, t);
        EXPECT_GE(r.latency, Duration::Zero());
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  chaos.join();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(f.coordinator.total_queries(), kThreads * kPerThread);
  EXPECT_EQ(f.coordinator.total_hits() + f.coordinator.coalesced_hits() +
                f.coordinator.total_misses(),
            kThreads * kPerThread);
  // Every service invocation was led by exactly one miss.
  EXPECT_EQ(f.service.invocations(), f.coordinator.total_misses());
  EXPECT_GE(f.striped.NodeCount(), 1u);
  EXPECT_LE(f.striped.TotalUsedBytes(), f.striped.TotalCapacityBytes());
  // The chaos evictor may have removed anything, but what remains must be
  // consistent and readable.
  EXPECT_EQ(f.striped.TotalRecords(), f.cache.TotalRecords());

  // Quiesced, the registry must agree with the front-end's own counters
  // and the trace ring must have recorded the run.
  const obs::MetricsSnapshot snap = f.metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("coordinator.queries"), kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue("coordinator.hits") +
                snap.CounterValue("coordinator.coalesced") +
                snap.CounterValue("coordinator.misses"),
            kThreads * kPerThread);
  EXPECT_EQ(snap.CounterValue("cache.gets"), f.striped.stats().gets);
  EXPECT_GT(f.trace.total_appended(), 0u);
}

// Batches interleaved with time-step closes: decay eviction and epsilon
// contraction run between quiesced batches, like the sequential driver,
// while the batches themselves run fully parallel.
TEST(ParallelStressTest, BatchesWithTimeStepsStayConsistent) {
  constexpr std::size_t kThreads = 4;
  Fixture f(kThreads, /*records_per_node=*/64);
  Rng rng(0x90);

  std::uint64_t queries = 0;
  for (int step = 0; step < 12; ++step) {
    std::vector<Key> batch;
    for (int i = 0; i < 200; ++i) {
      // The interest locus drifts so earlier keys decay out of the window.
      const Key base = static_cast<Key>(step) * 31;
      batch.push_back((base + rng.Uniform(64)) % kKeyspace);
    }
    const BatchReport r = f.coordinator.RunKeys(batch);
    EXPECT_EQ(r.queries, batch.size());
    EXPECT_EQ(r.hits + r.coalesced + r.misses, batch.size());
    EXPECT_EQ(r.service_invocations, r.misses);
    queries += r.queries;
    const TimeStepReport ts = f.coordinator.EndTimeStep();
    EXPECT_EQ(ts.step_queries, batch.size());
  }
  EXPECT_EQ(f.coordinator.total_queries(), queries);
  // Decay eviction must have fired as interest drifted.
  EXPECT_GT(f.striped.stats().evictions, 0u);
}

// The front tier under chaos: workers hammer a hot set served from their
// private front caches while a chaos thread concurrently evicts keys and
// forces contraction — both of which fan invalidations through the shared
// hub into every worker's cache.  TSan gets the hub's atomics, the
// registry's shared fronttier.* cells, and the per-worker caches all
// exercised at once; the assertions check the accounting still balances
// and the front tier never inflated a hit count.
TEST(ParallelStressTest, FrontTierInvalidationUnderChaos) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 400;
  Fixture f(kThreads, /*records_per_node=*/48, /*front_on=*/true);

  std::atomic<bool> done{false};
  std::thread chaos([&f, &done] {
    Rng rng(0xf207);
    while (!done.load(std::memory_order_relaxed)) {
      (void)f.striped.TryContract();
      std::vector<Key> doomed;
      for (int i = 0; i < 8; ++i) {
        // Half the evictions target the hot set, so front-resident entries
        // get invalidated mid-stream, not just cold backend records.
        doomed.push_back(i % 2 == 0 ? rng.Uniform(16)
                                    : rng.Uniform(kKeyspace));
      }
      (void)f.striped.EvictKeys(doomed);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&f, t] {
      Rng rng(0xf00d + t);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        const Key k = (rng.Uniform(4) != 0)
                          ? rng.Uniform(16)
                          : rng.Uniform(kKeyspace);
        const QueryOutcome r = f.coordinator.ProcessKey(k, t);
        EXPECT_GE(r.latency, Duration::Zero());
      }
    });
  }
  for (auto& t : workers) t.join();
  done.store(true, std::memory_order_relaxed);
  chaos.join();

  EXPECT_EQ(f.coordinator.total_queries(), kThreads * kPerThread);
  EXPECT_EQ(f.coordinator.total_hits() + f.coordinator.coalesced_hits() +
                f.coordinator.total_misses(),
            kThreads * kPerThread);
  EXPECT_EQ(f.service.invocations(), f.coordinator.total_misses());
  // Front hits are a subset of hits, and the hot set is hot enough that
  // some queries must have been answered from the front tier.
  EXPECT_LE(f.coordinator.front_hits(), f.coordinator.total_hits());
  EXPECT_GT(f.coordinator.front_hits(), 0u);

  const obs::MetricsSnapshot snap = f.metrics.Snapshot();
  EXPECT_EQ(snap.CounterValue("fronttier.hits"), f.coordinator.front_hits());
  // The chaos evictor invalidated front-resident hot keys mid-stream.
  EXPECT_GT(snap.CounterValue("fronttier.lookups"), 0u);
}

// Front tier with quiesced time steps: window decay must age the trackers
// (EndTimeStep touches every worker's cache at the boundary — single
// threaded there by the quiesce assert, which TSan double-checks).
TEST(ParallelStressTest, FrontTierBatchesWithTimeSteps) {
  constexpr std::size_t kThreads = 4;
  Fixture f(kThreads, /*records_per_node=*/64, /*front_on=*/true);
  Rng rng(0x91);

  for (int step = 0; step < 8; ++step) {
    std::vector<Key> batch;
    for (int i = 0; i < 200; ++i) {
      batch.push_back(rng.Uniform(32));  // persistent hot locus
    }
    const BatchReport r = f.coordinator.RunKeys(batch);
    EXPECT_EQ(r.hits + r.coalesced + r.misses, r.queries);
    (void)f.coordinator.EndTimeStep();
  }
  EXPECT_GT(f.coordinator.front_hits(), 0u);
  EXPECT_EQ(f.service.invocations(), f.coordinator.total_misses());
}

}  // namespace
}  // namespace ecc::core
