// Tests for the coordinator: hit/miss path, service invocation, slice
// machinery, eviction wiring, contraction cadence, dynamic window.
#include <gtest/gtest.h>

#include <memory>

#include "cloudsim/provider.h"
#include "core/coordinator.h"
#include "core/elastic_cache.h"
#include "core/static_cache.h"
#include "fault/fault.h"
#include "fault/faulty_service.h"
#include "service/service.h"

namespace ecc::core {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;  // matches 5+3 bit grid

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

struct Fixture {
  explicit Fixture(CoordinatorOptions copts = {},
                   std::size_t records_per_node = 64)
      : provider(
            [] {
              cloudsim::CloudOptions o;
              o.boot_mean = Duration::Seconds(60);
              o.seed = 2;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes =
                  records_per_node * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              return o;
            }(),
            &provider, &clock),
        service("svc", Duration::Seconds(23), 100),
        linearizer(Grid()),
        coordinator(copts, &cache, &service, &linearizer, &clock) {}

  VirtualClock clock;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  service::SyntheticService service;
  sfc::Linearizer linearizer;
  Coordinator coordinator;
};

TEST(CoordinatorTest, MissInvokesServiceAndCaches) {
  Fixture f;
  const QueryOutcome first = f.coordinator.ProcessKey(5);
  EXPECT_FALSE(first.hit);
  EXPECT_GE(first.latency.seconds(), 23.0 * 0.9);
  EXPECT_EQ(f.service.invocations(), 1u);

  const QueryOutcome second = f.coordinator.ProcessKey(5);
  EXPECT_TRUE(second.hit);
  EXPECT_LT(second.latency.seconds(), 1.0);
  EXPECT_EQ(f.service.invocations(), 1u);  // served from cache
  EXPECT_EQ(f.coordinator.total_queries(), 2u);
  EXPECT_EQ(f.coordinator.total_hits(), 1u);
}

TEST(CoordinatorTest, ProcessQueryEncodesThroughLinearizer) {
  Fixture f;
  const sfc::GeoTemporalQuery q{10.0, 20.0, 100.0};
  auto first = f.coordinator.ProcessQuery(q);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->hit);
  // The same cell hits.
  auto second = f.coordinator.ProcessQuery(q);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->hit);
  // Out-of-range queries are rejected before touching the cache.
  EXPECT_FALSE(f.coordinator.ProcessQuery({999.0, 0.0, 0.0}).ok());
}

TEST(CoordinatorTest, TimeStepReportCountsStepTraffic) {
  Fixture f;
  f.coordinator.ProcessKey(1);
  f.coordinator.ProcessKey(1);
  f.coordinator.ProcessKey(2);
  const TimeStepReport report = f.coordinator.EndTimeStep();
  EXPECT_EQ(report.step_queries, 3u);
  EXPECT_EQ(report.step_hits, 1u);
  EXPECT_EQ(report.step_misses, 2u);
  EXPECT_GT(report.step_query_time.seconds(), 40.0);  // two service calls
  // Counters reset per step.
  const TimeStepReport empty = f.coordinator.EndTimeStep();
  EXPECT_EQ(empty.step_queries, 0u);
}

TEST(CoordinatorTest, WindowedEvictionRemovesColdRecords) {
  CoordinatorOptions copts;
  copts.window.slices = 3;
  copts.window.alpha = 0.9;
  copts.contraction_epsilon = 0;  // isolate eviction
  Fixture f(copts);
  f.coordinator.ProcessKey(7);  // cached now
  ASSERT_EQ(f.cache.TotalRecords(), 1u);
  // Let the slice holding key 7 expire with no further references
  // (m + 1 steps: one closes it, m more age it out).
  TimeStepReport last;
  for (int i = 0; i < 4; ++i) last = f.coordinator.EndTimeStep();
  EXPECT_EQ(last.evicted, 1u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);
  EXPECT_FALSE(f.cache.Get(7).ok());
}

TEST(CoordinatorTest, HotKeySurvivesWindow) {
  CoordinatorOptions copts;
  copts.window.slices = 3;
  Fixture f(copts);
  for (int step = 0; step < 10; ++step) {
    f.coordinator.ProcessKey(7);  // re-referenced every slice
    const TimeStepReport r = f.coordinator.EndTimeStep();
    EXPECT_EQ(r.evicted, 0u);
  }
  EXPECT_TRUE(f.cache.Get(7).ok());
  EXPECT_EQ(f.coordinator.total_hits(), 9u);
}

TEST(CoordinatorTest, ContractionRunsEveryEpsilonExpirations) {
  CoordinatorOptions copts;
  copts.window.slices = 2;
  copts.contraction_epsilon = 3;
  Fixture f(copts, /*records_per_node=*/16);
  // Grow the fleet.
  for (Key k = 0; k < 60; ++k) f.coordinator.ProcessKey(k * 30);
  const std::size_t grown = f.cache.NodeCount();
  ASSERT_GT(grown, 1u);
  // Stop querying: the window drains, evictions empty the nodes, and every
  // third expiration a merge may fire.
  bool contracted = false;
  for (int step = 0; step < 30; ++step) {
    contracted |= f.coordinator.EndTimeStep().contracted;
  }
  EXPECT_TRUE(contracted);
  EXPECT_LT(f.cache.NodeCount(), grown);
}

TEST(CoordinatorTest, InfiniteWindowNeverEvicts) {
  CoordinatorOptions copts;
  copts.window.slices = 0;
  Fixture f(copts);
  for (Key k = 0; k < 20; ++k) {
    f.coordinator.ProcessKey(k);
    EXPECT_EQ(f.coordinator.EndTimeStep().evicted, 0u);
  }
  EXPECT_EQ(f.cache.TotalRecords(), 20u);
}

TEST(CoordinatorTest, DynamicWindowGrowsOnTrafficSurge) {
  CoordinatorOptions copts;
  copts.window.slices = 50;
  copts.dynamic_window = true;
  copts.dynamic.period = 5;
  copts.dynamic.min_slices = 10;
  copts.dynamic.max_slices = 200;
  Fixture f(copts, /*records_per_node=*/1024);
  Key k = 0;
  // Baseline period: 2 queries per slice.
  for (int step = 0; step < 5; ++step) {
    for (int j = 0; j < 2; ++j) f.coordinator.ProcessKey(k++ % kKeyspace);
    f.coordinator.EndTimeStep();
  }
  ASSERT_EQ(f.coordinator.window().options().slices, 50u);
  // Surge: 10 queries per slice -> ratio over EMA > grow_ratio -> grow.
  for (int step = 0; step < 5; ++step) {
    for (int j = 0; j < 10; ++j) f.coordinator.ProcessKey(k++ % kKeyspace);
    f.coordinator.EndTimeStep();
  }
  EXPECT_GT(f.coordinator.window().options().slices, 50u);
  // Lull: traffic collapses -> the window narrows again.
  const std::size_t peak = f.coordinator.window().options().slices;
  for (int step = 0; step < 25; ++step) {
    f.coordinator.ProcessKey(k % kKeyspace);
    f.coordinator.EndTimeStep();
  }
  EXPECT_LT(f.coordinator.window().options().slices, peak);
}

// A failed service call is a miss that caches nothing and is counted; the
// next query for the key invokes the service again.  Overload protection
// is off, so this is the plain service path.
TEST(CoordinatorTest, FailedServiceCallIsCountedAndNotCached) {
  Fixture f;
  fault::FaultPlan plan;
  plan.service_failures = {0};
  fault::FaultInjector injector(plan);
  fault::FaultyService faulty(&f.service, &injector, Duration::Seconds(5));
  Coordinator coordinator({}, &f.cache, &faulty, &f.linearizer, &f.clock);

  const QueryOutcome failed = coordinator.ProcessKey(5);
  EXPECT_FALSE(failed.hit || failed.coalesced || failed.shed || failed.stale);
  EXPECT_EQ(coordinator.service_failures(), 1u);
  EXPECT_EQ(coordinator.total_misses(), 1u);
  EXPECT_EQ(f.cache.TotalRecords(), 0u);

  const QueryOutcome retried = coordinator.ProcessKey(5);
  EXPECT_FALSE(retried.hit);
  EXPECT_EQ(f.service.invocations(), 1u);
  EXPECT_EQ(coordinator.service_failures(), 1u);
  EXPECT_EQ(f.cache.TotalRecords(), 1u);
  EXPECT_TRUE(coordinator.ProcessKey(5).hit);
}

TEST(CoordinatorTest, WorksWithStaticBackendToo) {
  VirtualClock clock;
  StaticCacheOptions sopts;
  sopts.nodes = 2;
  sopts.node_capacity_bytes = 64 * 1024;
  sopts.ring.range = kKeyspace;
  StaticCache cache(sopts, &clock);
  service::SyntheticService service("svc", Duration::Seconds(23), 100);
  sfc::Linearizer lin(Grid());
  Coordinator coordinator({}, &cache, &service, &lin, &clock);
  EXPECT_FALSE(coordinator.ProcessKey(1).hit);
  EXPECT_TRUE(coordinator.ProcessKey(1).hit);
  const TimeStepReport r = coordinator.EndTimeStep();
  EXPECT_FALSE(r.contracted);  // static backends never contract
}

}  // namespace
}  // namespace ecc::core
