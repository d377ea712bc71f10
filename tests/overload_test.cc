// Tests for the overload-protection subsystem: circuit-breaker state
// machine (table-driven), bounded admission queue under a saturating miss
// storm, per-query deadlines clamping the service charge, scripted
// brownout faults, bounded-staleness degraded answers from the mirror
// replica and the spill tier, and the end-to-end brownout scenario
// (breaker observed in all three states, queue depth bounded, zero
// queries past deadline + one RPC timeout, spilled keys reheated).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cloudsim/persistent_store.h"
#include "cloudsim/provider.h"
#include "common/histogram.h"
#include "common/time.h"
#include "core/coordinator.h"
#include "core/elastic_cache.h"
#include "core/striped_backend.h"
#include "fault/fault.h"
#include "fault/faulty_service.h"
#include "net/rpc.h"
#include "obs/trace.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "overload/overload.h"
#include "service/service.h"

namespace ecc::core {
namespace {

using overload::AdmissionOptions;
using overload::AdmissionPolicy;
using overload::AdmissionQueue;
using overload::BreakerOptions;
using overload::BreakerState;
using overload::CircuitBreaker;

constexpr std::uint64_t kKeyspace = 1u << 11;  // matches the 4+3 bit grid

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

TimePoint At(double seconds) {
  return TimePoint::Epoch() + Duration::Seconds(seconds);
}

std::size_t CountEvents(const std::vector<obs::TraceEvent>& events,
                        obs::EventKind kind) {
  std::size_t n = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- Circuit breaker --------------------------------------------------------

// The full state machine, driven as a table of timed operations: closed
// opens at the failure threshold, open rejects until the cooldown, the
// cooldown elapse grants half-open probes, enough probe successes close.
TEST(CircuitBreakerTest, StateMachineTable) {
  BreakerOptions opts;
  opts.window = Duration::Seconds(60);
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;
  opts.open_cooldown = Duration::Seconds(30);
  opts.half_open_probes = 2;
  opts.half_open_successes = 2;

  struct Step {
    enum Op { kAllow, kOk, kFail } op;
    double t_s;
    bool want_allow;  // only checked for kAllow
    BreakerState want_state;
  };
  const std::vector<Step> steps = {
      {Step::kAllow, 0.0, true, BreakerState::kClosed},
      // One failure is below min_samples; the second trips the 0.5 rate.
      {Step::kFail, 1.0, false, BreakerState::kClosed},
      {Step::kFail, 2.0, false, BreakerState::kOpen},
      // Open rejects until the cooldown elapses (opened at t=2, +30 s).
      {Step::kAllow, 3.0, false, BreakerState::kOpen},
      {Step::kAllow, 31.0, false, BreakerState::kOpen},
      // Cooldown elapsed: the elapse itself flips half-open and grants the
      // first probe; a second probe fits the budget, a third does not.
      {Step::kAllow, 33.0, true, BreakerState::kHalfOpen},
      {Step::kAllow, 34.0, true, BreakerState::kHalfOpen},
      {Step::kAllow, 35.0, false, BreakerState::kHalfOpen},
      // Two probe successes close; traffic flows again.
      {Step::kOk, 36.0, false, BreakerState::kHalfOpen},
      {Step::kOk, 37.0, false, BreakerState::kClosed},
      {Step::kAllow, 38.0, true, BreakerState::kClosed},
      // Re-trip, and this time the probe fails: straight back to open.
      {Step::kFail, 40.0, false, BreakerState::kClosed},
      {Step::kFail, 41.0, false, BreakerState::kOpen},
      {Step::kAllow, 72.0, true, BreakerState::kHalfOpen},
      {Step::kFail, 73.0, false, BreakerState::kOpen},
      {Step::kAllow, 74.0, false, BreakerState::kOpen},
  };

  CircuitBreaker breaker(opts);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const Step& s = steps[i];
    switch (s.op) {
      case Step::kAllow:
        EXPECT_EQ(breaker.Allow(At(s.t_s)), s.want_allow) << "step " << i;
        break;
      case Step::kOk:
        breaker.RecordSuccess(At(s.t_s));
        break;
      case Step::kFail:
        breaker.RecordFailure(At(s.t_s));
        break;
    }
    EXPECT_EQ(breaker.state(), s.want_state) << "step " << i;
  }
  const overload::BreakerStats stats = breaker.stats();
  EXPECT_EQ(stats.opens, 3u);   // t=2, t=41, t=73
  EXPECT_EQ(stats.closes, 1u);  // t=37
  EXPECT_GE(stats.rejections, 4u);
  EXPECT_EQ(stats.probes, 3u);  // t=33, t=34, t=72
}

// A brownout serves answers, just ruinously late: successful-but-slow calls
// must count as failures when slow-call accounting is on.
TEST(CircuitBreakerTest, SlowCallsCountAsFailures) {
  BreakerOptions opts;
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;
  opts.slow_call_threshold = Duration::Seconds(100);

  CircuitBreaker breaker(opts);
  breaker.RecordSuccess(At(1.0), Duration::Seconds(23));
  breaker.RecordSuccess(At(2.0), Duration::Seconds(23));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);  // fast successes

  breaker.RecordSuccess(At(3.0), Duration::Seconds(230));
  breaker.RecordSuccess(At(4.0), Duration::Seconds(230));
  breaker.RecordSuccess(At(5.0), Duration::Seconds(230));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

// The sliding window forgets: a failure older than the window no longer
// counts toward the rate.
TEST(CircuitBreakerTest, WindowForgetsOldFailures) {
  BreakerOptions opts;
  opts.window = Duration::Seconds(60);
  opts.min_samples = 2;
  opts.failure_threshold = 0.5;

  CircuitBreaker breaker(opts);
  breaker.RecordFailure(At(0.0));
  // 61 s later the first failure has aged out; one fresh failure alone is
  // below min_samples, so the breaker stays closed.
  breaker.RecordFailure(At(61.0));
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  breaker.RecordFailure(At(62.0));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
}

// Per-worker clocks are mutually unordered; a lagging `now` must never
// rewind a transition or re-arm the cooldown.
TEST(CircuitBreakerTest, LaggingClockCannotRewind) {
  BreakerOptions opts;
  opts.min_samples = 1;
  opts.failure_threshold = 0.5;
  opts.open_cooldown = Duration::Seconds(30);
  opts.half_open_probes = 1;
  opts.half_open_successes = 1;

  CircuitBreaker breaker(opts);
  breaker.RecordFailure(At(100.0));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // A worker whose private clock is far behind asks at t=1: evaluated
  // against the high-water mark (100), the cooldown has not elapsed.
  EXPECT_FALSE(breaker.Allow(At(1.0)));
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  // Once any caller's clock passes the cooldown, probes open up.
  EXPECT_TRUE(breaker.Allow(At(131.0)));
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
}

// --- Admission queue --------------------------------------------------------

TEST(AdmissionQueueTest, RejectNewShedsAtLimit) {
  AdmissionQueue q(AdmissionOptions{2, AdmissionPolicy::kRejectNew});
  const AdmissionQueue::Ticket t1 = q.Enter();
  const AdmissionQueue::Ticket t2 = q.Enter();
  ASSERT_NE(t1, AdmissionQueue::kRejected);
  ASSERT_NE(t2, AdmissionQueue::kRejected);
  EXPECT_EQ(q.Enter(), AdmissionQueue::kRejected);  // full
  EXPECT_EQ(q.depth(), 2u);

  EXPECT_TRUE(q.StartService(t1));
  EXPECT_EQ(q.depth(), 2u);  // in service still occupies the slot
  q.Exit(t1);
  EXPECT_EQ(q.depth(), 1u);

  const AdmissionQueue::Ticket t3 = q.Enter();  // slot freed
  ASSERT_NE(t3, AdmissionQueue::kRejected);
  q.Cancel(t3);  // double-checked cache hit: slot released without service
  EXPECT_EQ(q.depth(), 1u);

  const overload::AdmissionStats stats = q.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.peak_depth, 2u);
}

TEST(AdmissionQueueTest, DropOldestRevokesWaitingTicket) {
  AdmissionQueue q(AdmissionOptions{2, AdmissionPolicy::kDropOldest});
  const AdmissionQueue::Ticket t1 = q.Enter();
  const AdmissionQueue::Ticket t2 = q.Enter();
  // Full; the newcomer revokes the oldest waiter instead of shedding.
  const AdmissionQueue::Ticket t3 = q.Enter();
  ASSERT_NE(t3, AdmissionQueue::kRejected);
  EXPECT_EQ(q.depth(), 2u);

  // The revoked leader discovers lazily, at the front of the line.
  EXPECT_FALSE(q.StartService(t1));
  EXPECT_TRUE(q.StartService(t2));
  EXPECT_TRUE(q.StartService(t3));

  // With every pending miss already in service there is nothing droppable:
  // the newcomer is rejected even under kDropOldest.
  EXPECT_EQ(q.Enter(), AdmissionQueue::kRejected);

  const overload::AdmissionStats stats = q.stats();
  EXPECT_EQ(stats.admitted, 3u);
  EXPECT_EQ(stats.dropped, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_LE(stats.peak_depth, 2u);
}

// --- Scripted brownout faults -----------------------------------------------

TEST(BrownoutFaultTest, ScriptedWindowInflatesCostDeterministically) {
  service::SyntheticService inner("svc", Duration::Seconds(23), 64);
  fault::FaultPlan plan;
  plan.brownouts.push_back({/*from_slice=*/1, /*slices=*/2,
                            /*latency_multiplier=*/10.0});
  fault::FaultInjector injector(plan);
  fault::FaultyService faulty(&inner, &injector, Duration::Seconds(5));
  const sfc::GeoTemporalQuery q{0.0, 0.0, 0.0};

  // Slice 0: healthy baseline.
  VirtualClock c0;
  auto base = faulty.Invoke(q, &c0);
  ASSERT_TRUE(base.ok());
  const Duration baseline = c0.now() - TimePoint::Epoch();
  EXPECT_EQ(injector.stats().brownouts, 0u);

  // Slices 1 and 2: the scripted window multiplies the charge by 10 and
  // the result's exec_time reports the inflated cost honestly.
  injector.AdvanceServiceSlice();
  VirtualClock c1;
  auto slow = faulty.Invoke(q, &c1);
  ASSERT_TRUE(slow.ok());
  const Duration inflated = c1.now() - TimePoint::Epoch();
  EXPECT_EQ(slow->exec_time, inflated);
  EXPECT_GT(inflated, baseline * 5.0);
  EXPECT_EQ(injector.stats().brownouts, 1u);

  // Slice 3: past the window, costs are normal again.
  injector.AdvanceServiceSlice();
  injector.AdvanceServiceSlice();
  EXPECT_EQ(injector.service_slice(), 3u);
  VirtualClock c3;
  ASSERT_TRUE(faulty.Invoke(q, &c3).ok());
  EXPECT_LT(c3.now() - TimePoint::Epoch(), baseline * 2.0);
  EXPECT_EQ(injector.stats().brownouts, 1u);
}

TEST(BrownoutFaultTest, ProbabilisticBrownoutsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    service::SyntheticService inner("svc", Duration::Seconds(23), 64);
    fault::FaultPlan plan;
    plan.seed = seed;
    plan.brownout_p = 0.3;
    fault::FaultInjector injector(plan);
    fault::FaultyService faulty(&inner, &injector, Duration::Seconds(5));
    VirtualClock clock;
    for (int i = 0; i < 100; ++i) {
      (void)faulty.Invoke({0.0, 0.0, 0.0}, &clock);
    }
    return injector.stats().brownouts;
  };
  const std::uint64_t a = run(0xfeed);
  EXPECT_EQ(a, run(0xfeed));  // replayable via the seed (ECC_FAULT_SEED)
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 100u);
}

// --- Sequential coordinator: deadlines and degraded answers -----------------

struct SeqFixture {
  explicit SeqFixture(CoordinatorOptions copts = {},
                      ElasticCacheOptions extra = {},
                      fault::FaultInjector* injector = nullptr)
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
              ElasticCacheOptions o = extra;
              o.node_capacity_bytes = 256 * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              o.fault = injector;
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

// A 23 s miss against a 1 s budget: the caller is charged at most the
// budget (plus insert overhead), the overshoot is flagged, and the late
// answer still warms the cache.
TEST(CoordinatorOverloadTest, DeadlineClampsMissAndWarmsCache) {
  obs::TraceLog trace;
  CoordinatorOptions copts;
  copts.obs.trace = &trace;
  copts.overload.enabled = true;
  copts.overload.query_deadline = Duration::Seconds(1);
  copts.overload.stale_serve = false;
  SeqFixture f(copts);

  const QueryOutcome first = f.coordinator.ProcessKey(5);
  EXPECT_FALSE(first.hit);
  EXPECT_FALSE(first.shed);
  EXPECT_TRUE(first.deadline_exceeded);
  EXPECT_GE(first.latency, Duration::Millis(900));
  EXPECT_LE(first.latency, Duration::Millis(1200));
  EXPECT_EQ(f.coordinator.deadline_exceeded_count(), 1u);
  EXPECT_EQ(f.service.invocations(), 1u);

  const QueryOutcome second = f.coordinator.ProcessKey(5);
  EXPECT_TRUE(second.hit);  // the late answer was cached anyway
  EXPECT_EQ(f.service.invocations(), 1u);
  EXPECT_GE(CountEvents(trace.Events(), obs::EventKind::kDeadlineExceeded),
            1u);
}

// A budget already spent before the service gate sheds instead of
// invoking: the 23 s call never starts past the deadline.
TEST(CoordinatorOverloadTest, SpentDeadlineShedsWithoutInvoking) {
  obs::TraceLog trace;
  CoordinatorOptions copts;
  copts.obs.trace = &trace;
  copts.overload.enabled = true;
  copts.overload.query_deadline = Duration::Micros(1);
  copts.overload.stale_serve = false;
  SeqFixture f(copts);

  const QueryOutcome out = f.coordinator.ProcessKey(5);
  EXPECT_TRUE(out.shed);
  EXPECT_FALSE(out.hit);
  EXPECT_EQ(f.service.invocations(), 0u);
  EXPECT_EQ(f.coordinator.shed_count(), 1u);
  bool saw_deadline_shed = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::EventKind::kLoadShed &&
        e.a == static_cast<std::int64_t>(obs::ShedCode::kDeadline)) {
      saw_deadline_shed = true;
    }
  }
  EXPECT_TRUE(saw_deadline_shed);
}

// Regression for the replica stale-serve path: a mirror whose eviction
// ERASE was lost on the wire answers a breaker-open shed, bounded by the
// staleness budget; past the budget the same surviving copy is refused.
TEST(CoordinatorOverloadTest, BreakerShedServesStaleReplicaWithinBound) {
  obs::TraceLog trace;
  CoordinatorOptions copts;
  copts.obs.trace = &trace;
  copts.window.slices = 2;
  copts.contraction_epsilon = 0;
  copts.overload.enabled = true;
  copts.overload.breaker_enabled = true;
  copts.overload.breaker.min_samples = 1;
  copts.overload.breaker.failure_threshold = 0.5;
  copts.overload.breaker.open_cooldown = Duration::Seconds(1e6);
  copts.overload.stale_serve = true;
  copts.overload.stale_bound_slices = 1;

  ElasticCacheOptions extra;
  extra.replicas = 2;

  // Drop every EraseRequest after the first: the primary eviction lands,
  // the mirror ERASE (response already fire-and-forget) is lost entirely.
  fault::FaultPlan plan;
  plan.calls.push_back({fault::kAnyEndpoint, net::MsgType::kEraseRequest,
                        /*any_type=*/false, /*after_matching=*/1,
                        /*count=*/1000, net::CallFaultKind::kDropRequest,
                        {}});
  fault::FaultInjector injector(plan);
  SeqFixture f(copts, extra, &injector);

  // Cache (and mirror) the key, then age it out of the window.
  EXPECT_FALSE(f.coordinator.ProcessKey(5).hit);
  std::size_t evicted = 0;
  for (int i = 0; i < 6 && evicted == 0; ++i) {
    evicted = f.coordinator.EndTimeStep().evicted;
  }
  ASSERT_EQ(evicted, 1u);  // the primary was erased...
  EXPECT_GT(injector.stats().requests_dropped, 0u);  // ...the mirror not
  EXPECT_FALSE(f.cache.Get(5).ok());  // a normal read misses regardless

  // Service sick: one failure with min_samples=1 opens the breaker.
  ASSERT_NE(f.coordinator.breaker(), nullptr);
  f.coordinator.breaker()->RecordFailure(f.clock.now());
  ASSERT_EQ(f.coordinator.breaker()->state(), BreakerState::kOpen);

  const QueryOutcome degraded = f.coordinator.ProcessKey(5);
  EXPECT_TRUE(degraded.stale);
  EXPECT_FALSE(degraded.shed);
  EXPECT_FALSE(degraded.hit);
  EXPECT_EQ(f.service.invocations(), 1u);  // the 23 s call never re-ran
  EXPECT_EQ(f.coordinator.stale_serves(), 1u);
  bool saw_replica_stale = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::EventKind::kStaleServe &&
        e.a == static_cast<std::int64_t>(obs::StaleSource::kReplica)) {
      saw_replica_stale = true;
      EXPECT_LE(e.b, 1);  // age within the bound
    }
  }
  EXPECT_TRUE(saw_replica_stale);
  obs::MaybeDumpTraceFromEnv(trace);  // CI schema validation hook

  // Push the copy past the staleness bound: the mirror still exists (all
  // its ERASEs were dropped), but with its eviction record pruned the
  // degraded answer must be refused — staleness has to be provable.
  for (int i = 0; i < 6; ++i) {
    (void)f.coordinator.EndTimeStep();
  }
  const QueryOutcome refused = f.coordinator.ProcessKey(5);
  EXPECT_TRUE(refused.shed);
  EXPECT_FALSE(refused.stale);
  EXPECT_EQ(f.service.invocations(), 1u);
}

TEST(CoordinatorOverloadTest, GetStaleProbesSpillTierUnderSingleReplica) {
  // Regression: with replicas == 1 there is no mirror tier, but a spilled
  // copy is still a legitimate degraded answer.  GetStale used to refuse
  // single-copy fleets unconditionally ("no replica tier") even with a
  // spill store attached.
  ElasticCacheOptions extra;
  extra.replicas = 1;
  SeqFixture f({}, extra);
  cloudsim::PersistentStore spill({}, &f.clock);

  // Without a spill store the refusal stands.
  EXPECT_EQ(f.cache.GetStale(7).status().code(), StatusCode::kNotFound);

  f.coordinator.AttachSpillStore(&spill);  // forwards to the cache tier
  spill.Put(7, "spilled-value");
  auto stale = f.cache.GetStale(7);
  ASSERT_TRUE(stale.ok());
  EXPECT_EQ(*stale, "spilled-value");
  // An object the spill tier never held is still a miss.
  EXPECT_FALSE(f.cache.GetStale(8).ok());
}

// --- Eight workers: miss storms against the admission queue ----------------

/// Sleeps in real time inside Invoke so a storm genuinely overlaps the
/// in-service leader, then charges the usual 23 s of virtual time.
class SleepingService final : public service::Service {
 public:
  explicit SleepingService(std::chrono::milliseconds sleep) : sleep_(sleep) {}

  [[nodiscard]] const std::string& name() const override { return name_; }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& /*q*/, VirtualClock* clock) override {
    invocations_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(sleep_);
    if (clock != nullptr) clock->Advance(Duration::Seconds(23));
    service::ServiceResult r;
    r.payload = std::string(100, 'v');
    r.exec_time = Duration::Seconds(23);
    return r;
  }

  [[nodiscard]] std::uint64_t invocations() const override {
    return invocations_.load(std::memory_order_relaxed);
  }

 private:
  std::string name_ = "sleeping";
  std::atomic<std::uint64_t> invocations_{0};
  std::chrono::milliseconds sleep_;
};

struct ParFixture {
  ParFixture(std::size_t workers, service::Service* svc,
             CoordinatorOptions copts, std::size_t records_per_node = 256)
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
              o.node_capacity_bytes =
                  records_per_node * RecordSize(0, std::size_t{128});
              o.ring.range = kKeyspace;
              return o;
            }(),
            &provider, &clock),
        striped(&cache, /*stripes=*/8),
        linearizer(Grid()),
        coordinator(
            [&] {
              copts.workers = workers;
              return copts;
            }(),
            &striped, svc, &linearizer) {}

  VirtualClock clock;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  StripedBackend striped;
  sfc::Linearizer linearizer;
  Coordinator coordinator;
};

/// Launch one query per worker on distinct keys, all released together.
std::vector<QueryOutcome> Storm(ParFixture& f, std::size_t threads, Key base) {
  std::vector<QueryOutcome> results(threads);
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    pool.emplace_back([&f, &results, &go, base, i] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      results[i] = f.coordinator.ProcessKey(base + i, i);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : pool) t.join();
  return results;
}

// A saturating miss storm against a reject-new queue of 2: the pending
// depth never exceeds the limit and every refusal is a distinct, traced
// Shed outcome (not an error, not a silent drop).
TEST(ParallelOverloadTest, MissStormBoundsQueueAndAccountsSheds) {
  constexpr std::size_t kThreads = 8;
  obs::TraceLog trace;
  SleepingService slow(std::chrono::milliseconds(250));
  CoordinatorOptions copts;
  copts.obs.trace = &trace;
  copts.overload.enabled = true;
  copts.overload.admission.queue_limit = 2;
  copts.overload.admission.policy = AdmissionPolicy::kRejectNew;
  copts.overload.stale_serve = false;
  ParFixture f(kThreads, &slow, copts);

  const std::vector<QueryOutcome> results = Storm(f, kThreads, /*base=*/200);

  std::size_t misses = 0, sheds = 0;
  for (const QueryOutcome& r : results) {
    if (!r.hit && !r.coalesced && !r.shed && !r.stale) ++misses;
    if (r.shed) ++sheds;
  }
  EXPECT_EQ(misses, 2u);  // the two admitted leaders
  EXPECT_EQ(sheds, kThreads - 2);
  EXPECT_EQ(slow.invocations(), 2u);
  EXPECT_EQ(f.coordinator.shed_count(), kThreads - 2);

  ASSERT_NE(f.coordinator.admission(), nullptr);
  const overload::AdmissionStats stats = f.coordinator.admission()->stats();
  EXPECT_LE(stats.peak_depth, 2u);  // the bound the queue exists for
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.rejected, kThreads - 2);

  const std::vector<obs::TraceEvent> events = trace.Events();
  EXPECT_EQ(CountEvents(events, obs::EventKind::kLoadShed), kThreads - 2);
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::EventKind::kLoadShed) {
      EXPECT_EQ(e.a, static_cast<std::int64_t>(obs::ShedCode::kQueueFull));
    }
  }
}

// Under drop-oldest the storm still stays bounded, but the verdicts
// differ: newcomers revoke the oldest waiter, which sheds as kDropped when
// it finally reaches the service mutex.
TEST(ParallelOverloadTest, MissStormDropOldestRevokesWaiters) {
  constexpr std::size_t kThreads = 8;
  obs::TraceLog trace;
  SleepingService slow(std::chrono::milliseconds(250));
  CoordinatorOptions copts;
  copts.obs.trace = &trace;
  copts.overload.enabled = true;
  copts.overload.admission.queue_limit = 2;
  copts.overload.admission.policy = AdmissionPolicy::kDropOldest;
  copts.overload.stale_serve = false;
  ParFixture f(kThreads, &slow, copts);

  const std::vector<QueryOutcome> results = Storm(f, kThreads, /*base=*/300);

  std::size_t misses = 0, sheds = 0;
  for (const QueryOutcome& r : results) {
    if (!r.hit && !r.coalesced && !r.shed && !r.stale) ++misses;
    if (r.shed) ++sheds;
  }
  EXPECT_EQ(misses + sheds, kThreads);
  EXPECT_EQ(misses, 2u);  // first leader + the last surviving waiter
  EXPECT_EQ(f.coordinator.shed_count(), sheds);

  ASSERT_NE(f.coordinator.admission(), nullptr);
  const overload::AdmissionStats stats = f.coordinator.admission()->stats();
  EXPECT_LE(stats.peak_depth, 2u);
  EXPECT_GE(stats.dropped, 1u);  // freshest-wins revocation happened

  bool saw_dropped = false;
  for (const obs::TraceEvent& e : trace.Events()) {
    if (e.kind == obs::EventKind::kLoadShed &&
        e.a == static_cast<std::int64_t>(obs::ShedCode::kDropped)) {
      saw_dropped = true;
    }
  }
  EXPECT_TRUE(saw_dropped);
}

// --- The acceptance scenario ------------------------------------------------

// A seeded, scripted brownout (service latency x10 for a sustained window)
// against the full protection stack on 8 worker threads:
//   - every query lands within deadline + one RPC attempt timeout,
//   - the pending-miss queue depth stays bounded,
//   - the breaker is observed in all three states via trace events,
//   - with the breaker open, the spilled warm set is answered from the
//     spill tier without invoking the service.
TEST(OverloadScenarioTest, BrownoutStormShedsBoundedAndRecovers) {
  constexpr std::size_t kWorkers = 8;
  obs::TraceLog trace;
  service::SyntheticService synthetic("svc", Duration::Seconds(23), 100);
  fault::FaultPlan plan;
  plan.seed = fault::FaultSeedFromEnv(11);  // replayable via ECC_FAULT_SEED
  plan.brownouts.push_back({/*from_slice=*/1, /*slices=*/6,
                            /*latency_multiplier=*/10.0});
  fault::FaultInjector injector(plan);
  fault::FaultyService faulty(&synthetic, &injector, Duration::Seconds(5));

  CoordinatorOptions copts;
  copts.window.slices = 2;
  copts.contraction_epsilon = 0;
  copts.obs.trace = &trace;
  auto& ov = copts.overload;
  ov.enabled = true;
  ov.query_deadline = Duration::Seconds(60);
  ov.admission.queue_limit = 4;
  ov.admission.policy = AdmissionPolicy::kRejectNew;
  ov.breaker_enabled = true;
  ov.breaker.window = Duration::Seconds(50);
  ov.breaker.min_samples = 2;
  ov.breaker.failure_threshold = 0.5;
  ov.breaker.open_cooldown = Duration::Seconds(30);
  ov.breaker.half_open_probes = 1;
  ov.breaker.half_open_successes = 1;
  ov.breaker.slow_call_threshold = Duration::Seconds(100);
  ov.stale_serve = true;
  ov.stale_bound_slices = 4;

  ParFixture f(kWorkers, &faulty, copts, /*records_per_node=*/4096);
  cloudsim::PersistentStore spill({}, &f.clock);
  f.coordinator.AttachSpillStore(&spill);

  // Step 0 (healthy): warm a working set serially through worker 0.
  std::vector<Key> warm;
  for (Key k = 0; k < 16; ++k) {
    warm.push_back(k);
    const QueryOutcome out = f.coordinator.ProcessKey(k, 0);
    EXPECT_FALSE(out.hit || out.coalesced || out.shed || out.stale);
  }
  (void)f.coordinator.EndTimeStep();
  injector.AdvanceServiceSlice();  // slice 1: the brownout begins

  // Step 1: a cold-key storm into the browned-out service.  Leaders that
  // reach the service are clamped at the deadline; their 230 s true cost
  // feeds slow-call accounting and trips the breaker.
  std::vector<Key> storm;
  for (Key k = 100; k < 116; ++k) storm.push_back(k);
  (void)f.coordinator.RunKeys(storm);
  EXPECT_GE(f.coordinator.deadline_exceeded_count(), 1u);
  EXPECT_GE(f.coordinator.breaker()->stats().opens, 1u);
  (void)f.coordinator.EndTimeStep();
  injector.AdvanceServiceSlice();  // slice 2

  // Age the warm set into the spill tier (decay eviction).
  for (int i = 0; i < 4 && f.coordinator.spill_puts() < warm.size(); ++i) {
    (void)f.coordinator.EndTimeStep();
    injector.AdvanceServiceSlice();
  }
  ASSERT_GE(f.coordinator.spill_puts(), warm.size());
  ASSERT_LT(injector.service_slice(), 7u);  // still inside the brownout

  // Re-query the (now spilled) warm set while the breaker guards the sick
  // service: misses reheat from the spill tier before the overload gate,
  // so the service is not invoked.
  const std::uint64_t attempts = faulty.attempts();
  (void)f.coordinator.RunKeys(warm);
  EXPECT_GE(f.coordinator.spill_hits(), 1u);
  EXPECT_EQ(faulty.attempts(), attempts);
  (void)f.coordinator.EndTimeStep();
  while (injector.service_slice() < 7) {
    injector.AdvanceServiceSlice();  // brownout over; service healthy
  }

  // Recovery: shed queries keep advancing worker 0's clock until the
  // cooldown elapses; the half-open probe hits the healthy service and
  // closes the breaker.
  CircuitBreaker* breaker = f.coordinator.breaker();
  ASSERT_NE(breaker, nullptr);
  int spent = 0;
  while (breaker->state() != BreakerState::kClosed && spent < 1000) {
    (void)f.coordinator.ProcessKey(static_cast<Key>(1000 + spent), 0);
    ++spent;
  }
  EXPECT_EQ(breaker->state(), BreakerState::kClosed);

  // -- The acceptance gates. --
  // Queue depth stayed bounded.
  ASSERT_NE(f.coordinator.admission(), nullptr);
  EXPECT_LE(f.coordinator.admission()->stats().peak_depth, 4u);
  EXPECT_GE(f.coordinator.admission()->stats().peak_depth, 1u);

  // Every query landed within deadline + one RPC attempt timeout (50 ms).
  const Histogram merged = f.coordinator.MergedLatency();
  const Duration bound =
      ov.query_deadline + net::RetryPolicy{}.attempt_timeout;
  EXPECT_LE(merged.max(), static_cast<double>(bound.micros()));

  // All three breaker states appear in the trace and sheds are fully
  // accounted.
  bool to_open = false, to_half_open = false, to_closed = false;
  std::size_t shed_events = 0;
  for (const obs::TraceEvent& e : trace.Events()) {
    switch (e.kind) {
      case obs::EventKind::kBreaker:
        to_open |= e.b == static_cast<std::int64_t>(
                              obs::BreakerStateCode::kOpen);
        to_half_open |= e.b == static_cast<std::int64_t>(
                                   obs::BreakerStateCode::kHalfOpen);
        to_closed |= e.b == static_cast<std::int64_t>(
                                obs::BreakerStateCode::kClosed);
        break;
      case obs::EventKind::kLoadShed:
        ++shed_events;
        break;
      case obs::EventKind::kStaleServe:
        EXPECT_LE(e.b, static_cast<std::int64_t>(ov.stale_bound_slices));
        break;
      default:
        break;
    }
  }
  EXPECT_TRUE(to_open);
  EXPECT_TRUE(to_half_open);
  EXPECT_TRUE(to_closed);
  EXPECT_EQ(shed_events,
            f.coordinator.shed_count() + f.coordinator.stale_serves());
  obs::MaybeDumpTraceFromEnv(trace);  // CI schema validation hook
}

}  // namespace
}  // namespace ecc::core
