// Coordinator: the query front end of the system (paper §IV.A).
//
// "Queries are first sent to a coordinating compute node, and the
// underlying cooperating cache is then searched on the input key to find a
// replica of the precomputed results.  Upon a hit, the results are
// transmitted directly back to the caller, whereas a miss would prompt the
// coordinator to invoke the shoreline extraction service."
//
// The coordinator also hosts the *global* elasticity machinery: the sliding
// window records every queried key; when a time slice ends it expires old
// keys (decay eviction), and every epsilon expirations it asks the backend
// to attempt a contraction merge.  Both decisions — plus miss admission and
// warm-pool pre-provisioning — are delegated to a pluggable
// policy::ElasticityPolicy (DESIGN.md §13); the default reproduces the
// paper rule exactly.
//
// Workers and clocks (DESIGN.md §7).  Built with a clock, the coordinator
// runs one worker on it, and the backend charges that clock for every
// probe: the paper's sequential accounting, which its figures depend on.
// Built without one, it runs opts.workers workers, each on a private
// VirtualClock that it charges the modelled costs itself — one shared clock
// cannot express "eight workers each spent 23 s concurrently".  A batch's
// virtual makespan is then the furthest worker clock, as wall time would be
// with one core per worker.  Concurrent misses on one key elect a single
// leader (single flight): it invokes the service once, while the followers
// wait for it and count as coalesced.
//
// Lock order: the window, policy, flight and staleness mutexes are leaves.
// The service mutex is held across Service::Invoke and the admission
// queue's StartService.  Backend and spill-store locks are taken while
// holding none of ours.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloudsim/persistent_store.h"
#include "cloudsim/provider.h"
#include "common/histogram.h"
#include "common/status.h"
#include "common/threadpool.h"
#include "common/time.h"
#include "core/backend.h"
#include "core/dynamic_window.h"
#include "core/maintenance.h"
#include "core/sliding_window.h"
#include "core/types.h"
#include "fronttier/front_cache.h"
#include "obs/obs.h"
#include "overload/admission.h"
#include "overload/breaker.h"
#include "overload/overload.h"
#include "policy/policy.h"
#include "service/service.h"
#include "sfc/linearizer.h"

namespace ecc::core {

/// Virtual cost a private-clock worker charges itself per cache probe or
/// insert (dispatch + B+-Tree op; twice ElasticCacheOptions::local_op_time).
inline constexpr Duration kLookupCost = Duration::Micros(40);

struct CoordinatorOptions {
  SlidingWindowOptions window;
  /// Attempt contraction every this many slice expirations (paper's
  /// epsilon).  0 disables contraction.
  std::size_t contraction_epsilon = 5;
  /// Enable the dynamic-window extension.
  bool dynamic_window = false;
  DynamicWindowOptions dynamic;
  /// Workers of a coordinator built without a clock (0 counts as 1).  One
  /// built with a clock runs exactly one.
  std::size_t workers = 1;
  /// Observability sinks (none owned, all optional).  obs.metrics receives
  /// coordinator.{queries,hits,coalesced,misses}; obs.trace gets a query
  /// start/end event pair per ProcessKey, stamped from the serving worker's
  /// clock; obs.telemetry is fed one fleet sample per EndTimeStep from the
  /// backend's NodeLoads().
  obs::Observability obs;
  /// Overload protection (deadlines, admission control, breaker, stale
  /// serving); disabled by default and zero-cost when off (DESIGN.md §10).
  overload::OverloadOptions overload;
  /// Front-tier hot-key cache (DESIGN.md §12): one private FrontCache per
  /// worker, all validating against one atomics-only InvalidationHub.  The
  /// backend must support AttachInvalidationHub (ElasticCache, StaticCache,
  /// or a wrapper over one).  front.hub may name a shared external hub;
  /// otherwise the coordinator owns one and attaches it to the backend.
  fronttier::FrontTierOptions front;
  /// Elasticity policy consulted per query (OnQuery/AdmitOnMiss, under one
  /// mutex) and per EndTimeStep (SelectEvictions/ShouldContract/
  /// PrewarmTarget).  Not owned; nullptr means the coordinator owns a
  /// PaperBaselinePolicy built from contraction_epsilon.
  policy::ElasticityPolicy* policy = nullptr;
  /// Cloud provider backing the fleet (not owned, optional).  Feeds the
  /// policy's cost context (billing snapshot per boundary) and receives
  /// PrewarmTarget() launches; without it the context's cost fields stay
  /// zero and prewarm decisions are dropped.
  cloudsim::CloudProvider* provider = nullptr;
};

/// End-to-end result of one query.
struct QueryOutcome {
  bool hit = false;
  /// Joined another worker's in-flight miss; no service call of its own.
  bool coalesced = false;
  /// Refused under overload with no answer at all (deadline spent, breaker
  /// open, admission queue full or ticket dropped).
  bool shed = false;
  /// Answered from a degraded source (mirror replica) while the service
  /// was protected; `hit` stays false.
  bool stale = false;
  /// The service answered, but past this query's deadline (the charge to
  /// the clock was clamped to the deadline; see DESIGN.md §10).
  bool deadline_exceeded = false;
  Duration latency;  ///< virtual time on the serving worker's clock
};

/// What happened when a time step closed.
struct TimeStepReport {
  std::size_t step_queries = 0;
  std::size_t step_hits = 0;  ///< hits + coalesced (no service work)
  std::size_t step_misses = 0;
  Duration step_query_time;
  std::size_t evicted = 0;        ///< records evicted by the expired slice
  std::size_t spilled = 0;        ///< of those, written to the spill tier
  bool contracted = false;        ///< a node merge happened
  std::size_t window_slices = 0;  ///< current window length (dynamic mode)
};

/// Per-worker slice of a batch, for throughput-vs-workers reporting.
struct WorkerReport {
  std::size_t worker = 0;
  std::uint64_t queries = 0;
  Duration busy;      ///< virtual time this worker spent in the batch
  double p50_us = 0;  ///< cumulative latency percentiles (all batches)
  double p99_us = 0;
};

struct BatchReport {
  std::size_t queries = 0;
  std::size_t hits = 0;
  std::size_t coalesced = 0;  ///< misses absorbed by single flight
  std::size_t misses = 0;     ///< led: service call (even failed) or reheat
  std::size_t shed = 0;       ///< refused under overload, unanswered
  std::size_t stale = 0;      ///< answered from a degraded source
  std::uint64_t service_invocations = 0;  ///< service delta over the batch
  /// Max per-worker busy time: the batch's virtual wall time given one
  /// core per worker.
  Duration makespan;
  Duration total_query_time;  ///< sum of per-worker busy times
  std::vector<WorkerReport> workers;

  [[nodiscard]] double QueriesPerSecond() const {
    const double s = makespan.seconds();
    return s <= 0.0 ? 0.0 : static_cast<double>(queries) / s;
  }
};

class Coordinator {
 public:
  /// None of the pointers are owned.  `linearizer` maps keys back to cell
  /// representatives for service invocation.  With `clock`, one worker runs
  /// on it (opts.workers must be at most 1); without, opts.workers workers
  /// run on private clocks, and `cache` must be thread-safe when there is
  /// more than one (StripedBackend).
  Coordinator(CoordinatorOptions opts, CacheBackend* cache,
              service::Service* service, const sfc::Linearizer* linearizer,
              VirtualClock* clock = nullptr);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Process one query by key on worker `worker` (< workers()): cache
  /// lookup, on a miss reheat from the spill tier or invoke the service and
  /// insert the result.  Thread-safe across workers, but each worker index
  /// must be driven by at most one thread at a time.
  QueryOutcome ProcessKey(Key k, std::size_t worker = 0);

  /// Process by continuous coordinates (the public-facing entry point).
  StatusOr<QueryOutcome> ProcessQuery(const sfc::GeoTemporalQuery& q,
                                      std::size_t worker = 0);

  /// Serve `keys` and block until every query is answered.  Worker i serves
  /// keys i, i+N, ... (N = workers()); worker 0 runs on the calling thread
  /// and the others on a pool of N - 1 threads.  Striding keeps each
  /// worker's virtual accounting independent of OS scheduling.
  BatchReport RunKeys(const std::vector<Key>& keys);

  /// Close the current time step: advance the sliding window, apply decay
  /// eviction (spilling evicted records if a spill tier is attached), and
  /// (every epsilon expirations) attempt contraction.  Call with no query
  /// in flight.
  TimeStepReport EndTimeStep();

  /// Attach an S3-like second tier (paper §IV.D): decay-evicted records
  /// spill there instead of vanishing, and misses reheat from it before
  /// falling back to the 23 s service.  Also forwarded to the backend, so
  /// single-copy fleets can answer stale probes from the spilled copy and
  /// crash reports can count spill-salvageable records.  Not owned; nullptr
  /// detaches.  Attach with no query in flight.
  void AttachSpillStore(cloudsim::PersistentStore* store);

  /// Attach a background maintenance task (failure detection, recovery,
  /// anti-entropy scrub — see src/recovery/).  Ticked once per EndTimeStep,
  /// at the quiesced slice boundary.  Not owned; nullptr detaches.
  void AttachMaintenance(MaintenanceTask* task) { maintenance_ = task; }

  [[nodiscard]] std::size_t workers() const { return workers_.size(); }
  /// The window, the policy and the front caches are safe to inspect only
  /// while no query is in flight.
  [[nodiscard]] const SlidingWindow& window() const { return window_; }
  [[nodiscard]] CacheBackend& cache() { return *cache_; }
  /// The active elasticity policy (the owned baseline when none was
  /// supplied).
  [[nodiscard]] policy::ElasticityPolicy& policy() { return *policy_; }
  /// Worker `i`'s front cache; nullptr unless opts.front.enabled.
  [[nodiscard]] const fronttier::FrontCache* front(std::size_t i = 0) const {
    return workers_[i].front.get();
  }

  // Cumulative counters, summed over workers; safe to read any time.
  [[nodiscard]] std::uint64_t total_queries() const {
    return Sum(&Worker::queries);
  }
  [[nodiscard]] std::uint64_t total_hits() const { return Sum(&Worker::hits); }
  /// Misses that joined an in-flight computation (counted at registration,
  /// before the wait completes).
  [[nodiscard]] std::uint64_t coalesced_hits() const {
    return Sum(&Worker::coalesced);
  }
  /// Misses this coordinator led: a service call (failed ones included) or a
  /// reheat from the spill tier.
  [[nodiscard]] std::uint64_t total_misses() const {
    return Sum(&Worker::misses);
  }
  /// Queries answered by the front tier (a subset of total_hits()).
  [[nodiscard]] std::uint64_t front_hits() const {
    return Sum(&Worker::front_hits);
  }
  [[nodiscard]] Duration total_query_time() const;
  /// Misses answered from the spill tier (no service invocation).
  [[nodiscard]] std::uint64_t spill_hits() const {
    return Sum(&Worker::spill_hits);
  }
  /// Service invocations that failed.  Nothing is cached, and followers of
  /// the failed flight stay coalesced without being charged its cost, so
  /// the key's next query invokes the service again.
  [[nodiscard]] std::uint64_t service_failures() const {
    return Sum(&Worker::service_failures);
  }
  /// Miss results the policy refused to cache.
  [[nodiscard]] std::uint64_t admit_denials() const {
    return Sum(&Worker::admit_denials);
  }
  // Written at the quiesced boundary.
  [[nodiscard]] std::uint64_t spill_puts() const { return spill_puts_; }
  [[nodiscard]] std::uint64_t prewarm_launches() const {
    return prewarm_launches_;
  }

  // --- Overload protection ------------------------------------------------

  /// Shed queries left unanswered (a stale answer counts in stale_serves()).
  [[nodiscard]] std::uint64_t shed_count() const { return Sum(&Worker::shed); }
  [[nodiscard]] std::uint64_t stale_serves() const {
    return Sum(&Worker::stale);
  }
  [[nodiscard]] std::uint64_t deadline_exceeded_count() const {
    return Sum(&Worker::deadline_exceeded);
  }
  /// nullptr unless overload.enabled && overload.breaker_enabled.
  [[nodiscard]] overload::CircuitBreaker* breaker() { return breaker_.get(); }
  /// nullptr unless overload.enabled && admission.queue_limit > 0.
  [[nodiscard]] overload::AdmissionQueue* admission() {
    return admission_.get();
  }

  /// Worker `i`'s clock (on a private clock, its cumulative busy time).
  [[nodiscard]] TimePoint WorkerTime(std::size_t i) const {
    return workers_[i].clock->now();
  }
  /// Latency distribution merged across workers; quiesce before calling.
  [[nodiscard]] Histogram MergedLatency() const;

 private:
  struct Worker {
    VirtualClock own_clock;
    VirtualClock* clock = &own_clock;
    Histogram latency_us{1.0, 1.15};
    /// This worker's front cache (null when the tier is off); touched only
    /// by its own thread and at the quiesced boundary.
    std::unique_ptr<fronttier::FrontCache> front;
    // Written only by this worker's thread; readable from any.
    std::atomic<std::uint64_t> queries{0}, hits{0}, front_hits{0};
    std::atomic<std::uint64_t> coalesced{0}, misses{0}, shed{0}, stale{0};
    std::atomic<std::uint64_t> deadline_exceeded{0}, service_failures{0};
    std::atomic<std::uint64_t> spill_hits{0}, admit_denials{0};
    std::atomic<std::int64_t> query_time_us{0};
  };

  [[nodiscard]] std::uint64_t Sum(
      std::atomic<std::uint64_t> Worker::*counter) const;

  /// The miss path: single-flight election (more than one worker), then
  /// spill reheat, service call and insert for the leader.
  void Miss(Worker& w, Key k, const Deadline& deadline, QueryOutcome& out);
  /// Overload gate and service call.  True with `payload` set when the
  /// service answered; a refused query goes to Shed().
  bool CallService(Worker& w, Key k, const Deadline& deadline,
                   QueryOutcome& out, std::string* payload);
  /// A refused query: emit the shed, then (when configured) probe for a
  /// bounded-staleness copy.  Sets out.stale or out.shed.
  void Shed(Worker& w, Key k, obs::ShedCode reason, const Deadline& deadline,
            QueryOutcome& out);
  /// Cache a computed or reheated answer, if the policy admits it.
  void Insert(Worker& w, Key k, std::string payload);
  void ReportQuery(Key k, bool hit);

  /// True when `k` carries an eviction record within the staleness bound;
  /// writes the age in slices.  A stale copy with no record is refused —
  /// the record was pruned as too old (or never existed).
  [[nodiscard]] bool StaleWithinBound(Key k, std::uint64_t* age);

  /// The boundary's virtual now: the furthest worker clock (the shared
  /// clock when there is one).
  [[nodiscard]] TimePoint Now() const;

  /// Fleet/cost snapshot for the boundary-time policy decisions.
  [[nodiscard]] policy::PolicyContext BuildPolicyContext(
      std::size_t expired_slices, const TimeStepReport& report);

  CoordinatorOptions opts_;
  CacheBackend* cache_;
  service::Service* service_;
  const sfc::Linearizer* linearizer_;
  /// Sized at construction; a Worker is neither copied nor moved.
  std::vector<Worker> workers_;

  // What a worker charges its own clock per probe: zero on a shared clock,
  // which the backend and the spill store charge themselves.
  Duration probe_cost_;
  Duration stale_probe_cost_;
  Duration spill_probe_cost_;

  std::mutex window_mutex_;  ///< guards window_ recording
  SlidingWindow window_;
  DynamicWindowPolicy dynamic_;

  std::mutex policy_mutex_;  ///< guards the per-query policy hooks
  std::unique_ptr<policy::ElasticityPolicy> own_policy_;
  policy::ElasticityPolicy* policy_ = nullptr;
  /// Clock stamp of the previous EndTimeStep (slice duration for the
  /// policy's cost context).
  TimePoint last_boundary_;
  std::uint64_t prewarm_launches_ = 0;

  std::mutex flights_mutex_;
  std::unordered_map<Key, std::shared_future<void>> flights_;

  /// Serializes service invocations: Service implementations are
  /// single-threaded (rng, counters).  Held only by flight leaders, so
  /// coalesced traffic never queues here.
  std::mutex service_mutex_;

  cloudsim::PersistentStore* spill_ = nullptr;
  std::uint64_t spill_puts_ = 0;
  MaintenanceTask* maintenance_ = nullptr;

  // Null-safe observability handles (unregistered when no registry wired).
  obs::Counter m_queries_, m_hits_, m_coalesced_, m_misses_;
  obs::Counter m_shed_, m_stale_, m_deadline_;
  obs::Counter m_policy_evictions_, m_policy_denials_;
  obs::Counter m_policy_contracts_, m_policy_prewarms_;
  obs::Gauge g_queue_peak_;
  obs::TraceLog* trace_ = nullptr;
  obs::FleetTelemetry* telemetry_ = nullptr;
  std::size_t steps_ended_ = 0;
  /// Totals at the previous boundary, for the per-step report.
  std::uint64_t step_base_queries_ = 0;
  std::uint64_t step_base_hits_ = 0;
  Duration step_base_time_;

  // Overload protection (all null/inert when opts_.overload.enabled is
  // false).
  std::unique_ptr<overload::CircuitBreaker> breaker_;
  std::unique_ptr<overload::AdmissionQueue> admission_;
  std::mutex stale_mutex_;  ///< guards evicted_at_
  /// Key -> steps_ended_ at decay eviction; bounds the staleness of
  /// degraded answers.  Pruned past the stale bound each EndTimeStep.
  std::unordered_map<Key, std::size_t> evicted_at_;

  /// Invalidation hub when the front tier is on (owned unless opts_.front.hub
  /// supplied an external one).
  std::unique_ptr<fronttier::InvalidationHub> own_hub_;

  /// workers() - 1 threads, or none.  Last, so its threads are joined
  /// before anything they use is destroyed.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ecc::core
