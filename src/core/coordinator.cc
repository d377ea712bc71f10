#include "core/coordinator.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <utility>

#include "cloudsim/billing.h"
#include "common/log.h"

namespace ecc::core {

namespace {

void Inc(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions opts, CacheBackend* cache,
                         service::Service* service,
                         const sfc::Linearizer* linearizer,
                         VirtualClock* clock)
    : opts_(opts),
      cache_(cache),
      service_(service),
      linearizer_(linearizer),
      workers_(clock != nullptr ? 1 : std::max<std::size_t>(opts.workers, 1)),
      window_(opts.window),
      dynamic_(opts.dynamic) {
  assert(cache != nullptr && service != nullptr && linearizer != nullptr);
  assert((clock == nullptr || opts.workers <= 1) &&
         "a shared clock serves exactly one worker");
  if (clock != nullptr) {
    workers_[0].clock = clock;
  } else {
    probe_cost_ = kLookupCost;
    stale_probe_cost_ = opts_.overload.stale_probe_cost;
  }
  if (workers_.size() > 1) {
    pool_ = std::make_unique<ThreadPool>(workers_.size() - 1);
  }
  policy_ = opts_.policy;
  if (policy_ == nullptr) {
    own_policy_ = std::make_unique<policy::PaperBaselinePolicy>(
        opts_.contraction_epsilon);
    policy_ = own_policy_.get();
  }
  last_boundary_ = Now();
  m_queries_ = opts_.obs.MakeCounter("coordinator.queries");
  m_hits_ = opts_.obs.MakeCounter("coordinator.hits");
  m_coalesced_ = opts_.obs.MakeCounter("coordinator.coalesced");
  m_misses_ = opts_.obs.MakeCounter("coordinator.misses");
  m_policy_evictions_ = opts_.obs.MakeCounter("policy.evictions");
  m_policy_denials_ = opts_.obs.MakeCounter("policy.admit_denials");
  m_policy_contracts_ = opts_.obs.MakeCounter("policy.contract_signals");
  m_policy_prewarms_ = opts_.obs.MakeCounter("policy.prewarm_launches");
  trace_ = opts_.obs.trace;
  telemetry_ = opts_.obs.telemetry;
  if (opts_.overload.enabled) {
    m_shed_ = opts_.obs.MakeCounter("overload.shed");
    m_stale_ = opts_.obs.MakeCounter("overload.stale_serves");
    m_deadline_ = opts_.obs.MakeCounter("overload.deadline_exceeded");
    if (opts_.obs.metrics != nullptr) {
      g_queue_peak_ = opts_.obs.metrics->GetGauge("overload.queue_peak");
    }
    if (opts_.overload.breaker_enabled) {
      breaker_ = std::make_unique<overload::CircuitBreaker>(
          opts_.overload.breaker, trace_);
      breaker_->BindMetrics(
          opts_.obs.MakeCounter("overload.breaker_opens"),
          opts_.obs.MakeCounter("overload.breaker_rejections"));
    }
    if (opts_.overload.admission.queue_limit > 0) {
      admission_ =
          std::make_unique<overload::AdmissionQueue>(opts_.overload.admission);
    }
  }
  if (opts_.front.enabled) {
    fronttier::InvalidationHub* hub = opts_.front.hub;
    if (hub == nullptr) {
      own_hub_ = std::make_unique<fronttier::InvalidationHub>();
      hub = own_hub_.get();
    }
    // Several coordinators sharing one backend must share one hub (pass it
    // via opts.front.hub); attaching here is then idempotent.
    cache_->AttachInvalidationHub(hub);
    // One private front cache per worker: the hot path takes no shared
    // lock, only atomic loads from the hub.  All of them register the same
    // fronttier.* counter names, so the registry cells aggregate.
    for (Worker& w : workers_) {
      w.front =
          std::make_unique<fronttier::FrontCache>(opts_.front, hub, opts_.obs);
    }
  }
}

void Coordinator::AttachSpillStore(cloudsim::PersistentStore* store) {
  spill_ = store;
  // A worker that charges its own probes also charges its spill probes.
  spill_probe_cost_ = store != nullptr && probe_cost_ > Duration::Zero()
                          ? store->get_latency()
                          : Duration::Zero();
  cache_->AttachSpillStore(store);
}

QueryOutcome Coordinator::ProcessKey(Key k, std::size_t worker) {
  assert(worker < workers_.size());
  Worker& w = workers_[worker];
  VirtualClock& clock = *w.clock;
  const TimePoint start = clock.now();
  {
    const std::lock_guard<std::mutex> g(window_mutex_);
    window_.RecordQuery(k);
  }
  Inc(w.queries);
  m_queries_.Inc();
  obs::Emit(trace_, obs::QueryStartEvent(start, k));

  const overload::OverloadOptions& ov = opts_.overload;
  Deadline deadline;
  if (ov.enabled && ov.query_deadline > Duration::Zero()) {
    deadline = Deadline{&clock, start + ov.query_deadline};
  }
  // Layers below (RPC retry inside the backend) read the thread-local.
  const overload::ScopedDeadline scope(deadline);

  // Front tier: answer the hottest keys from worker-local memory, skipping
  // the backend probe and its stripe lock.  On a front miss, capture the
  // freshness stamp BEFORE the backend read — Offer() re-validates it at
  // admission, which is what bounds front staleness (DESIGN.md §12).
  QueryOutcome out;
  fronttier::Stamp pre_read{};
  if (w.front != nullptr) {
    if (w.front->Find(k, clock.now()).value != nullptr) {
      clock.Advance(opts_.front.hit_cost);
      out.hit = true;
      Inc(w.front_hits);
    } else {
      pre_read = w.front->PreReadStamp(k);
    }
  }
  if (!out.hit) {
    clock.Advance(probe_cost_);
    auto cached = cache_->Get(k);
    if (cached.ok()) {
      out.hit = true;
      // Hit-path admission only: the value just read is provably consistent
      // with the stamp taken above (miss-path values are not — their own
      // Put moves the version).
      if (w.front != nullptr) {
        (void)w.front->Offer(k, *cached, pre_read, clock.now());
      }
    }
  }
  if (out.hit) {
    ReportQuery(k, true);
  } else {
    Miss(w, k, deadline, out);
  }

  out.latency = clock.now() - start;
  w.latency_us.Add(static_cast<double>(out.latency.micros()));
  w.query_time_us.fetch_add(out.latency.micros(), std::memory_order_relaxed);
  obs::QueryOutcomeKind kind = obs::QueryOutcomeKind::kMiss;
  if (out.hit) {
    Inc(w.hits);
    m_hits_.Inc();
    kind = obs::QueryOutcomeKind::kHit;
  } else if (out.coalesced) {
    m_coalesced_.Inc();  // the worker tally counted it at registration
    kind = obs::QueryOutcomeKind::kCoalesced;
  } else if (out.stale) {
    Inc(w.stale);
    m_stale_.Inc();
    kind = obs::QueryOutcomeKind::kStale;
  } else if (out.shed) {
    Inc(w.shed);
    m_shed_.Inc();
    kind = obs::QueryOutcomeKind::kShed;
  } else {
    Inc(w.misses);
    m_misses_.Inc();
  }
  obs::Emit(trace_, obs::QueryEndEvent(clock.now(), k, kind, out.latency));
  return out;
}

void Coordinator::Miss(Worker& w, Key k, const Deadline& deadline,
                       QueryOutcome& out) {
  // Single flight: concurrent misses on one key elect one leader.  With
  // one worker there is nobody to coalesce with, so no election.
  std::optional<std::promise<void>> landed;
  if (workers_.size() > 1) {
    std::shared_future<void> flight;
    {
      const std::lock_guard<std::mutex> g(flights_mutex_);
      const auto [it, leader] = flights_.try_emplace(k);
      if (leader) {
        it->second = landed.emplace().get_future().share();
      } else {
        flight = it->second;
      }
    }
    if (flight.valid()) {
      // Follower: block (in real time) until the leader lands.  In virtual
      // time it is a hit in flight — it paid its probe, and the leader's
      // clock carries the service work.  A failed or shed flight caches
      // nothing, so the key's next query elects a fresh leader.
      Inc(w.coalesced);
      out.coalesced = true;
      ReportQuery(k, false);
      flight.wait();
      return;
    }
    // The previous flight may have landed between our probe and the
    // election; without this re-probe it would be computed twice.
    w.clock->Advance(probe_cost_);
    out.hit = cache_->Get(k).ok();
  }

  std::string payload;
  bool answered = false;
  if (!out.hit && spill_ != nullptr) {
    // Reheating from persistent storage (hundreds of ms) beats
    // recomputation (tens of s) by two orders (paper §IV.D).
    w.clock->Advance(spill_probe_cost_);
    auto spilled = spill_->Get(k);
    if (spilled.ok()) {
      payload = std::move(*spilled);
      answered = true;
      Inc(w.spill_hits);
    }
  }
  if (!out.hit && !answered) {
    answered = CallService(w, k, deadline, out, &payload);
  }
  // Before the Put lands: a concurrent hit must find the key already
  // reported (the cost-TTL tracker requires it).
  ReportQuery(k, out.hit);
  if (answered) Insert(w, k, std::move(payload));

  if (landed) {
    // Publish order matters: the value is in the cache before the flight
    // is erased, so a thread that misses the table afterwards hits.
    {
      const std::lock_guard<std::mutex> g(flights_mutex_);
      flights_.erase(k);
    }
    landed->set_value();
  }
}

bool Coordinator::CallService(Worker& w, Key k, const Deadline& deadline,
                              QueryOutcome& out, std::string* payload) {
  // Overload gates, cheapest first: a spent deadline or an open breaker
  // refuses before touching admission; the queue bounds how many leaders
  // may wait for the (serialized) service at once.  All are inert when
  // overload protection is off.
  using overload::AdmissionQueue;
  AdmissionQueue::Ticket ticket = AdmissionQueue::kRejected;
  std::optional<obs::ShedCode> refused;
  if (deadline.Expired()) {
    refused = obs::ShedCode::kDeadline;
  } else if (breaker_ != nullptr && !breaker_->Allow(w.clock->now())) {
    refused = obs::ShedCode::kBreakerOpen;
  } else if (admission_ != nullptr) {
    ticket = admission_->Enter();
    if (ticket == AdmissionQueue::kRejected) {
      refused = obs::ShedCode::kQueueFull;
    }
  }

  // Invoke on a scratch clock, then charge at most the remaining deadline
  // budget: the caller stops waiting when the budget is gone, even though
  // the (late) answer still warms the cache.
  VirtualClock scratch;
  StatusOr<service::ServiceResult> result = Status::Unavailable("not run");
  if (!refused) {
    // Leaders of different keys serialize here (real time only).
    const std::lock_guard<std::mutex> g(service_mutex_);
    if (ticket != AdmissionQueue::kRejected &&
        !admission_->StartService(ticket)) {
      // Revoked (drop-oldest) while queued for the service mutex: a newer
      // query took the slot.  A revoked ticket needs no Exit.
      refused = obs::ShedCode::kDropped;
    } else {
      result = service_->Invoke(linearizer_->CellCenter(k), &scratch);
    }
  }
  if (refused) {
    Shed(w, k, *refused, deadline, out);
    return false;
  }
  if (ticket != AdmissionQueue::kRejected) admission_->Exit(ticket);

  const Duration cost = scratch.now() - TimePoint::Epoch();
  const Duration remaining = deadline.Remaining();
  w.clock->Advance(std::min(cost, remaining));
  if (cost > remaining) {
    out.deadline_exceeded = true;
    Inc(w.deadline_exceeded);
    m_deadline_.Inc();
    obs::Emit(trace_, obs::DeadlineExceededEvent(w.clock->now(), k,
                                                 cost - remaining));
  }
  // The breaker sees the full cost, so browned-out slow calls trip it.
  if (breaker_ != nullptr) {
    breaker_->Record(w.clock->now(), result.ok(), cost);
  }
  if (!result.ok()) {
    Inc(w.service_failures);
    ECC_LOG_WARN("coordinator: service failed for key %llu: %s",
                 static_cast<unsigned long long>(k),
                 result.status().ToString().c_str());
    return false;
  }
  *payload = std::move(result->payload);
  return true;
}

void Coordinator::Shed(Worker& w, Key k, obs::ShedCode reason,
                       const Deadline& deadline, QueryOutcome& out) {
  obs::Emit(trace_, obs::LoadShedEvent(w.clock->now(), k, reason));
  if (opts_.overload.stale_serve) {
    // Degraded answer: a mirror copy whose eviction ERASE was lost may still
    // be addressable, bounded by the staleness budget.  The probe charge is
    // clamped so a shed query still lands within its deadline.
    w.clock->Advance(std::min(stale_probe_cost_, deadline.Remaining()));
    std::uint64_t age = 0;
    if (cache_->GetStale(k).ok() && StaleWithinBound(k, &age)) {
      out.stale = true;
      obs::Emit(trace_, obs::StaleServeEvent(w.clock->now(), k,
                                             obs::StaleSource::kReplica, age));
      return;
    }
  }
  out.shed = true;
}

void Coordinator::Insert(Worker& w, Key k, std::string payload) {
  // Admission gate: the caller already has the answer; the policy only
  // decides whether caching it is worth the memory (Mth-request admission
  // keeps one-hit wonders out, DESIGN.md §13.3).
  bool admit = true;
  {
    const std::lock_guard<std::mutex> g(policy_mutex_);
    admit = policy_->AdmitOnMiss(k);
  }
  if (!admit) {
    Inc(w.admit_denials);
    m_policy_denials_.Inc();
    obs::Emit(trace_, obs::PolicyDecisionEvent(
                          w.clock->now(), obs::PolicyDecisionCode::kAdmitDeny,
                          k, 0, 0));
    return;
  }
  w.clock->Advance(probe_cost_);
  // The insert is cache maintenance, not caller-visible wait: suspend the
  // query's (possibly already-expired) deadline so the late answer still
  // warms the cache instead of having its Put RPC clipped.
  const overload::ScopedDeadline unclipped{Deadline{}};
  if (const Status s = cache_->Put(k, std::move(payload)); !s.ok()) {
    ECC_LOG_WARN("coordinator: put failed for key %llu: %s",
                 static_cast<unsigned long long>(k), s.ToString().c_str());
  }
  // Re-caching makes the key fresh again for staleness accounting.
  if (opts_.overload.enabled && opts_.overload.stale_serve) {
    const std::lock_guard<std::mutex> g(stale_mutex_);
    evicted_at_.erase(k);
  }
}

void Coordinator::ReportQuery(Key k, bool hit) {
  const std::lock_guard<std::mutex> g(policy_mutex_);
  policy_->OnQuery(k, hit, steps_ended_);
}

bool Coordinator::StaleWithinBound(Key k, std::uint64_t* age) {
  // No eviction record means the staleness is unknowable: either the key
  // was never decay-evicted (then no stale copy should exist at all) or
  // the record was pruned as past the bound.  Refuse both — a degraded
  // answer is only safe with a provable age.
  const std::lock_guard<std::mutex> g(stale_mutex_);
  const auto it = evicted_at_.find(k);
  if (it == evicted_at_.end()) return false;
  *age = steps_ended_ - it->second;
  return *age <= opts_.overload.stale_bound_slices;
}

StatusOr<QueryOutcome> Coordinator::ProcessQuery(
    const sfc::GeoTemporalQuery& q, std::size_t worker) {
  auto key = linearizer_->EncodeQuery(q);
  if (!key.ok()) return key.status();
  return ProcessKey(*key, worker);
}

BatchReport Coordinator::RunKeys(const std::vector<Key>& keys) {
  const std::size_t n = workers_.size();
  BatchReport report;
  report.queries = keys.size();
  struct Before {
    TimePoint clock;
    std::uint64_t queries, hits, coalesced, misses, shed, stale;
  };
  const auto snapshot = [this](std::size_t i) {
    const Worker& w = workers_[i];
    return Before{w.clock->now(), w.queries.load(), w.hits.load(),
                  w.coalesced.load(), w.misses.load(), w.shed.load(),
                  w.stale.load()};
  };
  std::vector<Before> before;
  for (std::size_t i = 0; i < n; ++i) before.push_back(snapshot(i));
  const std::uint64_t invocations_before = service_->invocations();

  const auto serve = [this, n, &keys](std::size_t i) {
    for (std::size_t at = i; at < keys.size(); at += n) {
      (void)ProcessKey(keys[at], i);
    }
  };
  for (std::size_t i = 1; i < n; ++i) pool_->Submit([&serve, i] { serve(i); });
  serve(0);
  if (pool_ != nullptr) pool_->WaitIdle();

  for (std::size_t i = 0; i < n; ++i) {
    const Before now = snapshot(i);
    WorkerReport wr;
    wr.worker = i;
    wr.queries = now.queries - before[i].queries;
    wr.busy = now.clock - before[i].clock;
    wr.p50_us = workers_[i].latency_us.Percentile(50);
    wr.p99_us = workers_[i].latency_us.Percentile(99);
    report.hits += now.hits - before[i].hits;
    report.coalesced += now.coalesced - before[i].coalesced;
    report.misses += now.misses - before[i].misses;
    report.shed += now.shed - before[i].shed;
    report.stale += now.stale - before[i].stale;
    report.total_query_time += wr.busy;
    report.makespan = std::max(report.makespan, wr.busy);
    report.workers.push_back(wr);
  }
  report.service_invocations = service_->invocations() - invocations_before;
  return report;
}

TimePoint Coordinator::Now() const {
  TimePoint now;
  for (const Worker& w : workers_) now = std::max(now, w.clock->now());
  return now;
}

policy::PolicyContext Coordinator::BuildPolicyContext(
    std::size_t expired_slices, const TimeStepReport& report) {
  policy::PolicyContext ctx;
  ctx.step = steps_ended_;
  ctx.expired_slices = expired_slices;
  ctx.step_queries = report.step_queries;
  ctx.step_hits = report.step_hits;
  ctx.node_count = cache_->NodeCount();
  ctx.total_records = cache_->TotalRecords();
  ctx.used_bytes = cache_->TotalUsedBytes();
  ctx.capacity_bytes = cache_->TotalCapacityBytes();
  const TimePoint now = Now();
  ctx.slice_hours = (now - last_boundary_).seconds() / 3600.0;
  last_boundary_ = now;
  if (opts_.provider != nullptr) {
    ctx.live_instances = opts_.provider->LiveCount();
    ctx.warm_pool = opts_.provider->WarmPoolCount();
    const cloudsim::BillingReport bill =
        cloudsim::MakeBillingReport(*opts_.provider, now);
    ctx.accrued_usd = bill.total_usd;
    if (bill.node_hours > 0) {
      ctx.usd_per_node_hour = bill.total_usd / bill.node_hours;
    }
  }
  return ctx;
}

TimeStepReport Coordinator::EndTimeStep() {
  TimeStepReport report;
  const std::uint64_t queries = total_queries();
  const std::uint64_t hits = total_hits() + coalesced_hits();
  const Duration query_time = total_query_time();
  report.step_queries = queries - step_base_queries_;
  report.step_hits = hits - step_base_hits_;
  report.step_misses = report.step_queries - report.step_hits;
  report.step_query_time = query_time - step_base_time_;
  step_base_queries_ = queries;
  step_base_hits_ = hits;
  step_base_time_ = query_time;

  // Dynamic-window extension: observe before the slice closes.
  if (opts_.dynamic_window) {
    dynamic_.ObserveSlice(report.step_hits, report.step_misses);
    dynamic_.MaybeAdjust(window_);
  }

  const SliceExpiry expiry = window_.AdvanceSlice();
  const policy::PolicyContext ctx =
      BuildPolicyContext(expiry.expired_slices, report);
  const std::vector<Key> evict = policy_->SelectEvictions(expiry.evicted, ctx);
  if (evict.size() != expiry.evicted.size()) {
    obs::Emit(trace_,
              obs::PolicyDecisionEvent(
                  Now(), obs::PolicyDecisionCode::kEvictOverride, obs::kNoKey,
                  static_cast<std::int64_t>(evict.size()),
                  static_cast<std::int64_t>(expiry.evicted.size())));
  }
  if (!evict.empty() && opts_.overload.enabled && opts_.overload.stale_serve) {
    // Stamp eviction time: any copy that survives past this point (a
    // mirror whose ERASE was lost, a spill record) is stale from here on.
    for (const Key k : evict) evicted_at_[k] = steps_ended_;
  }
  if (!evict.empty()) {
    m_policy_evictions_.Inc(evict.size());
    if (spill_ != nullptr) {
      auto extracted = cache_->ExtractKeys(evict);
      report.evicted = extracted.size();
      for (auto& [k, v] : extracted) {
        spill_->Put(k, std::move(v));
        ++spill_puts_;
      }
      report.spilled = extracted.size();
    } else {
      report.evicted = cache_->EvictKeys(evict);
    }
  }
  if (policy_->ShouldContract(ctx)) {
    m_policy_contracts_.Inc();
    obs::Emit(trace_, obs::PolicyDecisionEvent(
                          Now(), obs::PolicyDecisionCode::kContract,
                          obs::kNoKey, 0, 0));
    report.contracted = cache_->TryContract();
  }
  if (opts_.provider != nullptr) {
    const std::size_t n = policy_->PrewarmTarget(ctx);
    if (n > 0) {
      opts_.provider->PrewarmAsync(n);
      prewarm_launches_ += n;
      m_policy_prewarms_.Inc(n);
      obs::Emit(trace_, obs::PolicyDecisionEvent(
                            Now(), obs::PolicyDecisionCode::kPrewarm,
                            obs::kNoKey, static_cast<std::int64_t>(n), 0));
    }
  }
  report.window_slices = window_.options().slices;

  // Age the front tiers' hot-set trackers in step with the sliding window.
  for (Worker& w : workers_) {
    if (w.front != nullptr) w.front->OnWindowBoundary(w.clock->now());
  }

  // Sample fleet load at the (quiesced) step boundary; x is the 0-based
  // step index.
  if (telemetry_ != nullptr) {
    telemetry_->Sample(static_cast<double>(steps_ended_),
                       cache_->NodeLoads());
  }
  // Background maintenance (failure detection / recovery / scrub) runs at
  // the same quiesced boundary, with the topology safe to mutate.
  if (maintenance_ != nullptr) maintenance_->Tick();
  ++steps_ended_;

  // Entries past the stale bound can never be served again; drop them.
  const std::uint64_t bound = opts_.overload.stale_bound_slices;
  std::erase_if(evicted_at_, [&](const auto& entry) {
    return steps_ended_ - entry.second > bound;
  });
  if (admission_ != nullptr) {
    g_queue_peak_.Set(
        static_cast<std::int64_t>(admission_->stats().peak_depth));
  }
  return report;
}

std::uint64_t Coordinator::Sum(
    std::atomic<std::uint64_t> Worker::*counter) const {
  std::uint64_t total = 0;
  for (const Worker& w : workers_) {
    total += (w.*counter).load(std::memory_order_relaxed);
  }
  return total;
}

Duration Coordinator::total_query_time() const {
  std::int64_t us = 0;
  for (const Worker& w : workers_) {
    us += w.query_time_us.load(std::memory_order_relaxed);
  }
  return Duration::Micros(us);
}

Histogram Coordinator::MergedLatency() const {
  Histogram merged{1.0, 1.15};
  for (const Worker& w : workers_) merged.Merge(w.latency_us);
  return merged;
}

}  // namespace ecc::core
