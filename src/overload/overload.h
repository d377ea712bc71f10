// Overload-protection options and per-query deadline context.
//
// One OverloadOptions, set in code as CoordinatorOptions::overload,
// configures the whole subsystem: per-query deadlines, the bounded
// admission queue in front of the service, the circuit breaker around it,
// and degraded (stale) answers when the protected path refuses a miss.
// `enabled == false` is the default and must stay zero-cost: the query
// path tests one bool and touches nothing else (the same discipline as
// EccObsDisabled() for metrics).
//
// Deadline propagation: the coordinator stamps a Deadline on the clock
// that carries the query's latency and opens a ScopedDeadline around the
// query.  Layers below that cannot grow a deadline parameter without API
// churn (ElasticCache::CallNode, deep in the backend) read
// CurrentDeadline() — a thread-local, so concurrent front-end workers
// each see only their own query's budget.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "overload/admission.h"
#include "overload/breaker.h"

namespace ecc::overload {

struct OverloadOptions {
  /// Master switch; false = the whole subsystem costs one branch.
  bool enabled = false;

  /// Per-query budget measured on the query's latency clock.  Zero = no
  /// deadline.  A query may overshoot by at most one in-flight service
  /// call clamp or RPC attempt (see DESIGN.md §10).
  Duration query_deadline = Duration::Zero();

  /// Bounded pending-miss queue (queue_limit 0 = unbounded).
  AdmissionOptions admission;

  /// Circuit breaker around the backing service.
  bool breaker_enabled = false;
  BreakerOptions breaker;

  /// When a miss is shed (queue full, breaker open, deadline spent), probe
  /// the mirror replica and the spill tier for a stale copy before
  /// returning a hard shed.
  bool stale_serve = true;
  /// Maximum staleness, in time-step slices, a degraded answer may carry.
  std::uint64_t stale_bound_slices = 4;
  /// Virtual time one stale probe costs the querying worker (replica or
  /// spill lookup; roughly a spill-tier read).
  Duration stale_probe_cost = Duration::Millis(220);
};

/// The deadline governing work on this thread; inactive when no
/// ScopedDeadline is open.
[[nodiscard]] Deadline CurrentDeadline();

/// RAII thread-local deadline scope (nests; restores the outer deadline).
class ScopedDeadline {
 public:
  explicit ScopedDeadline(Deadline d);
  ~ScopedDeadline();

  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;

 private:
  Deadline prev_;
};

}  // namespace ecc::overload
