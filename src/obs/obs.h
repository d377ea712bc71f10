// Observability wiring bundle.
//
// Components that report (ElasticCache, Coordinator, fault injector, RPC
// retry layer) take one of these in their options;
// every pointer is optional and none is owned.  Pass {} for silence,
// {.metrics = &EccObsDisabled()} to force a cache's internal accounting
// into no-op handles, or wire all three for the full picture (benches do,
// see bench/figcommon).
#pragma once

#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace ecc::obs {

struct Observability {
  /// Counter/gauge/histogram sink.  For ElasticCache, nullptr means "use an
  /// internal private registry" (the CacheStats shim needs cells to read);
  /// everywhere else nullptr means unregistered null handles.
  MetricsRegistry* metrics = nullptr;
  /// Structured event sink; nullptr = no tracing.
  TraceLog* trace = nullptr;
  /// Fleet load sampler, fed at time-step boundaries; nullptr = off.
  FleetTelemetry* telemetry = nullptr;

  /// Null-safe counter registration for the metrics-optional components.
  [[nodiscard]] Counter MakeCounter(const std::string& name) const {
    return metrics == nullptr ? Counter{} : metrics->GetCounter(name);
  }
};

}  // namespace ecc::obs
