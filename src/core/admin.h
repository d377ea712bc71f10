// Administrative/inspection surface for the cooperative cache.
//
// Operators (and our benches/examples) want to *see* the fleet: per-node
// fill, bucket layout, an ASCII ring map, and a one-screen stats dump.
// Everything here is read-only over the cache's public introspection API.
#pragma once

#include <string>

#include "core/elastic_cache.h"
#include "obs/metrics.h"

namespace ecc::core {

/// One-row-per-node fleet table: id, records, fill %, buckets, ownership
/// share of the hash line.
[[nodiscard]] std::string FleetTable(const ElasticCache& cache);

/// ASCII rendering of the hash line: `width` character cells, each showing
/// the node (A, B, C, ... by id order) owning that stretch of the line.
/// Example: "AAAABBBBBBCCAA" — wrap-around arcs show at both ends.
[[nodiscard]] std::string RingMap(const ElasticCache& cache,
                                  std::size_t width = 64);

/// Single-screen textual stats dump (hits/misses/splits/migrations/...).
[[nodiscard]] std::string StatsSummary(const CacheStats& stats);

/// Imbalance measure: coefficient of variation of per-node used bytes
/// (0 = perfectly even; meaningless for < 2 nodes, returns 0).
[[nodiscard]] double FleetFillCv(const ElasticCache& cache);

/// Full registry dump: one table per metric kind (counters, gauges), plus
/// a one-line summary per histogram.  Render a snapshot, not a registry,
/// so the dump is a consistent point in time.
[[nodiscard]] std::string DumpMetrics(const obs::MetricsSnapshot& snapshot);

}  // namespace ecc::core
