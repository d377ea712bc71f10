#include "core/admin.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/table.h"

namespace ecc::core {

std::string FleetTable(const ElasticCache& cache) {
  Table table({"node", "records", "used", "capacity", "fill%", "buckets",
               "ring_share%"});
  for (const NodeSnapshot& snap : cache.Snapshot()) {
    const double fill = snap.capacity_bytes == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(snap.used_bytes) /
                                  static_cast<double>(snap.capacity_bytes);
    table.AddRow({std::to_string(snap.id), std::to_string(snap.records),
                  FormatG(static_cast<double>(snap.used_bytes)),
                  FormatG(static_cast<double>(snap.capacity_bytes)),
                  FormatG(fill), std::to_string(snap.buckets),
                  FormatG(100.0 * cache.ring().OwnerFraction(snap.id))});
  }
  return table.ToString();
}

std::string RingMap(const ElasticCache& cache, std::size_t width) {
  if (width == 0) return {};
  // Stable letter per node id (A.. by ascending id; '#' past 26).
  std::map<NodeId, char> letters;
  for (const NodeSnapshot& snap : cache.Snapshot()) {
    const char c = letters.size() < 26
                       ? static_cast<char>('A' + letters.size())
                       : '#';
    letters.emplace(snap.id, c);
  }
  std::string out(width, '?');
  const std::uint64_t range = cache.options().ring.range;
  for (std::size_t i = 0; i < width; ++i) {
    // Sample the owner at the cell's midpoint position on the hash line.
    const std::uint64_t pos = static_cast<std::uint64_t>(
        (static_cast<double>(i) + 0.5) / static_cast<double>(width) *
        static_cast<double>(range));
    auto owner = cache.ring().Lookup(pos % range);
    if (owner.ok()) {
      const auto it = letters.find(*owner);
      out[i] = it == letters.end() ? '?' : it->second;
    }
  }
  return out;
}

std::string StatsSummary(const CacheStats& stats) {
  char buf[896];
  std::snprintf(
      buf, sizeof(buf),
      "gets=%llu (hits=%llu misses=%llu, rate=%.3f)  puts=%llu (failed=%llu)\n"
      "evictions=%llu  splits=%llu (proactive=%llu)  allocs=%llu  "
      "merges=%llu  failures=%llu\n"
      "migrated=%llu records / %llu bytes  split_overhead=%s "
      "(alloc=%s move=%s)\n"
      "replicas: writes=%llu drops=%llu failover_reads=%llu\n"
      "faults: rpc_retries=%llu rpc_failures=%llu degraded_gets=%llu "
      "degraded_puts=%llu mig_aborts=%llu mig_recoveries=%llu\n",
      static_cast<unsigned long long>(stats.gets),
      static_cast<unsigned long long>(stats.hits),
      static_cast<unsigned long long>(stats.misses), stats.HitRate(),
      static_cast<unsigned long long>(stats.puts),
      static_cast<unsigned long long>(stats.put_failures),
      static_cast<unsigned long long>(stats.evictions),
      static_cast<unsigned long long>(stats.splits),
      static_cast<unsigned long long>(stats.proactive_splits),
      static_cast<unsigned long long>(stats.node_allocations),
      static_cast<unsigned long long>(stats.node_removals),
      static_cast<unsigned long long>(stats.node_failures),
      static_cast<unsigned long long>(stats.records_migrated),
      static_cast<unsigned long long>(stats.bytes_migrated),
      stats.total_split_overhead.ToString().c_str(),
      stats.total_alloc_time.ToString().c_str(),
      stats.total_migration_time.ToString().c_str(),
      static_cast<unsigned long long>(stats.replica_writes),
      static_cast<unsigned long long>(stats.replica_drops),
      static_cast<unsigned long long>(stats.failover_reads),
      static_cast<unsigned long long>(stats.rpc_retries),
      static_cast<unsigned long long>(stats.rpc_failures),
      static_cast<unsigned long long>(stats.degraded_gets),
      static_cast<unsigned long long>(stats.degraded_puts),
      static_cast<unsigned long long>(stats.migration_aborts),
      static_cast<unsigned long long>(stats.migration_recoveries));
  return buf;
}

std::string DumpMetrics(const obs::MetricsSnapshot& snapshot) {
  std::string out;
  if (!snapshot.counters.empty()) {
    Table counters({"counter", "value"});
    for (const auto& [name, value] : snapshot.counters) {
      counters.AddRow({name, std::to_string(value)});
    }
    out += counters.ToString();
  }
  if (!snapshot.gauges.empty()) {
    Table gauges({"gauge", "value"});
    for (const auto& [name, value] : snapshot.gauges) {
      gauges.AddRow({name, std::to_string(value)});
    }
    out += gauges.ToString();
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    out += name;
    out += ": ";
    out += histogram.Summary();
    out += '\n';
  }
  return out;
}

double FleetFillCv(const ElasticCache& cache) {
  const auto snapshot = cache.Snapshot();
  if (snapshot.size() < 2) return 0.0;
  double mean = 0.0;
  for (const NodeSnapshot& snap : snapshot) {
    mean += static_cast<double>(snap.used_bytes);
  }
  mean /= static_cast<double>(snapshot.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const NodeSnapshot& snap : snapshot) {
    const double d = static_cast<double>(snap.used_bytes) - mean;
    var += d * d;
  }
  var /= static_cast<double>(snapshot.size());
  return std::sqrt(var) / mean;
}

}  // namespace ecc::core
