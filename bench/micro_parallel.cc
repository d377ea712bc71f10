// Parallel front-end micro-bench: aggregate query throughput of an
// N-worker Coordinator over a striped elastic cache, swept over worker
// counts, plus a cold-start phase showing single-flight miss coalescing.
//
// Phase A (hit-heavy scaling): a warm working set is queried by 1/2/4/8
// workers; throughput is queries per virtual makespan second (makespan =
// max per-worker busy time, i.e. wall time given one core per worker).
// Hits are independent, so throughput should scale near-linearly; the
// shape check gates on >= 4x at 8 workers vs 1.
//
// Phase B (cold coalescing): every worker hammers a small hot key set on a
// cold cache.  Single-flight coalescing must collapse the redundant misses
// to exactly one service invocation per distinct key.
//
// Overrides: workers_max=8 stream=8192 warm=512 hot=16 cold_queries=512
//            value_bytes=1000 service_s=23 seed=0x90
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "core/coordinator.h"
#include "core/striped_backend.h"
#include "figcommon.h"

namespace ecc::bench {
namespace {

struct ParallelStack {
  std::unique_ptr<VirtualClock> clock;
  std::unique_ptr<cloudsim::CloudProvider> provider;
  std::unique_ptr<core::ElasticCache> cache;
  std::unique_ptr<core::StripedBackend> striped;
  std::unique_ptr<service::Service> service;
  std::unique_ptr<sfc::Linearizer> linearizer;
  std::unique_ptr<core::Coordinator> coordinator;
};

ParallelStack BuildParallelStack(const Config& cfg, std::size_t workers) {
  ParallelStack s;
  s.clock = std::make_unique<VirtualClock>();

  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x90));
  s.provider = std::make_unique<cloudsim::CloudProvider>(cloud, s.clock.get());

  const auto keyspace = static_cast<std::uint64_t>(1) << 14;
  const auto value_bytes =
      static_cast<std::size_t>(cfg.GetInt("value_bytes", 1000));
  core::ElasticCacheOptions copts;
  copts.node_capacity_bytes = 4096 * core::RecordSize(0, value_bytes);
  copts.ring.range = keyspace;
  s.cache = std::make_unique<core::ElasticCache>(copts, s.provider.get(),
                                                 s.clock.get());
  s.striped = std::make_unique<core::StripedBackend>(s.cache.get(),
                                                     /*stripes=*/16);

  s.service = std::make_unique<service::SyntheticService>(
      "synthetic", Duration::Seconds(cfg.GetInt("service_s", 23)),
      value_bytes);
  s.linearizer = std::make_unique<sfc::Linearizer>(GridFor(keyspace));

  core::CoordinatorOptions popts;
  popts.workers = workers;
  s.coordinator = std::make_unique<core::Coordinator>(
      popts, s.striped.get(), s.service.get(), s.linearizer.get());
  return s;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Parallel front-end — throughput scaling and miss coalescing",
      "N-worker Coordinator over a striped elastic cache; virtual "
      "makespan = max per-worker busy time.");

  const auto workers_max =
      static_cast<std::size_t>(cfg.GetInt("workers_max", 8));
  const auto warm = static_cast<std::size_t>(cfg.GetInt("warm", 512));
  const auto stream_len =
      static_cast<std::size_t>(cfg.GetInt("stream", 8192));

  // ---- Phase A: hit-heavy scaling sweep -------------------------------
  std::vector<core::Key> stream;
  stream.reserve(stream_len);
  for (std::size_t i = 0; i < stream_len; ++i) {
    stream.push_back(static_cast<core::Key>(i % warm));
  }

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w <= workers_max; w *= 2) sweep.push_back(w);

  Table scaling({"workers", "queries", "hits", "makespan_s", "qps",
                 "speedup"});
  double qps1 = 0.0, qps_last = 0.0;
  bool all_hits = true;
  for (std::size_t w : sweep) {
    ParallelStack s = BuildParallelStack(cfg, w);
    for (std::size_t k = 0; k < warm; ++k) {
      (void)s.striped->Put(static_cast<core::Key>(k),
                           std::string(static_cast<std::size_t>(
                                           cfg.GetInt("value_bytes", 1000)),
                                       'w'));
    }
    const core::BatchReport r = s.coordinator->RunKeys(stream);
    if (w == 1) qps1 = r.QueriesPerSecond();
    qps_last = r.QueriesPerSecond();
    all_hits &= (r.hits == stream.size());
    scaling.AddRow({std::to_string(w), std::to_string(r.queries),
                    std::to_string(r.hits), FormatG(r.makespan.seconds()),
                    FormatG(r.QueriesPerSecond()),
                    FormatG(qps1 > 0 ? r.QueriesPerSecond() / qps1 : 0.0)});
  }
  std::printf("%s\n", scaling.ToString().c_str());

  // ---- Phase B: cold hot-key coalescing -------------------------------
  const auto hot = static_cast<std::size_t>(cfg.GetInt("hot", 16));
  const auto cold_queries =
      static_cast<std::size_t>(cfg.GetInt("cold_queries", 512));
  std::vector<core::Key> cold_stream;
  cold_stream.reserve(cold_queries);
  for (std::size_t i = 0; i < cold_queries; ++i) {
    cold_stream.push_back(static_cast<core::Key>(i % hot));
  }
  ParallelStack cold = BuildParallelStack(cfg, workers_max);
  const core::BatchReport cr = cold.coordinator->RunKeys(cold_stream);
  Table coalesce({"queries", "distinct_keys", "misses", "coalesced", "hits",
                  "service_invocations", "coalesce_rate"});
  const double redundant =
      static_cast<double>(cr.queries) - static_cast<double>(hot);
  coalesce.AddRow(
      {std::to_string(cr.queries), std::to_string(hot),
       std::to_string(cr.misses), std::to_string(cr.coalesced),
       std::to_string(cr.hits), std::to_string(cr.service_invocations),
       FormatG(redundant > 0
                   ? static_cast<double>(cr.coalesced + cr.hits) / redundant
                   : 0.0)});
  std::printf("%s\n", coalesce.ToString().c_str());

  bool ok = true;
  ok &= ShapeCheck("warm stream is all hits at every worker count",
                   all_hits);
  ok &= ShapeCheck(
      "throughput at " + std::to_string(workers_max) +
          " workers >= 4x the 1-worker baseline",
      qps1 > 0 && qps_last / qps1 >= 4.0);
  ok &= ShapeCheck(
      "cold hot-key batch invokes the service once per distinct key",
      cr.service_invocations == hot && cr.misses == hot);
  ok &= ShapeCheck("every redundant cold miss was coalesced or served",
                   cr.hits + cr.coalesced + cr.misses == cr.queries);
  std::printf("\n");
  BenchMetric("qps_1w", qps1);
  BenchMetric("qps_maxw", qps_last);
  BenchMetric("scaling_factor", qps1 > 0 ? qps_last / qps1 : 0.0);
  MaybeWriteBenchJson(cfg, "micro_parallel");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
