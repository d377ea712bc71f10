// Front-tier hot-key cache micro-bench: ablation of the coordinator-local
// front cache (DESIGN.md §12) under skewed workloads.
//
// Phase A (zipf ablation): a warm zipf(s) stream is driven through a
// Coordinator at 1/2/4/8 workers, front tier off vs on.  Every query is a
// backend hit either way; what the front tier removes is the per-query
// backend probe (kLookupCost virtual time + the owning node's stripe
// mutex) for the heavy hitters each worker's tracker promotes.
// Throughput is queries per virtual makespan second.  Shape checks gate on
// (a) front-on beating front-off at every worker count and (b) front-on
// throughput still scaling with workers — the per-worker caches share no
// lock, so adding coordinators adds hot-key capacity.
//
// Phase B (hotspot residency): a 90/10 hotspot stream at workers_max, hot
// set sized to fit the front cache: the steady-state front hit rate must
// approach the hot probability.
//
// Phase C (sequential coordinator): the same hotspot stream through a
// Coordinator on the shared clock, front off vs on, comparing total query
// time.
//
// Overrides: workers_max=8 stream=8192 zipf_s=1.2 hot=64 hot_prob=0.9
//            front_capacity=64 tracker=128 admit=4 value_bytes=1000 seed=0x90
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/table.h"
#include "core/coordinator.h"
#include "core/striped_backend.h"
#include "figcommon.h"
#include "workload/generator.h"

namespace ecc::bench {
namespace {

struct FrontStack {
  std::unique_ptr<VirtualClock> clock;
  std::unique_ptr<cloudsim::CloudProvider> provider;
  std::unique_ptr<core::ElasticCache> cache;
  std::unique_ptr<core::StripedBackend> striped;
  std::unique_ptr<service::Service> service;
  std::unique_ptr<sfc::Linearizer> linearizer;
  std::unique_ptr<core::Coordinator> coordinator;
};

constexpr std::uint64_t kKeyspace = 1u << 12;  // one node holds it all warm

fronttier::FrontTierOptions FrontOptions(const Config& cfg, bool enabled) {
  fronttier::FrontTierOptions front;
  front.enabled = enabled;
  front.tracker_counters =
      static_cast<std::size_t>(cfg.GetInt("tracker", 128));
  front.capacity = static_cast<std::size_t>(cfg.GetInt("front_capacity", 64));
  front.admit_min_count =
      static_cast<std::uint64_t>(cfg.GetInt("admit", 4));
  return front;
}

FrontStack BuildFrontStack(const Config& cfg, std::size_t workers,
                           bool front_on) {
  FrontStack s;
  s.clock = std::make_unique<VirtualClock>();

  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x90));
  s.provider = std::make_unique<cloudsim::CloudProvider>(cloud, s.clock.get());

  const auto value_bytes =
      static_cast<std::size_t>(cfg.GetInt("value_bytes", 1000));
  core::ElasticCacheOptions copts;
  copts.node_capacity_bytes = kKeyspace * core::RecordSize(0, value_bytes);
  copts.ring.range = kKeyspace;
  s.cache = std::make_unique<core::ElasticCache>(copts, s.provider.get(),
                                                 s.clock.get());
  s.striped = std::make_unique<core::StripedBackend>(s.cache.get(),
                                                     /*stripes=*/16);

  s.service = std::make_unique<service::SyntheticService>(
      "synthetic", Duration::Seconds(cfg.GetInt("service_s", 23)),
      value_bytes);
  s.linearizer = std::make_unique<sfc::Linearizer>(GridFor(kKeyspace));

  core::CoordinatorOptions popts;
  popts.workers = workers;
  popts.front = FrontOptions(cfg, front_on);
  s.coordinator = std::make_unique<core::Coordinator>(
      popts, s.striped.get(), s.service.get(), s.linearizer.get());

  // Warm every key the streams can draw, so the ablation measures the pure
  // hit path (no 23 s service calls muddying the makespan).
  const std::string v(value_bytes, 'w');
  for (std::uint64_t k = 0; k < kKeyspace; ++k) {
    (void)s.striped->Put(static_cast<core::Key>(k), v);
  }
  return s;
}

std::vector<core::Key> MakeStream(workload::KeyGenerator& gen,
                                  std::size_t len) {
  std::vector<core::Key> stream;
  stream.reserve(len);
  for (std::size_t i = 0; i < len; ++i) stream.push_back(gen.Next());
  return stream;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Front tier — hot-key throughput ablation",
      "Per-worker front caches over a striped elastic cache; zipf and "
      "hotspot streams, front tier off vs on.");

  const auto workers_max =
      static_cast<std::size_t>(cfg.GetInt("workers_max", 8));
  const auto stream_len =
      static_cast<std::size_t>(cfg.GetInt("stream", 8192));
  const auto seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x90));

  // ---- Phase A: zipf sweep over worker count, front off vs on ---------
  const double zipf_s = cfg.GetDouble("zipf_s", 1.2);
  workload::ZipfKeyGenerator zipf(kKeyspace, zipf_s, seed ^ 0x21Fu);
  const std::vector<core::Key> zstream = MakeStream(zipf, stream_len);

  std::vector<std::size_t> sweep;
  for (std::size_t w = 1; w <= workers_max; w *= 2) sweep.push_back(w);

  Table ablation({"workers", "qps_off", "qps_on", "front_hits", "speedup"});
  SeriesSet series("workers");
  double on1 = 0.0, on_last = 0.0;
  bool on_beats_off = true;
  bool counts_ok = true;
  for (std::size_t w : sweep) {
    FrontStack off = BuildFrontStack(cfg, w, /*front_on=*/false);
    const core::BatchReport ro = off.coordinator->RunKeys(zstream);
    FrontStack on = BuildFrontStack(cfg, w, /*front_on=*/true);
    const core::BatchReport rn = on.coordinator->RunKeys(zstream);
    const double qps_off = ro.QueriesPerSecond();
    const double qps_on = rn.QueriesPerSecond();
    if (w == 1) on1 = qps_on;
    on_last = qps_on;
    on_beats_off &= qps_on > qps_off;
    counts_ok &= rn.hits + rn.coalesced + rn.misses + rn.shed + rn.stale ==
                 rn.queries;
    counts_ok &= on.coordinator->front_hits() <= rn.hits;
    series.Get("qps_off").Add(static_cast<double>(w), qps_off);
    series.Get("qps_on").Add(static_cast<double>(w), qps_on);
    BenchMetric("zipf_qps_off_" + std::to_string(w) + "w", qps_off);
    BenchMetric("zipf_qps_on_" + std::to_string(w) + "w", qps_on);
    ablation.AddRow({std::to_string(w), FormatG(qps_off), FormatG(qps_on),
                     std::to_string(on.coordinator->front_hits()),
                     FormatG(qps_off > 0 ? qps_on / qps_off : 0.0)});
  }
  std::printf("%s\n", ablation.ToString().c_str());
  MaybeWriteCsv(cfg, series, "micro_fronttier");

  // ---- Phase B: hotspot residency at workers_max ----------------------
  const auto hot = static_cast<std::uint64_t>(cfg.GetInt("hot", 64));
  const double hot_prob = cfg.GetDouble("hot_prob", 0.9);
  workload::HotspotKeyGenerator hotspot(
      kKeyspace, static_cast<double>(hot) / static_cast<double>(kKeyspace),
      hot_prob, seed ^ 0x407u);
  const std::vector<core::Key> hstream = MakeStream(hotspot, stream_len);
  FrontStack hs = BuildFrontStack(cfg, workers_max, /*front_on=*/true);
  const core::BatchReport hr = hs.coordinator->RunKeys(hstream);
  const double front_rate =
      hr.queries > 0 ? static_cast<double>(hs.coordinator->front_hits()) /
                           static_cast<double>(hr.queries)
                     : 0.0;
  Table residency({"queries", "hits", "front_hits", "front_hit_rate"});
  residency.AddRow({std::to_string(hr.queries), std::to_string(hr.hits),
                    std::to_string(hs.coordinator->front_hits()),
                    FormatG(front_rate)});
  std::printf("%s\n", residency.ToString().c_str());
  BenchMetric("hotspot_front_hit_rate", front_rate);

  // ---- Phase C: sequential coordinator, hotspot stream ----------------
  StackParams sp;
  sp.keyspace = kKeyspace;
  sp.records_per_node = kKeyspace;
  sp.seed = seed;
  Duration seq_time[2];
  std::uint64_t seq_front_hits = 0;
  for (int on = 0; on < 2; ++on) {
    StackParams p = sp;
    p.coordinator.front = FrontOptions(cfg, on == 1);
    Stack stack = BuildStack(p);
    const std::string v(sp.value_bytes, 'w');
    for (std::uint64_t k = 0; k < kKeyspace; ++k) {
      (void)stack.cache->Put(static_cast<core::Key>(k), v);
    }
    for (const core::Key k : hstream) (void)stack.coordinator->ProcessKey(k);
    seq_time[on] = stack.coordinator->total_query_time();
    if (on == 1) seq_front_hits = stack.coordinator->front_hits();
  }
  std::printf("sequential hotspot: front-off %.3f s, front-on %.3f s "
              "(%llu front hits)\n\n",
              seq_time[0].seconds(), seq_time[1].seconds(),
              static_cast<unsigned long long>(seq_front_hits));
  BenchMetric("seq_query_time_off_s", seq_time[0].seconds());
  BenchMetric("seq_query_time_on_s", seq_time[1].seconds());

  bool ok = true;
  ok &= ShapeCheck("front-on throughput beats front-off at every worker "
                   "count (zipf stream)",
                   on_beats_off);
  ok &= ShapeCheck(
      "front-on throughput at " + std::to_string(workers_max) +
          " workers >= 4x the 1-worker front-on baseline",
      on1 > 0 && on_last / on1 >= 4.0);
  ok &= ShapeCheck("hotspot front hit rate >= 0.5 (hot set fits the front "
                   "cache)",
                   front_rate >= 0.5);
  ok &= ShapeCheck("sequential coordinator: front tier reduces total query "
                   "time",
                   seq_front_hits > 0 && seq_time[1] < seq_time[0]);
  ok &= ShapeCheck("query accounting balances with the front tier on",
                   counts_ok);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "micro_fronttier");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
