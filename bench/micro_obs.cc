// Observability micro-bench.
//
// Phase A (zero-cost when off): the same workload runs three ways — the
// default private registry, the process-wide disabled registry
// (EccObsDisabled), and full observability (external registry + trace
// ring).  Instrumentation must not perturb the simulation: all three runs
// finish with byte-identical virtual clocks, records placed, and split
// counts.  In disabled mode the stats shim reads all-zero while the split
// history still records the real topology events.
//
// Phase B (hot-path wall cost): the Get loop is timed in wall-clock
// nanoseconds per op (best of `reps` passes).  The disabled-registry run
// compiles the counter sites down to tested-null branches, so it must stay
// within noise of the default run — the bound is a lenient 1.5x so the
// check is robust on loaded CI machines.
//
// Overrides: records=3072 gets=65536 value_bytes=256 reps=5 seed=0x0b5
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/elastic_cache.h"
#include "figcommon.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ecc::bench {
namespace {

enum class ObsMode { kDefault, kDisabled, kFull };

const char* ModeName(ObsMode m) {
  switch (m) {
    case ObsMode::kDefault: return "default registry";
    case ObsMode::kDisabled: return "disabled (EccObsDisabled)";
    case ObsMode::kFull: return "full (registry + trace)";
  }
  return "?";
}

struct RunResult {
  std::uint64_t clock_us = 0;
  std::size_t records = 0;
  std::size_t splits = 0;       ///< from split_history (works in all modes)
  std::uint64_t stats_gets = 0; ///< from the CacheStats shim
  std::uint64_t trace_events = 0;
  double get_ns_per_op = 0.0;   ///< best-of-reps wall time of the Get loop
};

RunResult RunWorkload(const Config& cfg, ObsMode mode) {
  VirtualClock clock;
  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x0b5));
  cloudsim::CloudProvider provider(cloud, &clock);

  obs::MetricsRegistry registry;
  obs::TraceLog trace;
  const auto value_bytes =
      static_cast<std::size_t>(cfg.GetInt("value_bytes", 256));
  core::ElasticCacheOptions copts;
  copts.node_capacity_bytes = 512 * core::RecordSize(0, value_bytes);
  copts.ring.range = 1 << 14;
  switch (mode) {
    case ObsMode::kDefault:
      break;  // the cache builds its own private registry
    case ObsMode::kDisabled:
      copts.obs.metrics = &obs::EccObsDisabled();
      break;
    case ObsMode::kFull:
      copts.obs.metrics = &registry;
      copts.obs.trace = &trace;
      break;
  }
  core::ElasticCache cache(copts, &provider, &clock);

  const auto records = static_cast<std::size_t>(cfg.GetInt("records", 3072));
  const auto gets = static_cast<std::size_t>(cfg.GetInt("gets", 65536));
  const auto reps = static_cast<std::size_t>(cfg.GetInt("reps", 5));
  Rng rng(cloud.seed);
  std::vector<core::Key> keys;
  keys.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    keys.push_back(rng.Uniform(copts.ring.range));
  }
  for (const core::Key k : keys) {
    (void)cache.Put(k, std::string(value_bytes, 'v'));
  }

  // The timed hot path.  Reps share the key sequence so every pass does the
  // same work; virtual time advances identically regardless of mode.
  std::vector<core::Key> probes;
  probes.reserve(gets);
  for (std::size_t i = 0; i < gets; ++i) {
    probes.push_back(keys[rng.Uniform(keys.size())]);
  }
  double best_ns = 0.0;
  for (std::size_t rep = 0; rep < (reps == 0 ? 1 : reps); ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (const core::Key k : probes) (void)cache.Get(k);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(probes.empty() ? 1 : probes.size());
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }

  RunResult r;
  r.clock_us = static_cast<std::uint64_t>(clock.now().micros());
  r.records = cache.TotalRecords();
  r.splits = cache.split_history().size();
  r.stats_gets = cache.stats().gets;
  r.trace_events = trace.total_appended();
  r.get_ns_per_op = best_ns;
  return r;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Observability — hot-path cost on/off and simulation invariance",
      "The same workload under a private registry, the disabled registry, "
      "and full metrics+trace; instrumentation must not move the "
      "simulation.");

  const RunResult def = RunWorkload(cfg, ObsMode::kDefault);
  const RunResult off = RunWorkload(cfg, ObsMode::kDisabled);
  const RunResult full = RunWorkload(cfg, ObsMode::kFull);

  Table table({"config", "virtual_s", "records", "splits", "stats_gets",
               "trace_events", "get_ns/op"});
  const std::pair<ObsMode, const RunResult*> rows[] = {
      {ObsMode::kDefault, &def},
      {ObsMode::kDisabled, &off},
      {ObsMode::kFull, &full}};
  for (const auto& [mode, r] : rows) {
    table.AddRow({ModeName(mode), FormatG(r->clock_us / 1e6),
                  std::to_string(r->records), std::to_string(r->splits),
                  std::to_string(r->stats_gets),
                  std::to_string(r->trace_events),
                  FormatG(r->get_ns_per_op)});
  }
  std::printf("%s\n", table.ToString().c_str());
  BenchMetric("virtual_s", def.clock_us / 1e6);
  BenchMetric("records", static_cast<double>(def.records));
  BenchMetric("splits", static_cast<double>(def.splits));
  BenchMetric("stats_gets", static_cast<double>(def.stats_gets));
  BenchMetric("trace_events", static_cast<double>(full.trace_events));

  bool ok = true;
  ok &= ShapeCheck(
      "observability does not move the simulation (clock/records/splits)",
      def.clock_us == off.clock_us && def.clock_us == full.clock_us &&
          def.records == off.records && def.records == full.records &&
          def.splits == off.splits && def.splits == full.splits);
  ok &= ShapeCheck("default and full modes count every get",
                   def.stats_gets == full.stats_gets &&
                       def.stats_gets > 0);
  ok &= ShapeCheck(
      "disabled mode reads zero stats but keeps the split history",
      off.stats_gets == 0 && off.splits == def.splits);
  ok &= ShapeCheck("full mode traced events", full.trace_events > 0);
  ok &= ShapeCheck(
      "disabled hot path within noise of default (<= 1.5x)",
      off.get_ns_per_op <= def.get_ns_per_op * 1.5 + 5.0);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "micro_obs");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
