// Fault-layer micro-bench.
//
// Phase A (zero-cost abstraction): the same workload runs with no injector
// and with an injector bound but idle.  The retry/interceptor layer must
// be invisible on a healthy wire — identical virtual time, records placed,
// and split count, with zero retries charged.
//
// Phase B (fault sweep): wire-fault probability sweeps upward; the table
// reports retries, exhausted calls, degraded operations, migration aborts,
// crash-dropped records, and virtual-time inflation over the fault-free
// baseline.  The retry budget is expected to absorb mild loss (records
// still land) while time inflates with the injected timeouts.
//
// Overrides: records=3072 gets=8192 value_bytes=256 seed=0x5eed
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/elastic_cache.h"
#include "fault/fault.h"
#include "figcommon.h"

namespace ecc::bench {
namespace {

struct RunResult {
  std::uint64_t clock_us = 0;
  std::size_t records = 0;
  std::uint64_t splits = 0;
  std::uint64_t retries = 0;
  std::uint64_t exhausted = 0;
  std::uint64_t degraded_gets = 0;
  std::uint64_t degraded_puts = 0;
  std::uint64_t aborts = 0;
  std::size_t kills = 0;
};

RunResult RunWorkload(const Config& cfg, double fault_p, bool bind_idle) {
  VirtualClock clock;
  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x5eed));
  cloudsim::CloudProvider provider(cloud, &clock);

  fault::FaultPlan plan;
  plan.seed = cloud.seed ^ 0xfa;
  plan.drop_request_p = fault_p;
  plan.drop_response_p = fault_p / 2;
  plan.delay_p = fault_p;
  plan.migration_abort_p = fault_p;
  plan.migration_crash_p = fault_p / 4;
  fault::FaultInjector injector(plan);

  const auto value_bytes =
      static_cast<std::size_t>(cfg.GetInt("value_bytes", 256));
  core::ElasticCacheOptions copts;
  copts.node_capacity_bytes = 512 * core::RecordSize(0, value_bytes);
  copts.ring.range = 1 << 14;
  if (fault_p > 0.0 || bind_idle) copts.fault = &injector;
  core::ElasticCache cache(copts, &provider, &clock);

  const auto records = static_cast<std::size_t>(cfg.GetInt("records", 3072));
  const auto gets = static_cast<std::size_t>(cfg.GetInt("gets", 8192));
  Rng rng(cloud.seed);
  std::vector<core::Key> keys;
  keys.reserve(records);
  for (std::size_t i = 0; i < records; ++i) {
    keys.push_back(rng.Uniform(copts.ring.range));
  }
  for (const core::Key k : keys) {
    (void)cache.Put(k, std::string(value_bytes, 'v'));  // faults may refuse
  }
  for (std::size_t i = 0; i < gets; ++i) {
    (void)cache.Get(keys[rng.Uniform(keys.size())]);
  }

  RunResult r;
  r.clock_us = static_cast<std::uint64_t>(clock.now().micros());
  r.records = cache.TotalRecords();
  r.splits = cache.stats().splits;
  r.retries = cache.stats().rpc_retries;
  r.exhausted = cache.stats().rpc_failures;
  r.degraded_gets = cache.stats().degraded_gets;
  r.degraded_puts = cache.stats().degraded_puts;
  r.aborts = cache.stats().migration_aborts;
  r.kills = cache.kill_history().size();
  return r;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Fault layer — healthy-wire overhead and wire-fault sweep",
      "RPC retry/timeout + two-phase migration under a seeded fault "
      "schedule; inflation is virtual time over the fault-free baseline.");

  // ---- Phase A: the layer must be free when idle ------------------------
  const RunResult off = RunWorkload(cfg, 0.0, /*bind_idle=*/false);
  const RunResult idle = RunWorkload(cfg, 0.0, /*bind_idle=*/true);
  Table overhead({"config", "virtual_s", "records", "splits", "retries"});
  overhead.AddRow({"no injector", FormatG(off.clock_us / 1e6),
                   std::to_string(off.records), std::to_string(off.splits),
                   std::to_string(off.retries)});
  overhead.AddRow({"idle injector", FormatG(idle.clock_us / 1e6),
                   std::to_string(idle.records), std::to_string(idle.splits),
                   std::to_string(idle.retries)});
  std::printf("%s\n", overhead.ToString().c_str());
  BenchMetric("virtual_s", off.clock_us / 1e6);
  BenchMetric("records", static_cast<double>(off.records));
  BenchMetric("splits", static_cast<double>(off.splits));

  // ---- Phase B: fault-probability sweep ---------------------------------
  Table sweep({"fault_p", "retries", "exhausted", "degraded", "mig_aborts",
               "kills", "records", "inflation"});
  RunResult worst;
  for (const double p : {0.005, 0.01, 0.02, 0.05}) {
    const RunResult r = RunWorkload(cfg, p, /*bind_idle=*/true);
    sweep.AddRow({FormatG(p), std::to_string(r.retries),
                  std::to_string(r.exhausted),
                  std::to_string(r.degraded_gets + r.degraded_puts),
                  std::to_string(r.aborts), std::to_string(r.kills),
                  std::to_string(r.records),
                  FormatG(off.clock_us > 0
                              ? static_cast<double>(r.clock_us) /
                                    static_cast<double>(off.clock_us)
                              : 0.0)});
    BenchMetric("retries_p" + FormatG(p), static_cast<double>(r.retries));
    BenchMetric("records_p" + FormatG(p), static_cast<double>(r.records));
    worst = r;
  }
  std::printf("%s\n", sweep.ToString().c_str());

  bool ok = true;
  ok &= ShapeCheck("idle injector is byte-identical to no injector",
                   idle.clock_us == off.clock_us &&
                       idle.records == off.records &&
                       idle.splits == off.splits && idle.retries == 0);
  ok &= ShapeCheck("faulted wire charges retries", worst.retries > 0);
  ok &= ShapeCheck("injected timeouts inflate virtual time",
                   worst.clock_us > off.clock_us);
  ok &= ShapeCheck("the retry budget still lands most of the working set",
                   worst.records * 2 > off.records);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "micro_fault");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
