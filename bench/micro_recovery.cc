// Self-healing micro-bench.
//
// Phase A (zero-cost gate): the same query workload runs with no
// maintenance attached, and with the recovery manager attached but idle
// (healthy fleet: every heartbeat answers, every scrub finds zero
// divergence).  The detector-disabled run must be bit-identical in virtual
// time and outcome counts, and the enabled-idle run must stay within noise
// on wall time — self-healing may not tax a healthy fleet.
//
// Phase B (double crash): node A dies, then the node holding the mirrors
// of A's keys dies too.  With recovery the detector confirms A, the lost
// copies are re-replicated before B goes, and nothing is lost; without it
// the second crash removes the last copy of every A-primary/B-mirror key.
//
// Overrides: keys=512 queries=4096 seed=0x5eed
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/coordinator.h"
#include "core/elastic_cache.h"
#include "fault/fault.h"
#include "figcommon.h"
#include "recovery/recovery.h"
#include "service/service.h"

namespace ecc::bench {
namespace {

struct RunResult {
  std::uint64_t clock_us = 0;
  std::uint64_t hits = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t scrub_passes = 0;
  double wall_ns_per_query = 0;
};

/// Phase A workload: sequential coordinator over a replicated fleet, with
/// the maintenance hook either unattached or attached-but-idle.
RunResult RunHealthy(const Config& cfg, bool attach_recovery) {
  VirtualClock clock;
  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x5eed));
  cloudsim::CloudProvider provider(cloud, &clock);

  obs::MetricsRegistry registry;
  core::ElasticCacheOptions eopts;
  eopts.node_capacity_bytes = 1024 * core::RecordSize(0, std::size_t{128});
  eopts.ring.range = 1 << 14;
  eopts.initial_nodes = 4;
  eopts.replicas = 2;
  core::ElasticCache cache(eopts, &provider, &clock);

  service::SyntheticService service("svc", Duration::Seconds(23), 100);
  sfc::LinearizerOptions grid;
  grid.spatial_bits = 5;
  grid.time_bits = 4;
  sfc::Linearizer linearizer(grid);
  core::CoordinatorOptions copts;
  copts.window.slices = 4;
  core::Coordinator coordinator(copts, &cache, &service, &linearizer,
                                &clock);

  recovery::RecoveryOptions ropts;
  ropts.enabled = true;
  ropts.heartbeat_every = Duration::Millis(250);
  ropts.suspect_threshold = 3;
  ropts.scrub_every_ticks = 4;
  ropts.obs.metrics = &registry;
  recovery::RecoveryManager manager(ropts, &cache, &clock);
  if (attach_recovery) coordinator.AttachMaintenance(&manager);

  const auto keys = static_cast<std::size_t>(cfg.GetInt("keys", 512));
  const auto queries = static_cast<std::size_t>(cfg.GetInt("queries", 4096));
  Rng rng(cloud.seed);
  std::vector<core::Key> workload;
  workload.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    workload.push_back(rng.Uniform(keys));
  }

  const std::size_t per_step = queries / 8;
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < queries; ++i) {
    (void)coordinator.ProcessKey(workload[i]);
    if (i % per_step == per_step - 1) (void)coordinator.EndTimeStep();
  }
  const auto wall_end = std::chrono::steady_clock::now();

  RunResult r;
  r.clock_us = static_cast<std::uint64_t>(clock.now().micros());
  r.hits = coordinator.total_hits();
  r.heartbeats = registry.GetCounter("recovery.heartbeats").Value();
  r.scrub_passes = registry.GetCounter("recovery.scrub_passes").Value();
  r.wall_ns_per_query =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              wall_end - wall_start)
                              .count()) /
      static_cast<double>(queries);
  return r;
}

struct CrashResult {
  std::size_t seeded = 0;
  std::size_t lost = 0;
  std::uint64_t confirmed_dead = 0;
  std::uint64_t rereplicated = 0;
  std::size_t divergent_after = 0;
};

/// Phase B: the double-crash script, with or without the healing loop.
CrashResult RunDoubleCrash(const Config& cfg, bool with_recovery) {
  VirtualClock clock;
  cloudsim::CloudOptions cloud;
  cloud.boot_mean = Duration::Seconds(60);
  cloud.seed = static_cast<std::uint64_t>(cfg.GetInt("seed", 0x5eed));
  cloudsim::CloudProvider provider(cloud, &clock);

  obs::MetricsRegistry registry;
  fault::FaultInjector injector;
  core::ElasticCacheOptions eopts;
  eopts.node_capacity_bytes = 1024 * core::RecordSize(0, std::size_t{128});
  eopts.ring.range = 1 << 14;
  eopts.initial_nodes = 4;
  eopts.replicas = 2;
  eopts.fault = &injector;
  core::ElasticCache cache(eopts, &provider, &clock);

  recovery::RecoveryOptions ropts;
  ropts.enabled = with_recovery;
  ropts.heartbeat_every = Duration::Millis(250);
  ropts.suspect_threshold = 3;
  ropts.probe_attempts = 2;
  ropts.obs.metrics = &registry;
  recovery::RecoveryManager manager(ropts, &cache, &clock);

  CrashResult r;
  const auto keys = static_cast<std::size_t>(cfg.GetInt("keys", 512));
  std::vector<core::Key> seeded;
  for (std::size_t i = 0; i < keys; ++i) {
    const core::Key k = (i * 13) % (eopts.ring.range / 2);
    if (!cache.Put(k, "payload-" + std::to_string(k)).ok()) continue;
    seeded.push_back(k);
  }
  r.seeded = seeded.size();

  // Pick the crash pair from one key's placement: A holds the primary,
  // B the mirror — without repair in between, that key cannot survive.
  const core::Key probe = seeded[1];
  const core::NodeId a = *cache.OwnerOf(probe);
  const core::NodeId b = *cache.ReplicaOwnerOf(probe);

  // A dies abruptly; maintenance ticks run at the next slice boundaries.
  injector.MarkDown(a);
  for (std::size_t i = 0; i < ropts.suspect_threshold + 1; ++i) {
    manager.Tick();
    clock.Advance(ropts.heartbeat_every);
  }
  // Then B dies before any further repair can run.
  (void)cache.KillNode(b);

  r.confirmed_dead =
      registry.GetCounter("recovery.nodes_confirmed_dead").Value();
  r.rereplicated = registry.GetCounter("recovery.keys_rereplicated").Value();
  if (with_recovery) {
    manager.Tick();  // heal the second crash too, then audit coherence
    r.divergent_after = manager.ScrubNow();
  }
  for (const core::Key k : seeded) {
    if (!cache.Get(k).ok()) ++r.lost;
  }
  return r;
}

int Main(int argc, char** argv) {
  Log::SetLevel(LogLevel::kError);
  const Config cfg = ParseArgs(argc, argv);
  PrintHeader(
      "Self-healing — idle-path overhead and double-crash durability",
      "Heartbeat failure detection + two-phase re-replication + "
      "anti-entropy scrub; the detector-disabled path must cost nothing, "
      "and recovery must close the window a second crash exploits.");

  // ---- Phase A: healing must be free on a healthy fleet -----------------
  RunResult off = RunHealthy(cfg, /*attach_recovery=*/false);
  RunResult idle = RunHealthy(cfg, /*attach_recovery=*/true);
  for (int i = 0; i < 2; ++i) {
    const RunResult off2 = RunHealthy(cfg, false);
    if (off2.wall_ns_per_query < off.wall_ns_per_query) off = off2;
    const RunResult idle2 = RunHealthy(cfg, true);
    if (idle2.wall_ns_per_query < idle.wall_ns_per_query) idle = idle2;
  }
  Table overhead(
      {"config", "virtual_s", "hits", "heartbeats", "scrubs", "wall_ns/q"});
  overhead.AddRow({"recovery off", FormatG(off.clock_us / 1e6),
                   std::to_string(off.hits), std::to_string(off.heartbeats),
                   std::to_string(off.scrub_passes),
                   FormatG(off.wall_ns_per_query)});
  overhead.AddRow({"attached, idle", FormatG(idle.clock_us / 1e6),
                   std::to_string(idle.hits), std::to_string(idle.heartbeats),
                   std::to_string(idle.scrub_passes),
                   FormatG(idle.wall_ns_per_query)});
  std::printf("%s\n", overhead.ToString().c_str());
  BenchMetric("virtual_s_off", off.clock_us / 1e6);
  BenchMetric("hits_off", static_cast<double>(off.hits));
  BenchMetric("heartbeats_idle", static_cast<double>(idle.heartbeats));
  BenchMetric("scrubs_idle", static_cast<double>(idle.scrub_passes));

  // ---- Phase B: the double crash ----------------------------------------
  const CrashResult bare = RunDoubleCrash(cfg, /*with_recovery=*/false);
  const CrashResult healed = RunDoubleCrash(cfg, /*with_recovery=*/true);
  Table crash({"config", "keys", "lost", "confirmed_dead", "rereplicated",
               "divergent_after"});
  crash.AddRow({"no recovery", std::to_string(bare.seeded),
                std::to_string(bare.lost), std::to_string(bare.confirmed_dead),
                std::to_string(bare.rereplicated),
                std::to_string(bare.divergent_after)});
  crash.AddRow({"with recovery", std::to_string(healed.seeded),
                std::to_string(healed.lost),
                std::to_string(healed.confirmed_dead),
                std::to_string(healed.rereplicated),
                std::to_string(healed.divergent_after)});
  std::printf("%s\n", crash.ToString().c_str());
  BenchMetric("rereplicated_with_recovery",
              static_cast<double>(healed.rereplicated));

  bool ok = true;
  ok &= ShapeCheck("no-maintenance run is virtually identical to idle",
                   off.clock_us == idle.clock_us && off.hits == idle.hits);
  ok &= ShapeCheck("idle healing actually probed and scrubbed",
                   idle.heartbeats > 0 && idle.scrub_passes > 0 &&
                       off.heartbeats == 0);
  ok &= ShapeCheck("detector-disabled wall cost within noise of idle",
                   off.wall_ns_per_query <= idle.wall_ns_per_query * 1.5 &&
                       idle.wall_ns_per_query <=
                           off.wall_ns_per_query * 1.5);
  ok &= ShapeCheck("double crash without recovery loses keys",
                   bare.lost > 0 && bare.confirmed_dead == 0);
  ok &= ShapeCheck("recovery confirms the first death off the query path",
                   healed.confirmed_dead == 1 && healed.rereplicated > 0);
  ok &= ShapeCheck("double crash with recovery loses nothing",
                   healed.lost == 0);
  ok &= ShapeCheck("post-recovery scrub reports a coherent fleet",
                   healed.divergent_after == 0);
  std::printf("\n");
  MaybeWriteBenchJson(cfg, "micro_recovery");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace ecc::bench

int main(int argc, char** argv) { return ecc::bench::Main(argc, argv); }
