// Tests for the self-healing layer (src/recovery/): heartbeat failure
// detection tolerant of injected probe loss, two-phase re-replication that
// restores the copy invariant after a crash (with clean rollback when the
// repair itself is interrupted), the anti-entropy scrub, the double-crash
// data-loss scenario the layer exists to prevent, and the maintenance-tick
// wiring through both coordinators.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "cloudsim/persistent_store.h"
#include "cloudsim/provider.h"
#include "core/coordinator.h"
#include "durability/durability.h"
#include "core/elastic_cache.h"
#include "core/striped_backend.h"
#include "fault/fault.h"
#include "obs/obs.h"
#include "recovery/recovery.h"
#include "service/service.h"
#include "sfc/linearizer.h"

namespace ecc::recovery {
namespace {

using core::ElasticCache;
using core::ElasticCacheOptions;
using core::Key;
using core::NodeId;
using core::RecordSize;
using fault::FaultInjector;
using fault::FaultPlan;

constexpr std::size_t kValueBytes = 64;

std::string Val(Key k) {
  return "rec-" + std::to_string(k) + std::string(kValueBytes, 'v');
}

/// Detector defaults for tests: enabled, one probe per round (so a single
/// scripted drop is a full missed round), confirmation after 3.
RecoveryOptions TestOptions() {
  RecoveryOptions r;
  r.enabled = true;
  r.heartbeat_every = Duration::Millis(250);
  r.suspect_threshold = 3;
  r.probe_attempts = 1;
  return r;
}

/// A replicated cluster with a fault injector and a recovery manager, all
/// sharing one virtual clock.
struct Fixture {
  explicit Fixture(std::size_t replicas, RecoveryOptions ropts,
                   FaultPlan plan = {}, std::size_t initial_nodes = 4,
                   std::size_t records_per_node = 64,
                   durability::FleetDurability* durable = nullptr)
      : injector(std::move(plan)),
        provider(
            [] {
              cloudsim::CloudOptions o;
              o.seed = 9;
              return o;
            }(),
            &clock),
        cache(
            [&] {
              ElasticCacheOptions o;
              o.node_capacity_bytes =
                  records_per_node * RecordSize(0, kValueBytes + 16);
              o.ring.range = 8192;  // primaries in [0, 4096), mirrors above
              o.initial_nodes = initial_nodes;
              o.replicas = replicas;
              o.fault = &injector;
              o.obs.metrics = &registry;
              o.obs.trace = &trace;
              if (durable != nullptr) o.durability_factory = durable->Factory();
              return o;
            }(),
            &provider, &clock),
        manager(
            [&] {
              ropts.obs.metrics = &registry;
              ropts.obs.trace = &trace;
              ropts.durable = durable;
              return ropts;
            }(),
            &cache, &clock) {}

  ~Fixture() { obs::MaybeDumpTraceFromEnv(trace); }  // CI schema validation

  [[nodiscard]] std::uint64_t Metric(const std::string& name) {
    return registry.GetCounter(name).Value();
  }

  /// The 2-copy invariant for one logical key: the routed primary holds it
  /// and (unless the mirror position routes back to the same node) the
  /// routed replica owner holds the mirror copy.
  [[nodiscard]] bool FullyReplicated(Key k) {
    auto p = cache.OwnerOf(k);
    if (!p.ok() || !cache.GetNode(*p)->Contains(k)) return false;
    auto m = cache.ReplicaOwnerOf(k);
    if (!m.ok()) return false;
    if (*m == *p) return true;  // co-located mirrors are dropped by design
    return cache.GetNode(*m)->Contains(cache.MirrorKey(k));
  }

  obs::MetricsRegistry registry;
  obs::TraceLog trace;
  VirtualClock clock;
  FaultInjector injector;
  cloudsim::CloudProvider provider;
  ElasticCache cache;
  RecoveryManager manager;
};

std::vector<Key> SeedKeys(ElasticCache& cache, std::size_t n,
                          Key stride = 37) {
  std::vector<Key> keys;
  for (std::size_t i = 0; i < n; ++i) {
    const Key k = (i * stride) % 4096;
    if (!cache.Put(k, Val(k)).ok()) continue;
    keys.push_back(k);
  }
  return keys;
}

std::size_t CountEvents(const obs::TraceLog& log, obs::EventKind kind) {
  std::size_t n = 0;
  for (const auto& e : log.Events()) {
    if (e.kind == kind) ++n;
  }
  return n;
}

// --- FailureDetector -------------------------------------------------------

TEST(FailureDetectorTest, ConfirmsDeadNodeAfterThresholdRoundsNoPutPath) {
  Fixture f(/*replicas=*/2, TestOptions());
  const auto keys = SeedKeys(f.cache, 40);
  ASSERT_GE(keys.size(), 30u);
  auto victim = f.cache.OwnerOf(keys[0]);
  ASSERT_TRUE(victim.ok());
  const std::uint64_t puts_before = f.cache.stats().puts;
  const TimePoint t0 = f.clock.now();

  // The node dies abruptly: its endpoint drops everything from now on.
  f.injector.MarkDown(*victim);

  // Each tick with no virtual-time progress runs exactly one probe round.
  f.manager.Tick();
  EXPECT_EQ(f.manager.detector().SuspicionOf(*victim), 1u);
  f.manager.Tick();
  EXPECT_EQ(f.manager.detector().SuspicionOf(*victim), 2u);
  EXPECT_TRUE(f.cache.kill_history().empty());
  // Detection itself is free and off the data path: no puts, no time.
  EXPECT_EQ(f.cache.stats().puts, puts_before);
  EXPECT_EQ(f.clock.now(), t0);

  f.manager.Tick();  // third missed round => confirmed dead
  ASSERT_EQ(f.cache.kill_history().size(), 1u);
  EXPECT_EQ(f.cache.kill_history()[0].node, *victim);
  EXPECT_EQ(f.cache.NodeCount(), 3u);
  EXPECT_EQ(f.Metric("recovery.nodes_confirmed_dead"), 1u);
  EXPECT_EQ(CountEvents(f.trace, obs::EventKind::kNodeConfirmedDead), 1u);
  EXPECT_GE(CountEvents(f.trace, obs::EventKind::kNodeSuspected), 2u);

  // The same tick already re-replicated the victim's keys.
  for (const Key k : keys) {
    EXPECT_TRUE(f.FullyReplicated(k)) << "key " << k;
    EXPECT_TRUE(f.cache.Get(k).ok()) << "key " << k;
  }
  EXPECT_GT(f.Metric("recovery.keys_rereplicated"), 0u);
  EXPECT_EQ(f.Metric("recovery.keys_unrecoverable"), 0u);
  EXPECT_EQ(f.manager.pending_keys(), 0u);
}

TEST(FailureDetectorTest, CatchUpRoundsAreCappedAtThreshold) {
  // A long quiet slice owes many rounds, but confirmation still requires
  // `suspect_threshold` failed probes within one poll — and a healthy node
  // is never over-suspected by elapsed time alone.
  Fixture f(/*replicas=*/2, TestOptions());
  SeedKeys(f.cache, 20);
  auto victim = f.cache.OwnerOf(3 * 37 % 4096);
  ASSERT_TRUE(victim.ok());
  f.manager.Tick();  // baseline poll so elapsed time is measured from here
  f.injector.MarkDown(*victim);
  f.clock.Advance(Duration::Seconds(30));  // owes 120 rounds; capped at 3
  f.manager.Tick();
  ASSERT_EQ(f.cache.kill_history().size(), 1u);
  EXPECT_EQ(f.cache.kill_history()[0].node, *victim);
}

TEST(FailureDetectorTest, SingleLostHeartbeatOnlySuspects) {
  FaultPlan plan;
  Fixture f(/*replicas=*/2, TestOptions(), plan);
  SeedKeys(f.cache, 20);
  const NodeId victim = f.cache.NodeIds().front();
  // Script exactly one lost STATS probe to one node; every later probe
  // succeeds.  (Scripting after construction would race the plan; instead
  // rebuild with the rule.)
  FaultPlan scripted;
  fault::ScriptedCallFault rule;
  rule.endpoint = victim;
  rule.type = net::MsgType::kStatsRequest;
  rule.any_type = false;
  rule.after_matching = 0;
  rule.count = 1;
  rule.kind = net::CallFaultKind::kDropRequest;
  scripted.calls.push_back(rule);
  Fixture g(/*replicas=*/2, TestOptions(), scripted);
  SeedKeys(g.cache, 20);

  g.manager.Tick();  // the scripted drop fires: suspected, not confirmed
  EXPECT_EQ(g.manager.detector().SuspicionOf(victim), 1u);
  EXPECT_TRUE(g.cache.kill_history().empty());
  g.manager.Tick();  // probe succeeds: suspicion clears
  EXPECT_EQ(g.manager.detector().SuspicionOf(victim), 0u);
  for (int i = 0; i < 10; ++i) g.manager.Tick();
  EXPECT_TRUE(g.cache.kill_history().empty());
  EXPECT_EQ(g.Metric("recovery.nodes_confirmed_dead"), 0u);
}

TEST(FailureDetectorTest, ProbabilisticHeartbeatLossToleratedByRetries) {
  const std::uint64_t seed = fault::FaultSeedFromEnv(0x11ec0511ull);
  std::printf("[ recovery ] heartbeat-noise seed = 0x%llx\n",
              static_cast<unsigned long long>(seed));
  FaultPlan plan;
  plan.seed = seed;
  plan.heartbeat_drop_p = 0.25;
  RecoveryOptions ropts = TestOptions();
  ropts.probe_attempts = 3;  // a round fails only if all three are lost
  Fixture f(/*replicas=*/2, ropts, plan);
  SeedKeys(f.cache, 20);
  for (int i = 0; i < 50; ++i) f.manager.Tick();
  // Noise actually fired...
  EXPECT_GT(f.Metric("recovery.probe_failures"), 0u);
  // ...but never three consecutive all-lost rounds on one healthy node.
  EXPECT_TRUE(f.cache.kill_history().empty())
      << "false positive with seed 0x" << std::hex << seed;
  EXPECT_EQ(f.cache.NodeCount(), 4u);
}

TEST(FailureDetectorTest, LastNodeIsNeverKilled) {
  Fixture f(/*replicas=*/1, TestOptions(), {}, /*initial_nodes=*/1);
  SeedKeys(f.cache, 10);
  f.injector.MarkDown(f.cache.NodeIds().front());
  for (int i = 0; i < 10; ++i) f.manager.Tick();
  EXPECT_TRUE(f.cache.kill_history().empty());
  EXPECT_EQ(f.cache.NodeCount(), 1u);
}

// --- Re-replication --------------------------------------------------------

TEST(RecoveryManagerTest, RestoresCopyInvariantAfterDirectCrash) {
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();  // crash injected directly
  Fixture f(/*replicas=*/2, ropts);
  const auto keys = SeedKeys(f.cache, 48);
  const NodeId victim = f.cache.NodeIds().front();
  auto report = f.cache.KillNode(victim);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->records_dropped, 0u);

  f.manager.Tick();

  for (const Key k : keys) {
    EXPECT_TRUE(f.FullyReplicated(k)) << "key " << k;
  }
  EXPECT_GT(f.Metric("recovery.keys_rereplicated"), 0u);
  EXPECT_GE(f.Metric("recovery.batches"), 1u);
  EXPECT_EQ(f.Metric("recovery.batch_rollbacks"), 0u);
  EXPECT_EQ(CountEvents(f.trace, obs::EventKind::kRereplicate),
            f.Metric("recovery.batches"));
  EXPECT_EQ(f.manager.pending_keys(), 0u);
  // A scrub right after recovery finds the fleet coherent.
  EXPECT_EQ(f.manager.ScrubNow(), 0u);
}

TEST(RecoveryManagerTest, SalvagesFromSpillTierWhenNoLiveCopy) {
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();
  Fixture f(/*replicas=*/1, ropts);  // no mirror tier at all
  cloudsim::PersistentStore spill({}, &f.clock);
  f.cache.AttachSpillStore(&spill);
  const auto keys = SeedKeys(f.cache, 40);
  const NodeId victim = f.cache.NodeIds().front();

  // Half of the fleet's keys also sit in the spill tier (spilled by an
  // earlier eviction); the rest exist nowhere else.
  std::set<Key> spilled;
  for (std::size_t i = 0; i < keys.size(); i += 2) {
    spill.Put(keys[i], Val(keys[i]));
    spilled.insert(keys[i]);
  }

  auto report = f.cache.KillNode(victim);
  ASSERT_TRUE(report.ok());
  std::size_t lost_spilled = 0;
  std::size_t lost_bare = 0;
  for (const Key k : report->keys_dropped) {
    (spilled.count(k) != 0 ? lost_spilled : lost_bare) += 1;
  }
  ASSERT_GT(lost_spilled, 0u);
  ASSERT_GT(lost_bare, 0u);

  f.manager.Tick();

  EXPECT_EQ(f.Metric("recovery.keys_from_spill"), lost_spilled);
  EXPECT_EQ(f.Metric("recovery.keys_unrecoverable"), lost_bare);
  for (const Key k : report->keys_dropped) {
    EXPECT_EQ(f.cache.Get(k).ok(), spilled.count(k) != 0) << "key " << k;
  }
}

TEST(RecoveryManagerTest, SalvagesFromDurableWalWhenNoLiveCopy) {
  // With one copy per key and no spill tier, a crash loses every key the
  // victim held — unless the fleet runs with durability, in which case the
  // recovery manager salvages them from the retired node's WAL+snapshot.
  std::string dir = ::testing::TempDir() + "/rec_wal_salvage.XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  durability::DurabilityOptions dopts;
  dopts.dir = dir;
  dopts.fsync = false;
  durability::FleetDurability durable(dopts);

  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();
  Fixture f(/*replicas=*/1, ropts, {}, /*initial_nodes=*/4,
            /*records_per_node=*/64, &durable);
  const auto keys = SeedKeys(f.cache, 40);
  ASSERT_GT(keys.size(), 0u);
  EXPECT_EQ(durable.attached(), 4u);
  const NodeId victim = f.cache.NodeIds().front();

  auto report = f.cache.KillNode(victim);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->keys_dropped.size(), 0u);
  EXPECT_EQ(durable.retired(), 1u);  // the victim's dir moved to salvage

  f.manager.Tick();

  EXPECT_EQ(f.Metric("recovery.keys_from_wal"), report->keys_dropped.size());
  EXPECT_EQ(f.Metric("recovery.keys_unrecoverable"), 0u);
  for (const Key k : report->keys_dropped) {
    auto got = f.cache.Get(k);
    ASSERT_TRUE(got.ok()) << "key " << k;
    EXPECT_EQ(*got, Val(k)) << "key " << k;
  }
}

TEST(RecoveryManagerTest, InterruptedBatchRollsBackAndRetries) {
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();
  ropts.rereplicate_batch = 8;

  // Shadow run: replay the deterministic seeding + crash with no faults to
  // learn how many PUT RPCs precede recovery, so the scripted outage below
  // can target exactly the first re-insert of the repair batch.
  std::size_t put_rpcs_before_recovery = 0;
  std::size_t retry_attempts = 0;
  {
    Fixture shadow(/*replicas=*/2, ropts);
    SeedKeys(shadow.cache, 48);
    ASSERT_TRUE(shadow.cache.KillNode(shadow.cache.NodeIds().front()).ok());
    const auto stats = shadow.cache.stats();
    // Every PUT RPC so far was a first-try success: one per logical put,
    // one per mirror write that went over the wire.
    put_rpcs_before_recovery = stats.puts + stats.replica_writes;
    retry_attempts = shadow.cache.options().rpc_retry.max_attempts;
  }

  // Wire loss (not a down endpoint — the Put path would reactively crash
  // the node) swallowing every retry of that one PUT.
  FaultPlan plan;
  fault::ScriptedCallFault rule;
  rule.endpoint = fault::kAnyEndpoint;
  rule.type = net::MsgType::kPutRequest;
  rule.any_type = false;
  rule.after_matching = put_rpcs_before_recovery;
  rule.count = retry_attempts;
  rule.kind = net::CallFaultKind::kDropRequest;
  plan.calls.push_back(rule);

  Fixture f(/*replicas=*/2, ropts, plan);
  const auto keys = SeedKeys(f.cache, 48);
  const NodeId victim = f.cache.NodeIds().front();
  auto report = f.cache.KillNode(victim);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->records_dropped, 0u);

  f.manager.Tick();
  EXPECT_EQ(f.Metric("recovery.batch_rollbacks"), 1u);
  EXPECT_GT(f.manager.pending_keys(), 0u);
  EXPECT_EQ(f.Metric("recovery.keys_rereplicated"), 0u);
  // The interrupted batch left no partial copies behind: the fleet still
  // has no stray primaries for the keys awaiting repair.
  EXPECT_EQ(f.cache.NodeCount(), 3u);

  // The outage has passed; the next tick heals everything exactly once.
  f.manager.Tick();
  EXPECT_EQ(f.manager.pending_keys(), 0u);
  EXPECT_EQ(f.Metric("recovery.batch_rollbacks"), 1u);
  for (const Key k : keys) {
    EXPECT_TRUE(f.FullyReplicated(k)) << "key " << k;
  }
  EXPECT_EQ(f.manager.ScrubNow(), 0u);
}

// --- The scenario the layer exists for -------------------------------------

TEST(RecoveryManagerTest, DoubleCrashLosesNothingWithRecovery) {
  // Crash A, let recovery finish, crash B: every key stays readable.  The
  // control arm below runs the identical script without recovery and
  // demonstrably loses keys.
  const auto run = [](bool with_recovery) {
    RecoveryOptions ropts = TestOptions();
    ropts.enabled = with_recovery;
    ropts.heartbeat_every = Duration::Zero();
    Fixture f(/*replicas=*/2, ropts);
    const auto keys = SeedKeys(f.cache, 48);
    // Pick A/B as the primary/replica owners of one key, so without repair
    // the second crash removes that key's last copy.
    const Key probe = keys[1];
    const NodeId a = *f.cache.OwnerOf(probe);
    const NodeId b = *f.cache.ReplicaOwnerOf(probe);
    EXPECT_NE(a, b);
    EXPECT_TRUE(f.cache.KillNode(a).ok());
    f.manager.Tick();  // no-op when recovery is disabled
    EXPECT_TRUE(f.cache.KillNode(b).ok());
    std::size_t lost = 0;
    for (const Key k : keys) {
      if (!f.cache.Get(k).ok()) ++lost;
    }
    return lost;
  };
  EXPECT_EQ(run(/*with_recovery=*/true), 0u);
  EXPECT_GT(run(/*with_recovery=*/false), 0u);
}

// --- Anti-entropy scrub ----------------------------------------------------

TEST(ScrubTest, RepairsMissingMirrorAndConflictPrimaryWins) {
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();
  Fixture f(/*replicas=*/2, ropts);
  const auto keys = SeedKeys(f.cache, 32);
  ASSERT_GE(keys.size(), 4u);
  const Key missing = keys[0];
  const Key conflicted = keys[1];
  const Key orphaned = keys[2];

  // Divergence: one mirror vanishes, one mirror holds a different value,
  // and one *primary* vanishes (its mirror becomes a legitimate orphan).
  f.cache.ErasePhysicalRecord(f.cache.MirrorKey(missing));
  f.cache.WriteMirror(conflicted, "divergent-mirror-value");
  f.cache.ErasePhysicalRecord(orphaned);

  const std::size_t divergent = f.manager.ScrubNow();
  EXPECT_GE(divergent, 1u);
  EXPECT_GE(f.Metric("recovery.scrub_repairs"), 2u);
  EXPECT_GE(CountEvents(f.trace, obs::EventKind::kScrubRepair), 2u);

  // Repaired: mirror restored, conflict overwritten with the primary copy.
  EXPECT_TRUE(f.cache.GetNode(*f.cache.ReplicaOwnerOf(missing))
                  ->Contains(f.cache.MirrorKey(missing)));
  const std::string* mirror =
      f.cache.GetNode(*f.cache.ReplicaOwnerOf(conflicted))
          ->Find(f.cache.MirrorKey(conflicted));
  ASSERT_NE(mirror, nullptr);
  EXPECT_EQ(*mirror, Val(conflicted));
  // The orphan mirror is untouched — it is stale redundancy, not damage.
  EXPECT_TRUE(f.cache.GetNode(*f.cache.ReplicaOwnerOf(orphaned))
                  ->Contains(f.cache.MirrorKey(orphaned)));
  auto owner = f.cache.OwnerOf(orphaned);
  ASSERT_TRUE(owner.ok());
  EXPECT_FALSE(f.cache.GetNode(*owner)->Contains(orphaned));

  // A second pass finds nothing left to repair.
  EXPECT_EQ(f.manager.ScrubNow(), 0u);
}

TEST(ScrubTest, PeriodicScrubRunsOnSchedule) {
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();
  ropts.scrub_every_ticks = 3;
  Fixture f(/*replicas=*/2, ropts);
  SeedKeys(f.cache, 16);
  for (int i = 0; i < 9; ++i) f.manager.Tick();
  EXPECT_EQ(f.Metric("recovery.scrub_passes"), 3u);
  EXPECT_EQ(f.Metric("recovery.scrub_divergent_buckets"), 0u);
}

// --- Options / env ---------------------------------------------------------

TEST(RecoveryOptionsTest, EnvOverlayParsesKnobs) {
  ASSERT_EQ(setenv("ECC_RECOVERY", "1", 1), 0);
  ASSERT_EQ(setenv("ECC_HEARTBEAT_MS", "125", 1), 0);
  ASSERT_EQ(setenv("ECC_SUSPECT_N", "5", 1), 0);
  ASSERT_EQ(setenv("ECC_SCRUB_EVERY", "7", 1), 0);
  const RecoveryOptions r = RecoveryOptionsFromEnv();
  EXPECT_TRUE(r.enabled);
  EXPECT_EQ(r.heartbeat_every, Duration::Millis(125));
  EXPECT_EQ(r.suspect_threshold, 5u);
  EXPECT_EQ(r.scrub_every_ticks, 7u);
  ASSERT_EQ(unsetenv("ECC_RECOVERY"), 0);
  ASSERT_EQ(unsetenv("ECC_HEARTBEAT_MS"), 0);
  ASSERT_EQ(unsetenv("ECC_SUSPECT_N"), 0);
  ASSERT_EQ(unsetenv("ECC_SCRUB_EVERY"), 0);
  // Defaults survive an empty environment.
  const RecoveryOptions d = RecoveryOptionsFromEnv();
  EXPECT_FALSE(d.enabled);
  EXPECT_EQ(d.suspect_threshold, 3u);
}

// --- Coordinator wiring ----------------------------------------------------

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

TEST(CoordinatorWiringTest, SequentialCoordinatorHealsScriptedCrash) {
  // The seeded acceptance scenario: a node dies mid-run; the maintenance
  // tick at the next slice boundary detects it (zero Put-path involvement),
  // re-replicates every lost key, and a scrub then reports the fleet
  // coherent.  Replayable: ECC_FAULT_SEED overrides the plan seed and
  // ECC_TRACE_DUMP captures the event log.
  const std::uint64_t seed = fault::FaultSeedFromEnv(0xacce97ull);
  std::printf("[ recovery ] acceptance seed = 0x%llx\n",
              static_cast<unsigned long long>(seed));
  FaultPlan plan;
  plan.seed = seed;
  plan.heartbeat_drop_p = 0.10;  // detector must see through probe noise
  RecoveryOptions ropts = TestOptions();
  ropts.probe_attempts = 3;
  ropts.scrub_every_ticks = 1;
  Fixture f(/*replicas=*/2, ropts, plan, /*initial_nodes=*/4,
            /*records_per_node=*/256);

  service::SyntheticService service("svc", Duration::Seconds(23), 100);
  sfc::Linearizer linearizer(Grid());
  core::CoordinatorOptions copts;
  copts.obs.metrics = &f.registry;
  copts.obs.trace = &f.trace;
  core::Coordinator coordinator(copts, &f.cache, &service, &linearizer,
                                &f.clock);
  coordinator.AttachMaintenance(&f.manager);

  // Warm a working set, then crash the busiest node between slices.
  for (Key k = 0; k < 120; ++k) (void)coordinator.ProcessKey(k % 128);
  (void)coordinator.EndTimeStep();
  ASSERT_EQ(f.manager.ticks(), 1u);
  const NodeId victim = f.cache.NodeIds().front();
  f.injector.MarkDown(victim);
  const TimePoint down_at = f.clock.now();

  // One slice of queries; its boundary tick owes >= threshold heartbeat
  // rounds of virtual time, so detection completes within
  // suspect_threshold * heartbeat_every of probing — all off the Put path.
  for (Key k = 0; k < 40; ++k) (void)coordinator.ProcessKey(k % 128);
  (void)coordinator.EndTimeStep();

  ASSERT_EQ(f.cache.kill_history().size(), 1u);
  EXPECT_EQ(f.cache.kill_history()[0].node, victim);
  EXPECT_EQ(f.Metric("recovery.nodes_confirmed_dead"), 1u);
  bool saw_confirmation = false;
  for (const auto& e : f.trace.Events()) {
    if (e.kind != obs::EventKind::kNodeConfirmedDead) continue;
    saw_confirmation = true;
    EXPECT_GE(TimePoint(TimePoint::Epoch() + Duration::Micros(
                                                 static_cast<std::int64_t>(
                                                     e.t_us))),
              down_at);
  }
  EXPECT_TRUE(saw_confirmation);

  // Every dropped key is whole again, and the scheduled scrub agrees.
  for (const Key k : f.cache.kill_history()[0].keys_dropped) {
    const Key logical = k >= 4096 ? f.cache.MirrorKey(k) : k;
    EXPECT_TRUE(f.FullyReplicated(logical)) << "key " << logical;
  }
  EXPECT_EQ(f.manager.pending_keys(), 0u);
  EXPECT_EQ(f.manager.ScrubNow(), 0u);
  EXPECT_EQ(f.Metric("recovery.keys_unrecoverable"), 0u);
}

TEST(CoordinatorWiringTest, MultiWorkerCoordinatorTicksMaintenanceQuiesced) {
  // Four workers drive the same MaintenanceTask hook from the quiesced
  // EndTimeStep; with workers actually exercising the backend in between,
  // this is the TSan witness for the wiring.
  VirtualClock clock;
  cloudsim::CloudProvider provider(
      [] {
        cloudsim::CloudOptions o;
        o.boot_mean = Duration::Seconds(60);
        o.seed = 3;
        return o;
      }(),
      &clock);
  ElasticCache cache(
      [] {
        ElasticCacheOptions o;
        o.node_capacity_bytes = 256 * RecordSize(0, std::size_t{128});
        o.ring.range = 1u << 11;
        return o;
      }(),
      &provider, &clock);
  core::StripedBackend striped(&cache, /*stripes=*/8);
  service::SyntheticService service("svc", Duration::Seconds(23), 100);
  sfc::Linearizer linearizer(Grid());
  core::CoordinatorOptions popts;
  popts.workers = 4;
  core::Coordinator coordinator(popts, &striped, &service, &linearizer);
  RecoveryOptions ropts = TestOptions();
  ropts.heartbeat_every = Duration::Zero();  // replicas==1: detect-only off
  RecoveryManager manager(ropts, &cache, &clock);
  coordinator.AttachMaintenance(&manager);

  for (int step = 0; step < 3; ++step) {
    std::vector<std::thread> threads;
    for (std::size_t w = 0; w < 4; ++w) {
      threads.emplace_back([&, w] {
        for (Key k = 0; k < 16; ++k) {
          (void)coordinator.ProcessKey((w * 16 + k) % 128, w);
        }
      });
    }
    for (auto& t : threads) t.join();
    (void)coordinator.EndTimeStep();
  }
  EXPECT_EQ(manager.ticks(), 3u);
}

}  // namespace
}  // namespace ecc::recovery
