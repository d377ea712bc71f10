// Unit tests for the elasticity policy engine (DESIGN.md §13): epsilon
// cadence carry (the ISSUE 7 drift regression), cost-aware TTL math,
// Mth-request ghost table, predictive prewarm quota, the factory,
// decision-log encoding, and the seeded determinism property.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloudsim/provider.h"
#include "core/coordinator.h"
#include "core/elastic_cache.h"
#include "fault/fault.h"
#include "policy/admission.h"
#include "policy/cost_ttl.h"
#include "policy/policy.h"
#include "policy/provision.h"
#include "service/service.h"
#include "workload/generator.h"

namespace ecc::policy {
namespace {

// --- EpsilonCadence ---------------------------------------------------------

TEST(EpsilonCadenceTest, FiresEveryEpsilonSingleSliceExpirations) {
  EpsilonCadence c(5);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 4; ++i) EXPECT_FALSE(c.Due(1));
    EXPECT_TRUE(c.Due(1));
  }
}

TEST(EpsilonCadenceTest, CarriesSurplusAcrossMultiSliceExpiry) {
  // The ISSUE 7 drift regression: a dynamic-window shrink can expire
  // several slices at one boundary.  The pre-refactor counters reset to
  // zero when contraction fired, dropping the surplus — the next
  // contraction then arrived up to epsilon-1 expirations late.
  EpsilonCadence c(5);
  EXPECT_TRUE(c.Due(7));        // 7 expirations: due, surplus 2 carried
  EXPECT_EQ(c.pending(), 2u);
  EXPECT_FALSE(c.Due(1));       // 3
  EXPECT_FALSE(c.Due(1));       // 4
  EXPECT_TRUE(c.Due(1));        // 5 — three more, not five (no drift)
  EXPECT_EQ(c.pending(), 0u);
}

TEST(EpsilonCadenceTest, LargeBatchFiresOnConsecutiveBoundaries) {
  // 12 expirations with epsilon 5 owes two contractions; the second fires
  // on the very next expiring boundary.
  EpsilonCadence c(5);
  EXPECT_TRUE(c.Due(12));
  EXPECT_EQ(c.pending(), 7u);
  EXPECT_TRUE(c.Due(1));
  EXPECT_EQ(c.pending(), 3u);
}

TEST(EpsilonCadenceTest, DisabledAndIdleBoundaries) {
  EpsilonCadence off(0);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(off.Due(3));

  EpsilonCadence c(2);
  // Boundaries where nothing expired (window still filling) do not count.
  EXPECT_FALSE(c.Due(0));
  EXPECT_FALSE(c.Due(0));
  EXPECT_EQ(c.pending(), 0u);
  EXPECT_FALSE(c.Due(1));
  EXPECT_TRUE(c.Due(1));
}

// --- PaperBaselinePolicy ----------------------------------------------------

TEST(PaperBaselineTest, PassesDecayCandidatesVerbatim) {
  PaperBaselinePolicy p(5);
  const std::vector<Key> candidates = {42, 7, 7, 99};
  PolicyContext ctx;
  ctx.expired_slices = 1;
  EXPECT_EQ(p.SelectEvictions(candidates, ctx), candidates);
  EXPECT_TRUE(p.AdmitOnMiss(123));
  EXPECT_EQ(p.PrewarmTarget(ctx), 0u);
}

TEST(PaperBaselineTest, ContractionCadenceCarriesThroughShrink) {
  PaperBaselinePolicy p(5);
  PolicyContext ctx;
  ctx.expired_slices = 7;  // post-shrink boundary
  EXPECT_TRUE(p.ShouldContract(ctx));
  ctx.expired_slices = 1;
  EXPECT_FALSE(p.ShouldContract(ctx));
  EXPECT_FALSE(p.ShouldContract(ctx));
  EXPECT_TRUE(p.ShouldContract(ctx));  // 2 carried + 3 = 5
}

// --- CostAwareTtlPolicy -----------------------------------------------------

PolicyParams TtlParams() {
  PolicyParams p;
  p.kind = PolicyKind::kCostAwareTtl;
  return p;
}

/// One node, 100 records of ~1056 bytes live, 4096-record capacity.
PolicyContext OccupiedCtx(std::size_t step, double slice_hours = 0.1) {
  PolicyContext ctx;
  ctx.step = step;
  ctx.expired_slices = 1;
  ctx.node_count = 1;
  ctx.total_records = 100;
  ctx.used_bytes = 100 * 1056;
  ctx.capacity_bytes = 4096 * 1056;
  ctx.slice_hours = slice_hours;
  return ctx;
}

TEST(CostTtlTest, BreakEvenFromRecomputeCostAndOccupancy) {
  CostAwareTtlPolicy p(TtlParams());
  EXPECT_DOUBLE_EQ(p.BreakEvenSlices(), 0.0);  // no boundary seen yet
  (void)p.SelectEvictions({}, OccupiedCtx(1));
  // break_even = recompute_hours * records_per_node / slice_hours
  //            = (23/3600) * 4096 / 0.1
  const double expect = (23.0 / 3600.0) * 4096.0 / 0.1;
  EXPECT_NEAR(p.BreakEvenSlices(), expect, 1e-9);
}

TEST(CostTtlTest, ReusedKeyTtlTracksGapEma) {
  CostAwareTtlPolicy p(TtlParams());
  p.OnQuery(7, false, 0);
  p.OnQuery(7, true, 2);
  p.OnQuery(7, true, 4);  // gap EMA settles at 2
  // ttl = ttl_alpha * gap_ema = 2.0 * 2 = 4 (within [min, break_even]).
  EXPECT_DOUBLE_EQ(p.TtlSlicesFor(7), 4.0);
  // Repeats inside one slice carry no gap signal.
  p.OnQuery(7, true, 4);
  EXPECT_DOUBLE_EQ(p.TtlSlicesFor(7), 4.0);
  // Untracked keys report negative.
  EXPECT_LT(p.TtlSlicesFor(8), 0.0);
}

TEST(CostTtlTest, OneShotKeyGetsFractionOfBreakEven) {
  CostAwareTtlPolicy p(TtlParams());
  p.OnQuery(9, false, 0);
  (void)p.SelectEvictions({}, OccupiedCtx(1));
  EXPECT_NEAR(p.TtlSlicesFor(9), 0.5 * p.BreakEvenSlices(), 1e-9);
}

TEST(CostTtlTest, SweepEvictsPastTtlAndPassesUntrackedCandidates) {
  CostAwareTtlPolicy p(TtlParams());
  p.OnQuery(7, false, 0);
  p.OnQuery(7, true, 2);
  p.OnQuery(7, true, 4);   // ttl 4
  p.OnQuery(9, false, 0);  // one-shot: ttl ~130 after the first boundary
  (void)p.SelectEvictions({}, OccupiedCtx(1));

  // Boundary at step 9: key 7 aged 5 > 4 is swept; key 9 aged 9 survives.
  // The untracked decay candidate 999 passes through; the tracked
  // candidate 9 is overruled (reuse evidence says keep).
  const std::vector<Key> out = p.SelectEvictions({999, 9}, OccupiedCtx(9));
  EXPECT_EQ(out, (std::vector<Key>{7, 999}));
  EXPECT_LT(p.TtlSlicesFor(7), 0.0);  // no longer tracked
  EXPECT_GT(p.TtlSlicesFor(9), 0.0);
}

TEST(CostTtlTest, TrackedCapShedsOldestAndEvicts) {
  PolicyParams params = TtlParams();
  params.ttl_tracked_cap = 4;
  CostAwareTtlPolicy p(params);
  for (std::size_t k = 1; k <= 6; ++k) {
    p.OnQuery(k, false, k);  // key k last seen at step k
  }
  const std::vector<Key> out = p.SelectEvictions({}, OccupiedCtx(6));
  // One-shot TTLs are ~130 slices, so nothing ages out; the cap sheds the
  // two oldest-accessed keys, and shedding also evicts.
  EXPECT_EQ(out, (std::vector<Key>{1, 2}));
  EXPECT_EQ(p.tracked(), 4u);
}

TEST(CostTtlTest, CapTieBreaksOnLowerKey) {
  PolicyParams params = TtlParams();
  params.ttl_tracked_cap = 2;
  CostAwareTtlPolicy p(params);
  p.OnQuery(5, false, 0);
  p.OnQuery(3, false, 0);
  p.OnQuery(8, false, 1);
  const std::vector<Key> out = p.SelectEvictions({}, OccupiedCtx(1));
  EXPECT_EQ(out, (std::vector<Key>{3}));  // same step: lower key sheds first
}

TEST(CostTtlTest, EmptyCacheKeepsPriorBreakEven) {
  CostAwareTtlPolicy p(TtlParams());
  (void)p.SelectEvictions({}, OccupiedCtx(1));
  const double before = p.BreakEvenSlices();
  PolicyContext empty;
  empty.step = 2;
  empty.expired_slices = 1;
  empty.node_count = 1;
  empty.slice_hours = 0.1;
  (void)p.SelectEvictions({}, empty);
  EXPECT_DOUBLE_EQ(p.BreakEvenSlices(), before);
}

// --- MthRequestAdmissionPolicy ----------------------------------------------

PolicyParams AdmitParams(std::size_t m, std::size_t ghost_cap = 1024) {
  PolicyParams p;
  p.kind = PolicyKind::kMthAdmission;
  p.admit_m = m;
  p.admit_ghost_capacity = ghost_cap;
  return p;
}

TEST(AdmissionTest, AdmitsOnMthRequestThenRestarts) {
  MthRequestAdmissionPolicy p(AdmitParams(2));
  EXPECT_FALSE(p.AdmitOnMiss(5));  // 1st miss: remembered, refused
  EXPECT_TRUE(p.AdmitOnMiss(5));   // 2nd miss: admitted, ghost cleared
  EXPECT_EQ(p.ghost_size(), 0u);
  EXPECT_FALSE(p.AdmitOnMiss(5));  // the count restarts after admission
  EXPECT_EQ(p.denied(), 2u);
}

TEST(AdmissionTest, MOfOneAdmitsEverything) {
  MthRequestAdmissionPolicy p(AdmitParams(1));
  for (Key k = 0; k < 50; ++k) EXPECT_TRUE(p.AdmitOnMiss(k));
  EXPECT_EQ(p.ghost_size(), 0u);
  EXPECT_EQ(p.denied(), 0u);
}

TEST(AdmissionTest, MthRequestNeverBlockedWhileGhostSurvives) {
  const std::size_t m = 3;
  MthRequestAdmissionPolicy p(AdmitParams(m));
  for (Key k = 0; k < 10; ++k) {
    for (std::size_t i = 1; i < m; ++i) EXPECT_FALSE(p.AdmitOnMiss(k));
    EXPECT_TRUE(p.AdmitOnMiss(k));
  }
}

TEST(AdmissionTest, GhostTableFifoBound) {
  MthRequestAdmissionPolicy p(AdmitParams(2, /*ghost_cap=*/2));
  EXPECT_FALSE(p.AdmitOnMiss(1));
  EXPECT_FALSE(p.AdmitOnMiss(2));
  EXPECT_EQ(p.ghost_size(), 2u);
  EXPECT_FALSE(p.AdmitOnMiss(3));  // evicts ghost 1 (oldest)
  EXPECT_EQ(p.ghost_size(), 2u);
  // Key 1 was forgotten: its next miss counts as a first request again,
  // and remembering it pushes out ghost 2.
  EXPECT_FALSE(p.AdmitOnMiss(1));
  EXPECT_TRUE(p.AdmitOnMiss(1));
  EXPECT_FALSE(p.AdmitOnMiss(2));  // also forgotten meanwhile
}

// --- PredictiveProvisionPolicy ----------------------------------------------

class VectorForecast final : public VolumeForecast {
 public:
  VectorForecast(std::size_t base, std::vector<std::size_t> v)
      : base_(base), v_(std::move(v)) {}

  [[nodiscard]] std::size_t VolumeAt(std::size_t step) const override {
    return step < v_.size() ? v_[step] : base_;
  }

 private:
  std::size_t base_;
  std::vector<std::size_t> v_;
};

PolicyParams ProvisionParams() {
  PolicyParams p;
  p.kind = PolicyKind::kPredictive;
  p.provision_horizon = 10;
  p.provision_quota = 6;
  p.provision_grow_ratio = 1.3;
  return p;
}

PolicyContext FleetCtx(std::size_t step_queries, std::size_t nodes,
                       std::size_t live, std::size_t warm) {
  PolicyContext ctx;
  ctx.expired_slices = 1;
  ctx.step_queries = step_queries;
  ctx.node_count = nodes;
  ctx.live_instances = live;
  ctx.warm_pool = warm;
  return ctx;
}

TEST(ProvisionTest, PrewarmScalesTowardForecastPeakUnderQuota) {
  const VectorForecast ramp(250, {});
  PredictiveProvisionPolicy p(ProvisionParams(), &ramp);
  const PolicyContext ctx = FleetCtx(50, /*nodes=*/2, /*live=*/2, /*warm=*/0);
  // Peak 250 over current 50 -> scale 5x -> target 10 nodes, but only 4
  // slots remain under the quota of 6.
  const std::size_t n = p.PrewarmTarget(ctx);
  EXPECT_EQ(n, 4u);
  EXPECT_LE(ctx.live_instances + ctx.warm_pool + n, 6u);
}

TEST(ProvisionTest, QuotaFullMeansZeroEvenOnSteepForecast) {
  const VectorForecast ramp(1000, {});
  PredictiveProvisionPolicy p(ProvisionParams(), &ramp);
  EXPECT_EQ(p.PrewarmTarget(FleetCtx(10, 4, 4, 2)), 0u);
}

TEST(ProvisionTest, FlatForecastDoesNotPrewarm) {
  const VectorForecast flat(50, {});
  PredictiveProvisionPolicy p(ProvisionParams(), &flat);
  EXPECT_EQ(p.PrewarmTarget(FleetCtx(50, 2, 2, 0)), 0u);
}

TEST(ProvisionTest, NoForecastIsInertBaseline) {
  PolicyParams params = ProvisionParams();
  params.contraction_epsilon = 5;
  PredictiveProvisionPolicy p(params, nullptr);
  PolicyContext ctx = FleetCtx(50, 2, 2, 0);
  EXPECT_EQ(p.PrewarmTarget(ctx), 0u);
  ctx.expired_slices = 5;
  EXPECT_TRUE(p.ShouldContract(ctx));  // cadence only, no veto path
}

TEST(ProvisionTest, ContractionVetoedWhileForecastRises) {
  PolicyParams params = ProvisionParams();
  params.contraction_epsilon = 5;
  const VectorForecast ramp(250, {});
  PredictiveProvisionPolicy p(params, &ramp);
  PolicyContext ctx = FleetCtx(50, 2, 2, 0);
  ctx.expired_slices = 5;  // cadence due, but a 5x ramp is ahead
  EXPECT_FALSE(p.ShouldContract(ctx));
  EXPECT_EQ(p.contraction_vetoes(), 1u);
  // Once the forecast flattens, the next due boundary contracts.
  const VectorForecast flat(50, {});
  p.set_forecast(&flat);
  EXPECT_TRUE(p.ShouldContract(ctx));
  EXPECT_EQ(p.contraction_vetoes(), 1u);
}

// --- Factory ----------------------------------------------------------------

TEST(PolicyFactoryTest, KindNamesRoundTrip) {
  for (const PolicyKind k :
       {PolicyKind::kPaperBaseline, PolicyKind::kCostAwareTtl,
        PolicyKind::kMthAdmission, PolicyKind::kPredictive}) {
    PolicyParams params;
    params.kind = k;
    EXPECT_EQ(MakePolicy(params)->Name(), PolicyKindName(k));
  }
}

// --- DecisionLog ------------------------------------------------------------

TEST(DecisionLogTest, EncodesTaggedLittleEndianRecords) {
  DecisionLog log;
  log.Evictions({0x0102030405060708ull, 2});
  log.Admit(7, true);
  log.Contract(false);
  log.Prewarm(3);
  EXPECT_EQ(log.decisions(), 4u);
  const std::string& b = log.bytes();
  // 'E' + count(8) + 2 keys(16), 'A' + key(8) + flag, 'C' + flag,
  // 'P' + count(8).
  ASSERT_EQ(b.size(), 25u + 10u + 2u + 9u);
  EXPECT_EQ(b[0], 'E');
  EXPECT_EQ(static_cast<unsigned char>(b[1]), 2u);   // count, LE
  EXPECT_EQ(static_cast<unsigned char>(b[9]), 0x08); // key low byte first
  EXPECT_EQ(static_cast<unsigned char>(b[16]), 0x01);
  EXPECT_EQ(b[25], 'A');
  EXPECT_EQ(b[34], '\1');
  EXPECT_EQ(b[35], 'C');
  EXPECT_EQ(b[36], '\0');
  EXPECT_EQ(b[37], 'P');
}

TEST(DecisionLogTest, DigestSeparatesStreamsAndClearResets) {
  DecisionLog a, b;
  a.Admit(1, true);
  b.Admit(1, false);
  EXPECT_NE(a.Digest(), b.Digest());
  a.Clear();
  EXPECT_EQ(a.decisions(), 0u);
  EXPECT_TRUE(a.bytes().empty());
  DecisionLog empty;
  EXPECT_EQ(a.Digest(), empty.Digest());
}

// --- Determinism property (ECC_FAULT_SEED) ----------------------------------

constexpr std::uint64_t kKeyspace = 1u << 11;

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

/// Replay one seeded workload against a full coordinator stack and return
/// the policy's recorded decision bytes.
std::string SeededDecisionBytes(PolicyKind kind) {
  const std::uint64_t seed = fault::FaultSeedFromEnv(17);

  VirtualClock clock;
  cloudsim::CloudOptions copts_cloud;
  copts_cloud.boot_mean = Duration::Seconds(60);
  copts_cloud.seed = 2;
  cloudsim::CloudProvider provider(copts_cloud, &clock);

  core::ElasticCacheOptions eopts;
  eopts.node_capacity_bytes = 64 * core::RecordSize(0, std::size_t{128});
  eopts.ring.range = kKeyspace;
  core::ElasticCache cache(eopts, &provider, &clock);

  service::SyntheticService service("svc", Duration::Seconds(23), 100);
  sfc::Linearizer linearizer(Grid());

  PolicyParams params;
  params.kind = kind;
  std::unique_ptr<ElasticityPolicy> inner = MakePolicy(params);
  RecordingPolicy recording(inner.get());

  core::CoordinatorOptions copts;
  copts.policy = &recording;
  copts.provider = &provider;
  core::Coordinator coordinator(copts, &cache, &service, &linearizer, &clock);

  workload::UniformKeyGenerator gen(kKeyspace, seed);
  for (std::size_t step = 1; step <= 25; ++step) {
    for (std::size_t i = 0; i < 40; ++i) {
      (void)coordinator.ProcessKey(gen.Next());
    }
    (void)coordinator.EndTimeStep();
  }
  EXPECT_GT(recording.log().decisions(), 0u);
  return recording.log().bytes();
}

TEST(PolicyDeterminismTest, DecisionsByteIdenticalAcrossRunsWithSameSeed) {
  // ECC_FAULT_SEED (when set) feeds the workload seed through
  // fault::FaultSeedFromEnv, so a failed randomized run replays exactly.
  for (const PolicyKind kind :
       {PolicyKind::kPaperBaseline, PolicyKind::kCostAwareTtl,
        PolicyKind::kMthAdmission, PolicyKind::kPredictive}) {
    const std::string first = SeededDecisionBytes(kind);
    const std::string second = SeededDecisionBytes(kind);
    EXPECT_EQ(first, second) << "nondeterministic decisions from "
                             << PolicyKindName(kind);
  }
}

}  // namespace
}  // namespace ecc::policy
