// Policy-conformance harness (ISSUE 7, DESIGN.md §13): every elasticity
// policy is replayed through a table of seeded end-to-end scenarios —
// phased ramp, zipf hotspot, brownout, crash + re-replication — behind a
// probe decorator that checks the per-policy invariants at every decision:
//
//   * no key is served past its TTL bound (cost-ttl; bound is ttl + 1,
//     see cost_ttl.cc SelectEvictions),
//   * admission never blocks a key's Mth request (mth-admission),
//   * pre-provisioning never exceeds the quota (predictive),
//   * PaperBaselinePolicy (and the kinds that inherit its eviction rule)
//     reproduce the decay candidates verbatim — the seed-identical
//     eviction guarantee,
//
// plus, for every scenario x policy cell, byte-identical decision logs
// across two runs of the same seed (ECC_FAULT_SEED replays a failure),
// pinned to known digests.  Every replicas == 1 scenario also runs on eight
// workers over a StripedBackend, where the per-query hooks must run too;
// there the order of hook calls depends on scheduling, so replay is a
// one-worker check.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloudsim/provider.h"
#include "core/coordinator.h"
#include "core/elastic_cache.h"
#include "core/striped_backend.h"
#include "fault/fault.h"
#include "fault/faulty_service.h"
#include "policy/admission.h"
#include "policy/cost_ttl.h"
#include "policy/policy.h"
#include "policy/provision.h"
#include "recovery/recovery.h"
#include "service/service.h"
#include "workload/generator.h"

namespace ecc::policy {
namespace {

constexpr std::uint64_t kKeyspace = 1u << 11;

sfc::LinearizerOptions Grid() {
  sfc::LinearizerOptions opts;
  opts.spatial_bits = 4;
  opts.time_bits = 3;
  return opts;
}

// --- Scenario table ---------------------------------------------------------

std::size_t PhasedRate(std::size_t step) {
  // The paper's phased profile: warm trickle, linear ramp, plateau, cool.
  if (step <= 12) return 15;
  if (step <= 24) return 15 + (90 - 15) * (step - 12) / 12;
  if (step <= 40) return 90;
  return 30;
}

std::size_t Rate30(std::size_t) { return 30; }
std::size_t Rate40(std::size_t) { return 40; }

enum class KeyDraw { kUniform, kZipf };

struct Scenario {
  const char* name;
  std::size_t steps;
  std::size_t (*rate)(std::size_t step);  // 1-based step
  KeyDraw keys;
  bool brownout;
  std::size_t crash_at;  // EndTimeStep index to kill a node at; 0 = never
  std::size_t replicas;
  std::size_t initial_nodes;
};

const Scenario kScenarios[] = {
    {"phased-ramp", 48, PhasedRate, KeyDraw::kUniform, false, 0, 1, 1},
    {"zipf-hotspot", 40, Rate40, KeyDraw::kZipf, false, 0, 1, 1},
    {"brownout", 30, Rate30, KeyDraw::kUniform, true, 0, 1, 1},
    {"crash-rereplicate", 36, Rate40, KeyDraw::kUniform, false, 18, 2, 4},
};

/// Adapts a scenario's rate table onto the pre-provisioner's forecast
/// surface (the planned intensity is a perfect volume forecast).
class ScheduleForecast final : public VolumeForecast {
 public:
  explicit ScheduleForecast(const Scenario* sc) : sc_(sc) {}
  [[nodiscard]] std::size_t VolumeAt(std::size_t step) const override {
    return step > sc_->steps ? sc_->rate(sc_->steps) : sc_->rate(step);
  }

 private:
  const Scenario* sc_;
};

// --- Invariant probe --------------------------------------------------------

/// Decorator between the coordinator and the policy under test: forwards
/// every call and asserts the conformance invariants on the way through.
class ConformanceProbe final : public ElasticityPolicy {
 public:
  ConformanceProbe(ElasticityPolicy* inner, const PolicyParams& params)
      : inner_(inner), p_(params) {
    if (p_.kind == PolicyKind::kCostAwareTtl) {
      ttl_ = static_cast<CostAwareTtlPolicy*>(inner);
    }
  }

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }

  void OnQuery(Key k, bool hit, std::size_t step) override {
    if (ttl_ != nullptr && hit) {
      // Serve-past-TTL bound: a cached key is always tracked, and between
      // the sweep that let it survive and this hit at most one slice
      // elapsed, so its age may exceed the ttl by at most 1.  TtlSlicesFor
      // is read before forwarding, i.e. with the exact state the last
      // sweep used.
      const double ttl = ttl_->TtlSlicesFor(k);
      EXPECT_GE(ttl, 0.0) << "hit on untracked key " << k;
      const auto it = last_seen_.find(k);
      if (ttl >= 0.0 && it != last_seen_.end()) {
        EXPECT_LE(static_cast<double>(step - it->second), ttl + 1.0)
            << "key " << k << " served past its TTL bound at step " << step;
      }
    }
    last_seen_[k] = step;
    inner_->OnQuery(k, hit, step);
  }

  [[nodiscard]] bool AdmitOnMiss(Key k) override {
    const bool admitted = inner_->AdmitOnMiss(k);
    if (p_.kind == PolicyKind::kMthAdmission && p_.admit_m > 1) {
      // Shadow the ghost table (its capacity exceeds the scenario key
      // population, so the real one never forgets): admission must fire
      // on exactly the Mth requested miss, never later.
      const std::size_t count = ++shadow_misses_[k];
      EXPECT_EQ(admitted, count >= p_.admit_m) << "key " << k;
      if (count >= p_.admit_m) {
        EXPECT_TRUE(admitted) << "Mth request blocked for key " << k;
        shadow_misses_[k] = 0;
      }
    } else {
      EXPECT_TRUE(admitted) << Name() << " unexpectedly refused key " << k;
    }
    return admitted;
  }

  [[nodiscard]] std::vector<Key> SelectEvictions(
      const std::vector<Key>& decay_candidates,
      const PolicyContext& ctx) override {
    std::vector<Key> out = inner_->SelectEvictions(decay_candidates, ctx);
    if (p_.kind != PolicyKind::kCostAwareTtl) {
      // Every other kind keeps the paper's eviction rule: the decay
      // candidates pass through verbatim (seed-identical decisions).
      EXPECT_EQ(out, decay_candidates);
    } else {
      // Post-sweep: no tracked (hence no cached) key sits past its TTL,
      // and the tracking table honors its bound.
      ttl_->ForEachTracked([&](Key k, std::size_t last, double ttl) {
        EXPECT_LE(static_cast<double>(ctx.step) - static_cast<double>(last),
                  ttl)
            << "key " << k << " survived the sweep past its TTL";
      });
      EXPECT_LE(ttl_->tracked(), p_.ttl_tracked_cap);
    }
    return out;
  }

  [[nodiscard]] bool ShouldContract(const PolicyContext& ctx) override {
    return inner_->ShouldContract(ctx);
  }

  [[nodiscard]] std::size_t PrewarmTarget(const PolicyContext& ctx) override {
    const std::size_t n = inner_->PrewarmTarget(ctx);
    if (n > 0) {
      EXPECT_EQ(p_.kind, PolicyKind::kPredictive);
      EXPECT_LE(ctx.live_instances + ctx.warm_pool + n, p_.provision_quota)
          << "pre-provisioned past the quota";
    }
    return n;
  }

 private:
  ElasticityPolicy* inner_;
  PolicyParams p_;
  CostAwareTtlPolicy* ttl_ = nullptr;  // set only for the cost-ttl kind
  std::unordered_map<Key, std::size_t> last_seen_;
  std::unordered_map<Key, std::size_t> shadow_misses_;
};

// --- Scenario runner --------------------------------------------------------

struct RunResult {
  std::string decision_bytes;
  std::uint64_t digest = 0;
  std::size_t decisions = 0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t admit_denials = 0;
  std::size_t ttl_tracked = 0;  // cost-ttl only
};

RunResult RunScenario(const Scenario& sc, const PolicyParams& base_params,
                      std::size_t workers) {
  const std::uint64_t seed = fault::FaultSeedFromEnv(29);

  VirtualClock clock;
  cloudsim::CloudOptions cloud_opts;
  cloud_opts.boot_mean = Duration::Seconds(60);
  cloud_opts.seed = 2;
  cloudsim::CloudProvider provider(cloud_opts, &clock);

  core::ElasticCacheOptions eopts;
  eopts.node_capacity_bytes = 64 * core::RecordSize(0, std::size_t{128});
  // Replicated fleets mirror at k + range/2: keep key draws in the lower
  // half so primaries and mirrors occupy disjoint arcs.
  eopts.ring.range = sc.replicas > 1 ? 2 * kKeyspace : kKeyspace;
  eopts.initial_nodes = sc.initial_nodes;
  eopts.replicas = sc.replicas;
  core::ElasticCache cache(eopts, &provider, &clock);
  // More than one worker needs a thread-safe backend (replicas == 1).
  std::unique_ptr<core::StripedBackend> striped;
  core::CacheBackend* backend = &cache;
  if (workers > 1) {
    striped = std::make_unique<core::StripedBackend>(&cache);
    backend = striped.get();
  }

  service::SyntheticService synthetic("svc", Duration::Seconds(23), 100);
  fault::FaultPlan plan;
  plan.seed = seed;
  if (sc.brownout) {
    plan.brownouts.push_back({/*from_slice=*/2, /*slices=*/6,
                              /*latency_multiplier=*/10.0});
  }
  fault::FaultInjector injector(plan);
  fault::FaultyService faulty(&synthetic, &injector, Duration::Seconds(5));
  service::Service* svc =
      sc.brownout ? static_cast<service::Service*>(&faulty) : &synthetic;

  sfc::Linearizer linearizer(Grid());

  PolicyParams params = base_params;
  std::unique_ptr<ElasticityPolicy> inner = MakePolicy(params);
  ScheduleForecast forecast(&sc);
  if (params.kind == PolicyKind::kPredictive) {
    static_cast<PredictiveProvisionPolicy*>(inner.get())
        ->set_forecast(&forecast);
  }
  ConformanceProbe probe(inner.get(), params);
  RecordingPolicy recording(&probe);

  core::CoordinatorOptions copts;
  copts.workers = workers;
  copts.policy = &recording;
  copts.provider = &provider;
  if (sc.brownout) {
    copts.overload.enabled = true;
    copts.overload.query_deadline = Duration::Seconds(60);
    copts.overload.breaker_enabled = true;
  }
  // One worker runs on the shared clock, the paper's sequential accounting.
  core::Coordinator coordinator(copts, backend, svc, &linearizer,
                                workers == 1 ? &clock : nullptr);

  // Crash scenarios get the recovery manager so re-replication runs at the
  // maintenance boundary after the kill.
  recovery::RecoveryOptions ropts;
  ropts.enabled = sc.crash_at > 0;
  ropts.heartbeat_every = Duration::Zero();  // the crash is injected
  recovery::RecoveryManager manager(ropts, &cache, &clock);
  if (sc.crash_at > 0) coordinator.AttachMaintenance(&manager);

  std::unique_ptr<workload::KeyGenerator> gen;
  switch (sc.keys) {
    case KeyDraw::kUniform:
      gen = std::make_unique<workload::UniformKeyGenerator>(kKeyspace, seed);
      break;
    case KeyDraw::kZipf:
      gen = std::make_unique<workload::ZipfKeyGenerator>(kKeyspace, 1.1,
                                                         seed);
      break;
  }

  for (std::size_t step = 1; step <= sc.steps; ++step) {
    if (sc.crash_at > 0 && step == sc.crash_at) {
      const auto victims = cache.NodeIds();
      EXPECT_FALSE(victims.empty()) << sc.name;
      if (!victims.empty()) {
        EXPECT_TRUE(cache.KillNode(victims.front()).ok()) << sc.name;
      }
    }
    std::vector<core::Key> batch(sc.rate(step));
    for (core::Key& k : batch) k = gen->Next();
    (void)coordinator.RunKeys(batch);
    (void)coordinator.EndTimeStep();
    if (sc.brownout) injector.AdvanceServiceSlice();
  }

  RunResult result;
  result.decision_bytes = recording.log().bytes();
  result.digest = recording.log().Digest();
  result.decisions = recording.log().decisions();
  result.queries = coordinator.total_queries();
  result.hits = coordinator.total_hits();
  result.admit_denials = coordinator.admit_denials();
  if (params.kind == PolicyKind::kCostAwareTtl) {
    result.ttl_tracked =
        static_cast<CostAwareTtlPolicy*>(inner.get())->tracked();
  }
  return result;
}

// ASSERT_* inside RunScenario needs a void-returning wrapper.
void RunScenarioInto(const Scenario& sc, const PolicyParams& params,
                     std::size_t workers, RunResult* out) {
  *out = RunScenario(sc, params, workers);
}

// --- The conformance matrix -------------------------------------------------

constexpr PolicyKind kKinds[] = {PolicyKind::kPaperBaseline,
                                 PolicyKind::kCostAwareTtl,
                                 PolicyKind::kMthAdmission,
                                 PolicyKind::kPredictive};

/// One-worker DecisionLog digests per scenario x policy (kKinds order) for
/// the default seed.  A change that moves one changed a policy decision.
constexpr std::uint64_t kPinnedDigests[4][4] = {
    {0x3da61666391301eeull, 0xbb5c1d44caffe36full, 0xa87df52c55c24ee7ull,
     0xd28684b9f743a37dull},
    {0x2f7ba193f09b4111ull, 0x47dc1a7d374b25f4ull, 0xa06e9bd4e55099a7ull,
     0x2f7ba193f09b4111ull},
    {0x34fce1618e9d83e5ull, 0x067d69a2853ffa18ull, 0xdbc92ab976f7a69cull,
     0x34fce1618e9d83e5ull},
    {0x646061d33e9691dbull, 0xc6e36366088489e6ull, 0xb65da88ec8422c2eull,
     0x646061d33e9691dbull},
};

struct Cell {
  std::size_t scenario;
  std::size_t kind;  // index into kKinds
  std::size_t workers;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  for (const std::size_t workers : {1, 8}) {
    for (std::size_t s = 0; s < std::size(kScenarios); ++s) {
      // StripedBackend serves replicas == 1 only.
      if (workers > 1 && kScenarios[s].replicas > 1) continue;
      for (std::size_t kind = 0; kind < std::size(kKinds); ++kind) {
        cells.push_back({s, kind, workers});
      }
    }
  }
  return cells;
}

class PolicyConformanceTest : public ::testing::TestWithParam<Cell> {};

TEST_P(PolicyConformanceTest, InvariantsHoldAndDecisionsReplay) {
  const Cell cell = GetParam();
  const Scenario& sc = kScenarios[cell.scenario];
  PolicyParams params;
  params.kind = kKinds[cell.kind];
  SCOPED_TRACE(std::string(sc.name) + " x " + PolicyKindName(params.kind) +
               " x " + std::to_string(cell.workers) + " workers");

  RunResult first;
  ASSERT_NO_FATAL_FAILURE(RunScenarioInto(sc, params, cell.workers, &first));
  EXPECT_GT(first.queries, 0u);
  EXPECT_GT(first.hits, 0u);  // every scenario has reuse to serve
  EXPECT_GT(first.decisions, 0u);
  // The per-query hooks ran at every worker count.
  if (params.kind == PolicyKind::kMthAdmission) {
    EXPECT_GT(first.admit_denials, 0u);
  }
  if (params.kind == PolicyKind::kCostAwareTtl) {
    EXPECT_GT(first.ttl_tracked, 0u);
  }
  if (cell.workers > 1) return;

  // Determinism property: the same seed replays to byte-identical
  // decisions (set ECC_FAULT_SEED to pin a failed run).
  RunResult second;
  ASSERT_NO_FATAL_FAILURE(RunScenarioInto(sc, params, 1, &second));
  EXPECT_EQ(first.queries, second.queries);
  EXPECT_EQ(first.decision_bytes, second.decision_bytes);
  if (std::getenv("ECC_FAULT_SEED") == nullptr) {
    EXPECT_EQ(first.digest, kPinnedDigests[cell.scenario][cell.kind]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, PolicyConformanceTest, ::testing::ValuesIn(Cells()),
    [](const ::testing::TestParamInfo<Cell>& param) {
      std::string name = std::string(kScenarios[param.param.scenario].name) +
                         "_" + PolicyKindName(kKinds[param.param.kind]);
      if (param.param.workers > 1) {
        name += "_";
        name += std::to_string(param.param.workers) + "w";
      }
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// The CI matrix exports ECC_POLICY per leg; this test picks the policy the
// same way production wiring does (PolicyParamsFromEnv -> MakePolicy) and
// replays the phased scenario under it, so each leg exercises its policy
// through the env path too.
TEST(PolicyConformanceEnvTest, EnvSelectedPolicyRunsPhasedScenario) {
  const PolicyParams params = PolicyParamsFromEnv({});
  RunResult result;
  ASSERT_NO_FATAL_FAILURE(
      RunScenarioInto(kScenarios[0], params, /*workers=*/1, &result));
  EXPECT_GT(result.queries, 0u);
  EXPECT_GT(result.decisions, 0u);
}

}  // namespace
}  // namespace ecc::policy
