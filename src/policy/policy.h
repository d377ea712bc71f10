// Pluggable elasticity policy engine (ROADMAP item 1, DESIGN.md §13).
//
// The paper's elasticity is one fixed rule: decay-score eviction at every
// slice boundary plus a contraction merge every epsilon expirations.  A
// production fleet sizes itself against a dollar cost model instead.  This
// module extracts the four elasticity decisions — which keys to evict,
// whether to admit a computed miss result, whether to attempt a contraction
// merge, and how many nodes to pre-provision — behind one interface the
// coordinators consult at well-defined points:
//
//   per query (under the coordinator's policy mutex):
//     OnQuery(k, hit)      observation hook (reuse-distance tracking)
//     AdmitOnMiss(k)       gate the Put of a freshly computed result
//   per slice boundary (quiesced):
//     SelectEvictions()    replace/extend the decay rule's candidate set
//     ShouldContract()     the epsilon-merge cadence (or a cost override)
//     PrewarmTarget()      nodes to launch into the warm pool now
//
// PaperBaselinePolicy reproduces the seed behavior exactly: candidates pass
// through verbatim and contraction fires on the epsilon cadence.  The other
// policies (cost_ttl.h, admission.h, provision.h) implement the cost-aware
// TTL controller, cache-on-Mth-request admission, and predictive
// pre-provisioning ablations.  All policies are deterministic functions of
// their observation stream — the conformance suite (tests/policy_*.cc)
// replays seeded scenarios and asserts per-policy invariants plus
// byte-identical decision logs across runs.
//
// Policies are NOT thread-safe: a coordinator with several workers
// serializes the per-query hooks on one mutex and consults the rest only
// at the quiesced EndTimeStep boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/types.h"

namespace ecc::policy {

using core::Key;

/// Fleet/cost snapshot handed to the boundary-time decisions.  Built by the
/// coordinator after the sliding window advanced, before eviction executes.
/// Cost fields are zero when no cloud provider is attached — policies must
/// degrade gracefully (the TTL controller falls back to a price-free
/// break-even expression, see cost_ttl.h).
struct PolicyContext {
  /// Slice boundaries closed before this one (0 on the first EndTimeStep).
  std::size_t step = 0;
  /// Slices that fell out of the sliding window at this boundary (usually
  /// 0 while the window fills, then 1; more right after a dynamic shrink).
  std::size_t expired_slices = 0;
  std::size_t step_queries = 0;
  std::size_t step_hits = 0;
  // Cache occupancy (from CacheStats at the boundary).
  std::size_t node_count = 0;
  std::size_t total_records = 0;
  std::size_t used_bytes = 0;
  std::size_t capacity_bytes = 0;
  // Cloud provider state (zero when none attached).
  std::size_t live_instances = 0;
  std::size_t warm_pool = 0;
  /// Marginal fleet price observed from the billing report: accrued
  /// dollars over billed node-hours — includes whole-started-hour
  /// rounding waste, so it is the *real* cost of holding a node.
  double usd_per_node_hour = 0.0;
  double accrued_usd = 0.0;
  /// Virtual hours the slice that just closed spanned (EMA-smoothable).
  double slice_hours = 0.0;
};

class ElasticityPolicy {
 public:
  virtual ~ElasticityPolicy() = default;

  [[nodiscard]] virtual std::string Name() const = 0;

  /// Per-query observation (front-tier hits included).  A miss is reported
  /// before its result is inserted; a coalesced follower reports a miss.
  virtual void OnQuery(Key k, bool hit, std::size_t step) {
    (void)k;
    (void)hit;
    (void)step;
  }

  /// Should the freshly computed result for missed key `k` be inserted?
  /// Returning false leaves the cache untouched (the caller still gets the
  /// answer).  Called once per computed miss, in request order.
  [[nodiscard]] virtual bool AdmitOnMiss(Key k) {
    (void)k;
    return true;
  }

  /// Keys to evict at this boundary.  `decay_candidates` is the paper
  /// rule's selection (window scores below threshold); a policy may pass
  /// it through, filter it, or extend it (evicting keys the cache no
  /// longer holds is a harmless no-op).
  [[nodiscard]] virtual std::vector<Key> SelectEvictions(
      const std::vector<Key>& decay_candidates, const PolicyContext& ctx) = 0;

  /// Attempt a contraction merge at this boundary?
  [[nodiscard]] virtual bool ShouldContract(const PolicyContext& ctx) = 0;

  /// Instances to launch into the warm pool now (0 = none).  The
  /// implementation must keep live + warm + returned <= its quota.
  [[nodiscard]] virtual std::size_t PrewarmTarget(const PolicyContext& ctx) {
    (void)ctx;
    return 0;
  }
};

/// The paper's epsilon cadence with carry semantics: contraction is due
/// once every `epsilon` slice expirations.  Unlike the pre-refactor
/// counters (which reset to zero on fire), the surplus above epsilon is
/// carried forward — a dynamic-window shrink can expire several slices at
/// one boundary, and dropping the overshoot made the next contraction
/// arrive late by up to epsilon-1 expirations (the ISSUE 7 drift bug).
class EpsilonCadence {
 public:
  /// `epsilon` == 0 disables (never due).
  explicit EpsilonCadence(std::size_t epsilon) : epsilon_(epsilon) {}

  [[nodiscard]] bool Due(std::size_t expired_slices) {
    if (epsilon_ == 0 || expired_slices == 0) return false;
    pending_ += expired_slices;
    if (pending_ < epsilon_) return false;
    pending_ -= epsilon_;
    return true;
  }

  [[nodiscard]] std::size_t pending() const { return pending_; }
  [[nodiscard]] std::size_t epsilon() const { return epsilon_; }

 private:
  std::size_t epsilon_;
  std::size_t pending_ = 0;
};

/// The seed rule, verbatim: decay candidates evict unchanged, contraction
/// on the epsilon cadence, admit everything, never pre-provision.
class PaperBaselinePolicy final : public ElasticityPolicy {
 public:
  explicit PaperBaselinePolicy(std::size_t contraction_epsilon)
      : cadence_(contraction_epsilon) {}

  [[nodiscard]] std::string Name() const override { return "paper-baseline"; }

  [[nodiscard]] std::vector<Key> SelectEvictions(
      const std::vector<Key>& decay_candidates,
      const PolicyContext& ctx) override {
    (void)ctx;
    return decay_candidates;
  }

  [[nodiscard]] bool ShouldContract(const PolicyContext& ctx) override {
    return cadence_.Due(ctx.expired_slices);
  }

  [[nodiscard]] const EpsilonCadence& cadence() const { return cadence_; }

 private:
  EpsilonCadence cadence_;
};

// --- Decision recording (determinism + conformance harness) ----------------

/// Canonical byte encoding of a policy's decision stream.  Two runs of the
/// same seeded scenario must produce byte-identical logs — the property
/// test that guards every future policy against hidden nondeterminism
/// (hash-map iteration order, wall-clock reads, uninitialized state).
class DecisionLog {
 public:
  void Evictions(const std::vector<Key>& keys);
  void Admit(Key k, bool admitted);
  void Contract(bool contract);
  void Prewarm(std::size_t n);

  [[nodiscard]] const std::string& bytes() const { return bytes_; }
  [[nodiscard]] std::size_t decisions() const { return decisions_; }
  /// FNV-1a over the byte stream, for cheap cross-run comparison.
  [[nodiscard]] std::uint64_t Digest() const;
  void Clear();

 private:
  void PutU64(std::uint64_t v);

  std::string bytes_;
  std::size_t decisions_ = 0;
};

/// Decorator: forwards every decision to `inner` and records it.  The
/// conformance suite wraps each policy under test with one of these.
class RecordingPolicy final : public ElasticityPolicy {
 public:
  /// `inner` is not owned and must outlive this wrapper.
  explicit RecordingPolicy(ElasticityPolicy* inner) : inner_(inner) {}

  [[nodiscard]] std::string Name() const override { return inner_->Name(); }
  void OnQuery(Key k, bool hit, std::size_t step) override {
    inner_->OnQuery(k, hit, step);
  }
  [[nodiscard]] bool AdmitOnMiss(Key k) override;
  [[nodiscard]] std::vector<Key> SelectEvictions(
      const std::vector<Key>& decay_candidates,
      const PolicyContext& ctx) override;
  [[nodiscard]] bool ShouldContract(const PolicyContext& ctx) override;
  [[nodiscard]] std::size_t PrewarmTarget(const PolicyContext& ctx) override;

  [[nodiscard]] const DecisionLog& log() const { return log_; }
  [[nodiscard]] ElasticityPolicy* inner() { return inner_; }

 private:
  ElasticityPolicy* inner_;
  DecisionLog log_;
};

// --- Selection and configuration -------------------------------------------

enum class PolicyKind {
  kPaperBaseline = 0,
  kCostAwareTtl,
  kMthAdmission,
  kPredictive,
};

[[nodiscard]] const char* PolicyKindName(PolicyKind k);
/// Accepts the PolicyKindName spellings ("paper-baseline", "cost-ttl",
/// "mth-admission", "predictive").
[[nodiscard]] StatusOr<PolicyKind> ParsePolicyKind(const std::string& name);

/// Tuning for every policy in one flat struct (the factory reads only the
/// fields its kind uses).  Env overlay: ECC_POLICY, ECC_TTL_ALPHA,
/// ECC_ADMIT_M (see PolicyParamsFromEnv and README).
struct PolicyParams {
  PolicyKind kind = PolicyKind::kPaperBaseline;

  /// Contraction cadence (the paper's epsilon); used by every policy.
  std::size_t contraction_epsilon = 5;

  // Cost-aware TTL controller (cost_ttl.h).
  /// Headroom multiplier on the observed reuse-gap EMA (ECC_TTL_ALPHA).
  double ttl_alpha = 2.0;
  /// TTL granted to keys seen only once, as a fraction of break-even.
  double ttl_one_shot_fraction = 0.5;
  /// Virtual hours one recompute costs (the paper's 23 s service).
  double recompute_hours = 23.0 / 3600.0;
  std::size_t ttl_min_slices = 2;
  std::size_t ttl_max_slices = 4096;
  /// Bound on the per-key tracking table (oldest-accessed evict past it).
  std::size_t ttl_tracked_cap = std::size_t{1} << 17;

  // Mth-request admission (admission.h).
  /// Admit a key on its Mth requested miss (ECC_ADMIT_M; 1 = admit all).
  std::size_t admit_m = 2;
  /// Ghost-table bound (keys remembered without being cached).
  std::size_t admit_ghost_capacity = std::size_t{1} << 16;

  // Predictive pre-provisioner (provision.h).
  /// Slices of forecast lookahead.
  std::size_t provision_horizon = 25;
  /// Hard cap on live + warm instances the policy may provision toward.
  std::size_t provision_quota = 12;
  /// Forecast-to-current volume ratio that triggers pre-provisioning.
  double provision_grow_ratio = 1.3;
};

/// Overlay environment variables onto `base`: ECC_POLICY (kind name),
/// ECC_TTL_ALPHA (double > 0), ECC_ADMIT_M (size_t >= 1).  Malformed
/// values are ignored with a warning, matching the recovery env overlay.
[[nodiscard]] PolicyParams PolicyParamsFromEnv(PolicyParams base);

/// Build a policy of `params.kind`.  The predictive kind starts without a
/// forecast (inert: never prewarms) — attach one via
/// PredictiveProvisionPolicy::set_forecast.
[[nodiscard]] std::unique_ptr<ElasticityPolicy> MakePolicy(
    const PolicyParams& params);

}  // namespace ecc::policy
