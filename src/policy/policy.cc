#include "policy/policy.h"

#include "policy/admission.h"
#include "policy/cost_ttl.h"
#include "policy/provision.h"

namespace ecc::policy {

// --- DecisionLog -----------------------------------------------------------

void DecisionLog::PutU64(std::uint64_t v) {
  // Fixed-width little-endian, independent of host endianness.
  for (int i = 0; i < 8; ++i) {
    bytes_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void DecisionLog::Evictions(const std::vector<Key>& keys) {
  bytes_.push_back('E');
  PutU64(keys.size());
  for (const Key k : keys) PutU64(k);
  ++decisions_;
}

void DecisionLog::Admit(Key k, bool admitted) {
  bytes_.push_back('A');
  PutU64(k);
  bytes_.push_back(admitted ? '\1' : '\0');
  ++decisions_;
}

void DecisionLog::Contract(bool contract) {
  bytes_.push_back('C');
  bytes_.push_back(contract ? '\1' : '\0');
  ++decisions_;
}

void DecisionLog::Prewarm(std::size_t n) {
  bytes_.push_back('P');
  PutU64(n);
  ++decisions_;
}

std::uint64_t DecisionLog::Digest() const {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const char c : bytes_) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;  // FNV prime
  }
  return h;
}

void DecisionLog::Clear() {
  bytes_.clear();
  decisions_ = 0;
}

// --- RecordingPolicy -------------------------------------------------------

bool RecordingPolicy::AdmitOnMiss(Key k) {
  const bool admitted = inner_->AdmitOnMiss(k);
  log_.Admit(k, admitted);
  return admitted;
}

std::vector<Key> RecordingPolicy::SelectEvictions(
    const std::vector<Key>& decay_candidates, const PolicyContext& ctx) {
  std::vector<Key> out = inner_->SelectEvictions(decay_candidates, ctx);
  log_.Evictions(out);
  return out;
}

bool RecordingPolicy::ShouldContract(const PolicyContext& ctx) {
  const bool contract = inner_->ShouldContract(ctx);
  log_.Contract(contract);
  return contract;
}

std::size_t RecordingPolicy::PrewarmTarget(const PolicyContext& ctx) {
  const std::size_t n = inner_->PrewarmTarget(ctx);
  log_.Prewarm(n);
  return n;
}

// --- Selection and configuration -------------------------------------------

const char* PolicyKindName(PolicyKind k) {
  switch (k) {
    case PolicyKind::kPaperBaseline: return "paper-baseline";
    case PolicyKind::kCostAwareTtl: return "cost-ttl";
    case PolicyKind::kMthAdmission: return "mth-admission";
    case PolicyKind::kPredictive: return "predictive";
  }
  return "unknown";
}

std::unique_ptr<ElasticityPolicy> MakePolicy(const PolicyParams& params) {
  switch (params.kind) {
    case PolicyKind::kPaperBaseline:
      return std::make_unique<PaperBaselinePolicy>(params.contraction_epsilon);
    case PolicyKind::kCostAwareTtl:
      return std::make_unique<CostAwareTtlPolicy>(params);
    case PolicyKind::kMthAdmission:
      return std::make_unique<MthRequestAdmissionPolicy>(params);
    case PolicyKind::kPredictive:
      return std::make_unique<PredictiveProvisionPolicy>(params, nullptr);
  }
  return std::make_unique<PaperBaselinePolicy>(params.contraction_epsilon);
}

}  // namespace ecc::policy
