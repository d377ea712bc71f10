// FaultyService: a Service decorator that fails chosen invocations.
//
// Wraps any backing service and consults a FaultInjector before each
// Invoke; injected failures surface as Status::Unavailable after charging
// `failure_cost` to the caller's clock (the time burned before the failure
// was observed).  Used to exercise the coordinator's handling of a failed
// call: nothing is cached, the failure is counted, and when a flight
// leader's call fails, the coalesced followers inherit the failure — they
// neither re-invoke the service nor double-charge its latency.
#pragma once

#include <cassert>
#include <cstdint>
#include <string>

#include "common/status.h"
#include "common/time.h"
#include "fault/fault.h"
#include "service/service.h"

namespace ecc::fault {

class FaultyService final : public service::Service {
 public:
  /// Neither pointer is owned.  `failure_cost` is the virtual time a failed
  /// invocation still burns (default: fail fast).
  FaultyService(service::Service* inner, FaultInjector* injector,
                Duration failure_cost = Duration::Zero())
      : inner_(inner), injector_(injector), failure_cost_(failure_cost) {
    assert(inner_ != nullptr && injector_ != nullptr);
  }

  [[nodiscard]] const std::string& name() const override {
    return inner_->name();
  }

  [[nodiscard]] StatusOr<service::ServiceResult> Invoke(
      const sfc::GeoTemporalQuery& q, VirtualClock* clock) override {
    ++attempts_;
    const ServiceFault fault = injector_->OnServiceCall();
    if (fault.fail) {
      if (clock != nullptr) clock->Advance(failure_cost_);
      return Status::Unavailable("injected service failure");
    }
    if (fault.latency_multiplier > 1.0) {
      // Brownout: the answer arrives, just N× late.  Measure the normal
      // cost on a scratch clock, then charge the inflated cost.
      VirtualClock scratch;
      auto result = inner_->Invoke(q, &scratch);
      const Duration inflated =
          (scratch.now() - TimePoint::Epoch()) * fault.latency_multiplier;
      if (clock != nullptr) clock->Advance(inflated);
      if (result.ok()) result->exec_time = inflated;
      return result;
    }
    return inner_->Invoke(q, clock);
  }

  /// Successful invocations only (delegates to the backing service).
  [[nodiscard]] std::uint64_t invocations() const override {
    return inner_->invocations();
  }

  /// All attempts, failed ones included.
  [[nodiscard]] std::uint64_t attempts() const { return attempts_; }

 private:
  service::Service* inner_;
  FaultInjector* injector_;
  Duration failure_cost_;
  std::uint64_t attempts_ = 0;
};

}  // namespace ecc::fault
