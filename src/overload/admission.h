// Bounded admission queue for pending misses.
//
// Without it, a miss storm piles unbounded leaders behind the service mutex
// at ~23 s apiece.  A leader takes a ticket *before* it queues for the
// service; when the pending count is at the limit the queue either refuses
// the newcomer (kRejectNew) or revokes the oldest still-waiting ticket to
// make room (kDropOldest — freshest work wins, the policy a flash crowd
// wants).  A revoked leader cannot be interrupted mid-block, so revocation
// is lazy: it discovers the verdict when it finally reaches the front and
// calls StartService(), and sheds instead of invoking the service.
//
// Thread-safe; every operation is a short mutex-guarded section.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>

#include "common/time.h"

namespace ecc::overload {

enum class AdmissionPolicy {
  kRejectNew,   ///< full queue refuses the arriving miss
  kDropOldest,  ///< full queue revokes the oldest waiting miss instead
};

struct AdmissionOptions {
  /// Maximum pending misses (waiting + in service).  0 = unbounded.
  std::size_t queue_limit = 0;
  AdmissionPolicy policy = AdmissionPolicy::kRejectNew;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t rejected = 0;    ///< newcomers refused (kRejectNew or no
                                 ///< droppable waiter under kDropOldest)
  std::uint64_t dropped = 0;     ///< waiting tickets revoked (kDropOldest)
  std::uint64_t peak_depth = 0;  ///< high-water pending count
};

class AdmissionQueue {
 public:
  using Ticket = std::uint64_t;
  static constexpr Ticket kRejected = 0;

  explicit AdmissionQueue(AdmissionOptions opts = {});

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Ask to join the pending-miss queue.  Returns a ticket (> 0) on
  /// admission, kRejected when shed.  May revoke another waiter under
  /// kDropOldest.
  [[nodiscard]] Ticket Enter();

  /// The ticket holder is about to invoke the service (it holds the
  /// service serialization lock).  False means the ticket was revoked
  /// while waiting — the holder must shed, not call.
  [[nodiscard]] bool StartService(Ticket t);

  /// The service call finished (only after StartService returned true).
  void Exit(Ticket t);

  /// The holder no longer needs the slot (e.g. the double-checked cache
  /// lookup hit); valid for waiting or revoked tickets.
  void Cancel(Ticket t);

  [[nodiscard]] std::size_t depth() const;
  [[nodiscard]] AdmissionStats stats() const;
  [[nodiscard]] const AdmissionOptions& options() const { return opts_; }

 private:
  const AdmissionOptions opts_;
  mutable std::mutex mutex_;
  Ticket next_ = 1;
  std::deque<Ticket> waiting_;         ///< admission order, front = oldest
  std::unordered_set<Ticket> revoked_;
  std::size_t in_service_ = 0;
  AdmissionStats stats_;
};

}  // namespace ecc::overload
