// Virtual time primitives for the cloud simulation.
//
// All simulated costs in this project (service execution, node provisioning,
// per-record network transfer, cache-hit latency) are charged against a
// VirtualClock rather than the wall clock.  This keeps experiment runs
// deterministic given a seed and lets a bench simulate days of EC2 time in
// seconds of real time, while preserving the *ratios* between costs that the
// paper's observable results depend on.
//
// Representation: signed 64-bit microsecond counts.  A Duration is a span,
// a TimePoint is an offset from the simulation epoch (t = 0).
#pragma once

#include <atomic>
#include <cstdint>
#include <compare>
#include <string>

namespace ecc {

/// A span of virtual time, microsecond resolution.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration Micros(std::int64_t us) {
    return Duration(us);
  }
  [[nodiscard]] static constexpr Duration Millis(std::int64_t ms) {
    return Duration(ms * 1000);
  }
  [[nodiscard]] static constexpr Duration Seconds(double s) {
    return Duration(static_cast<std::int64_t>(s * 1e6));
  }
  [[nodiscard]] static constexpr Duration Minutes(double m) {
    return Seconds(m * 60.0);
  }
  [[nodiscard]] static constexpr Duration Hours(double h) {
    return Seconds(h * 3600.0);
  }
  [[nodiscard]] static constexpr Duration Zero() { return Duration(0); }
  [[nodiscard]] static constexpr Duration Max() {
    return Duration(INT64_MAX);
  }

  [[nodiscard]] constexpr std::int64_t micros() const { return us_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(us_) / 1e6;
  }
  [[nodiscard]] constexpr double millis() const {
    return static_cast<double>(us_) / 1e3;
  }
  [[nodiscard]] constexpr double hours() const { return seconds() / 3600.0; }

  constexpr Duration operator+(Duration o) const {
    return Duration(us_ + o.us_);
  }
  constexpr Duration operator-(Duration o) const {
    return Duration(us_ - o.us_);
  }
  constexpr Duration operator*(double f) const {
    return Duration(static_cast<std::int64_t>(static_cast<double>(us_) * f));
  }
  constexpr Duration operator/(std::int64_t d) const {
    return Duration(us_ / d);
  }
  [[nodiscard]] constexpr double operator/(Duration o) const {
    return static_cast<double>(us_) / static_cast<double>(o.us_);
  }
  constexpr Duration& operator+=(Duration o) {
    us_ += o.us_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    us_ -= o.us_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  /// Human-readable rendering, e.g. "23.000s", "1.500ms", "2.1h".
  [[nodiscard]] std::string ToString() const;

 private:
  constexpr explicit Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

/// An instant of virtual time, measured from the simulation epoch.
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint FromMicros(std::int64_t us) {
    return TimePoint(us);
  }
  [[nodiscard]] static constexpr TimePoint Epoch() { return TimePoint(0); }

  [[nodiscard]] constexpr std::int64_t micros() const { return us_; }
  [[nodiscard]] constexpr double seconds() const {
    return static_cast<double>(us_) / 1e6;
  }
  [[nodiscard]] constexpr double hours() const { return seconds() / 3600.0; }

  constexpr TimePoint operator+(Duration d) const {
    return TimePoint(us_ + d.micros());
  }
  constexpr TimePoint operator-(Duration d) const {
    return TimePoint(us_ - d.micros());
  }
  constexpr Duration operator-(TimePoint o) const {
    return Duration::Micros(us_ - o.us_);
  }
  constexpr TimePoint& operator+=(Duration d) {
    us_ += d.micros();
    return *this;
  }
  constexpr auto operator<=>(const TimePoint&) const = default;

  [[nodiscard]] std::string ToString() const;

 private:
  constexpr explicit TimePoint(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

class VirtualClock;

/// A point on a specific virtual clock past which work should not start.
///
/// Overload protection threads one of these through a query: the
/// coordinator stamps `at` on the clock that carries the query's latency,
/// and every layer below (service invocation, RPC retry loop) consults
/// Expired()/Remaining() before committing to more work.  A deadline is
/// always evaluated against the clock it was defined on, so it stays
/// meaningful even when the consulting layer charges a *different* clock
/// (a coordinator worker's private clock vs. the backend's shared clock).  A default-constructed Deadline is inactive: never expired,
/// infinite budget.
struct Deadline {
  const VirtualClock* clock = nullptr;  ///< clock the deadline is measured on
  TimePoint at;

  [[nodiscard]] bool active() const { return clock != nullptr; }
  [[nodiscard]] inline bool Expired() const;
  /// Budget left before expiry; Duration::Max() when inactive.
  [[nodiscard]] inline Duration Remaining() const;
};

/// Monotonic virtual clock.  The experiment driver advances it explicitly;
/// substrates (cloud allocator, network model, services) charge durations to
/// it.  Never moves backwards.
///
/// Thread-safe: now/Advance/AdvanceTo are lock-free atomics, so a clock
/// shared by a backend can absorb charges from concurrent workers without
/// tearing.  Note that under concurrency the *meaning* of a shared clock
/// changes — interleaved charges sum rather than overlap — so a coordinator
/// with several workers keeps per-query latency on one private clock per
/// worker instead (see DESIGN.md, "Concurrency model").
class VirtualClock {
 public:
  VirtualClock() = default;
  VirtualClock(const VirtualClock&) = delete;
  VirtualClock& operator=(const VirtualClock&) = delete;

  [[nodiscard]] TimePoint now() const {
    return TimePoint::FromMicros(now_us_.load(std::memory_order_relaxed));
  }

  /// Advance by a span.  Negative spans are clamped to zero.
  void Advance(Duration d) {
    if (d > Duration::Zero()) {
      now_us_.fetch_add(d.micros(), std::memory_order_relaxed);
    }
  }

  /// Jump forward to `t` if it is in the future; no-op otherwise.
  void AdvanceTo(TimePoint t) {
    std::int64_t cur = now_us_.load(std::memory_order_relaxed);
    while (cur < t.micros() &&
           !now_us_.compare_exchange_weak(cur, t.micros(),
                                          std::memory_order_relaxed)) {
    }
  }

  void Reset() { now_us_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> now_us_{0};
};

inline bool Deadline::Expired() const {
  return active() && clock->now() >= at;
}

inline Duration Deadline::Remaining() const {
  if (!active()) return Duration::Max();
  const TimePoint now = clock->now();
  return now >= at ? Duration::Zero() : at - now;
}

}  // namespace ecc
