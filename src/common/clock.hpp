// clock.hpp — simulated time, Lamport clocks and the synchronized-clock
// alternative the paper mentions (§6: "Better performance can be achieved
// through the use of clock synchronization software, or synchronized
// physical clocks").
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "common/ids.hpp"

namespace ftcorba {

/// A point in (simulated or real) time, in nanoseconds since an arbitrary
/// epoch. Signed so durations/differences are natural.
using TimePoint = std::int64_t;
/// A duration in nanoseconds.
using Duration = std::int64_t;

constexpr Duration kNanosecond = 1;
constexpr Duration kMicrosecond = 1000 * kNanosecond;
constexpr Duration kMillisecond = 1000 * kMicrosecond;
constexpr Duration kSecond = 1000 * kMillisecond;

/// Converts nanoseconds to (fractional) milliseconds for reporting.
[[nodiscard]] constexpr double to_ms(Duration d) { return static_cast<double>(d) / 1e6; }
/// Converts nanoseconds to (fractional) microseconds for reporting.
[[nodiscard]] constexpr double to_us(Duration d) { return static_cast<double>(d) / 1e3; }

/// Monotonic wall time as a TimePoint (steady_clock nanoseconds) — the time
/// source of every real-network driver and of threaded runtime shards.
[[nodiscard]] inline TimePoint wall_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A Lamport logical clock (§6). `tick()` stamps an outgoing message;
/// `witness(t)` advances the clock past any received or sent timestamp, so
/// the clock is always greater than every timestamp seen.
class LamportClock {
 public:
  /// Returns a fresh timestamp strictly greater than every previous
  /// timestamp issued or witnessed by this clock.
  [[nodiscard]] Timestamp tick() { return ++now_; }

  /// Observes a timestamp from a received message; the next tick() will be
  /// strictly greater than it.
  void witness(Timestamp t) { now_ = std::max(now_, t); }

  /// The greatest timestamp issued or witnessed so far.
  [[nodiscard]] Timestamp latest() const { return now_; }

 private:
  Timestamp now_{0};
};

/// Timestamp source abstraction: either pure Lamport (default) or derived
/// from a synchronized physical clock with a bounded skew (the paper's GPS
/// option). Both satisfy the Lamport property (monotone, advanced past
/// every witnessed timestamp); the synchronized variant additionally tracks
/// real time, which shrinks the ordering wait (bench E8 measures this).
class TimestampSource {
 public:
  enum class Mode : std::uint8_t {
    kLamport,       ///< Counter-only Lamport clock.
    kSynchronized,  ///< Timestamps derived from (skewed) physical time.
  };

  explicit TimestampSource(Mode mode = Mode::kLamport, Duration skew = 0)
      : mode_(mode), skew_(skew) {}

  /// Stamps an outgoing message. For kSynchronized the result is
  /// max(previous + 1, physical-now + skew) so it is simultaneously a valid
  /// Lamport timestamp and close to real time.
  [[nodiscard]] Timestamp tick(TimePoint now) {
    if (mode_ == Mode::kSynchronized) {
      const auto phys = static_cast<Timestamp>(std::max<TimePoint>(0, now + skew_));
      last_ = std::max(last_ + 1, phys);
    } else {
      last_ += 1;
    }
    return last_;
  }

  /// Observes a received timestamp (Lamport advance rule).
  void witness(Timestamp t) { last_ = std::max(last_, t); }

  /// The greatest timestamp issued or witnessed so far.
  [[nodiscard]] Timestamp latest() const { return last_; }

  [[nodiscard]] Mode mode() const { return mode_; }

 private:
  Mode mode_;
  Duration skew_;
  Timestamp last_{0};
};

}  // namespace ftcorba
