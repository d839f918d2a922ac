// Wall-clock stopwatch for coarse timing of training phases and benches,
// and the single time source of the obs tier: every latency the metrics
// layer records comes from elapsed_ns()/lap_ns() (monotonic integer
// nanoseconds), never from re-derived elapsed_seconds() doubles.
#pragma once

#include <chrono>
#include <cstdint>

namespace pp {

class Stopwatch {
 public:
  /// Tag for constructing without reading the clock (epoch start). Disarmed
  /// obs timers use this so a not-sampled path costs zero clock reads; call
  /// reset() before the first real measurement.
  struct Unstarted {};

  Stopwatch() : start_(Clock::now()) {}
  explicit Stopwatch(Unstarted) : start_{} {}

  void reset() { start_ = Clock::now(); }

  /// Monotonic nanoseconds since construction/reset. The integer form the
  /// obs histograms record — no double round-trip, no precision loss at
  /// long uptimes.
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - start_)
        .count();
  }

  /// Returns elapsed_ns() and restarts the watch with a single clock read,
  /// so consecutive laps tile time exactly (no gap between the read and
  /// the reset).
  std::int64_t lap_ns() {
    const Clock::time_point now = Clock::now();
    const std::int64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - start_)
            .count();
    start_ = now;
    return ns;
  }

  /// Convenience view over elapsed_ns() for multi-second phase reports —
  /// the integer clock is the single source; this only scales it.
  double elapsed_seconds() const {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace pp
