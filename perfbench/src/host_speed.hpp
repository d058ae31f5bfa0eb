// The host's speed, sampled while the benchmark runs.
//
// A shared host runs the benchmark at varying speed: another tenant's work
// on the same physical core slows a thread by up to ~1.6x, for stretches of
// 0.1 s to minutes, so two runs of the same code can differ by that much.
// HostSpeed times a fixed reference kernel, which belongs to the benchmark
// and calls nothing in the library, next to each measured unit of work, and
// scales the unit to the speed the host had when the reference kernel took
// kReferenceSeconds. A change in the library moves the measured unit and not
// the reference; a change in the host's load moves both.
#pragma once

#include "trace.hpp"

#include <cstdint>
#include <vector>

namespace perfbench {

/// The reference kernel's time on an unloaded core of the development host
/// (Intel Xeon, 4 vCPUs, g++ 12.2 -O3), in seconds. Only a scale: scaled
/// timings read in seconds of that host.
constexpr double kReferenceSeconds = 4.0e-3;

/// The reference kernel is register-bound integer work in six independent
/// dependency chains. It retires several instructions per cycle, so it slows
/// down as much as throughput-bound code does when a tenant shares the core,
/// while a latency-bound kernel barely notices.
class HostSpeed {
 public:
  /// Seconds one pass of the reference kernel takes now.
  double sample() {
    const std::int64_t t0 = now_ns();
    std::uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    for (std::uint64_t i = 0; i < kIterations; ++i) {
      a = a * 0x9e37 + i;
      b ^= b >> 3;
      b += i;
      c = (c << 1) ^ i;
      d += a ^ c;
      e ^= d + i;
      f += e ^ b;
    }
    sink_ = sink_ ^ a ^ b ^ c ^ d ^ e ^ f;
    const double seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    samples_.push_back(seconds);
    return seconds;
  }

  /// The factor that scales a duration measured between two samples to the
  /// reference speed.
  static double factor(double before_s, double after_s) {
    return kReferenceSeconds / (0.5 * (before_s + after_s));
  }

  /// Every sample taken so far, in seconds.
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::uint64_t kIterations = 2'000'000;

  std::vector<double> samples_;
  volatile std::uint64_t sink_ = 0;  ///< keeps the kernel from being elided
};

/// The time of one unit of work, at the reference speed. The unit's timed
/// stretches are added as they happen; each checkpoint samples the host's
/// speed and scales what was added since the previous sample (the first is
/// taken at construction), so a long unit is tracked in parts.
class ScaledTimer {
 public:
  explicit ScaledTimer(HostSpeed& speed)
      : speed_(speed), before_(speed.sample()) {}

  void add(double seconds) { pending_ += seconds; }

  void checkpoint() {
    const double after = speed_.sample();
    scaled_ += pending_ * HostSpeed::factor(before_, after);
    pending_ = 0.0;
    before_ = after;
  }

  /// The scaled seconds up to the last checkpoint.
  [[nodiscard]] double seconds() const { return scaled_; }

 private:
  HostSpeed& speed_;
  double before_;
  double pending_ = 0.0;
  double scaled_ = 0.0;
};

}  // namespace perfbench
