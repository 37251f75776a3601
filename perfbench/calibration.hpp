// Machine-speed calibration for host times measured on a shared machine.
//
// On a shared 4-vCPU VM the CPU time of a fixed single-threaded loop was
// measured to drift by up to 35% over tens of seconds (other tenants share
// the physical cores and caches), so two runs of the same code could
// differ by more than any regression worth catching. A
// short fixed event-heap workload, timed between units, measures the
// machine's current speed; host times are reported in nominal seconds:
// CPU seconds x (nominal calibration time / measured calibration time).
// The calibration code is the benchmark's own, so a change to the
// simulator moves the reported times and a change in machine speed does
// not.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace.hpp"

namespace perfbench {

/// Median calibration CPU time on the VM the baseline in
/// perfbench/README.md was measured on, so nominal seconds read close to
/// CPU seconds there.
inline constexpr double kNominalCalibrationS = 3.0e-3;

/// Receives the calibration loop's result, so the loop cannot be optimised
/// away.
inline volatile std::uint64_t calibration_sink = 0;

/// CPU seconds this machine takes for a fixed workload shaped like the
/// simulator's event queue: 16384 64-byte events (1 MiB, past the
/// per-core caches), then 16384 pop/push rounds.
inline double calibration_s() {
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::uint64_t payload[6];
  };
  const auto later = [](const Event& a, const Event& b) {
    return a.at != b.at ? a.at > b.at : a.seq > b.seq;
  };
  static std::vector<Event> heap;
  heap.clear();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t seq = 0;
  const auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  const double t0 = host_now();
  for (int i = 0; i < 16384; ++i) {
    heap.push_back(Event{next() % 1000000, seq++, {x, 0, 0, 0, 0, 0}});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  std::uint64_t sum = 0;
  for (int i = 0; i < 16384; ++i) {
    std::pop_heap(heap.begin(), heap.end(), later);
    const Event e = heap.back();
    heap.pop_back();
    sum += e.payload[0];
    heap.push_back(Event{e.at + next() % 1000, seq++, {sum, 0, 0, 0, 0, 0}});
    std::push_heap(heap.begin(), heap.end(), later);
  }
  const double spent = host_now() - t0;
  calibration_sink = sum;
  return spent;
}

/// Turns CPU seconds into nominal seconds, re-measuring the machine after
/// each interval and scaling by the mean of the calibrations that bracket
/// it.
class SpeedGauge {
 public:
  SpeedGauge() : samples_{calibration_s()} {}

  double nominal(double cpu_s) {
    const double last = samples_.back();
    samples_.push_back(calibration_s());
    return cpu_s * kNominalCalibrationS / ((last + samples_.back()) / 2.0);
  }

  /// Every calibration taken, in order.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

}  // namespace perfbench
