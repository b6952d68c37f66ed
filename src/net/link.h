// Link/queueing primitive — the timing substrate for the end-to-end
// experiments (distributed query execution, aggregation transfers).
// Functional packet processing happens in src/pisa; this module only
// accounts for time.
#pragma once

#include <cstdint>

namespace fpisa::net {

/// A serializing link: messages transmit back-to-back at `gbps`, then take
/// `latency_us` to propagate. Each send's departure is a max-plus step over
/// the previous one, so a sequence of sends is timed in closed form.
class Link {
 public:
  Link(double gbps, double latency_us)
      : gbps_(gbps), latency_s_(latency_us * 1e-6) {}

  /// Enqueues `bytes` at time `t`; returns the arrival time at the far end.
  double send(double t, std::uint64_t bytes) {
    const double start = t > next_free_ ? t : next_free_;
    const double tx = static_cast<double>(bytes) * 8.0 / (gbps_ * 1e9);
    next_free_ = start + tx;
    busy_s_ += tx;
    return next_free_ + latency_s_;
  }

  double busy_seconds() const { return busy_s_; }

 private:
  double gbps_;
  double latency_s_;
  double next_free_ = 0;
  double busy_s_ = 0;
};

}  // namespace fpisa::net
