// A small discrete-event simulator: schedule closures at absolute times,
// run to drain. src/ times its fabrics in closed form over net::Link; this
// event queue is kept as the reference those closed forms are checked
// against (see tree_timing in wave_oracle.h). Header-only and test-only.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace fpisa::net {

/// Event-driven clock: schedule closures at absolute times, run to drain.
class EventSim {
 public:
  using Handler = std::function<void()>;

  double now() const { return now_s_; }

  void at(double time_s, Handler fn) {
    queue_.push(Event{time_s, seq_++, std::move(fn)});
  }
  void after(double delay_s, Handler fn) { at(now_s_ + delay_s, std::move(fn)); }

  /// Runs until the queue drains; returns the final time.
  double run() {
    while (!queue_.empty()) {
      Event e = queue_.top();
      queue_.pop();
      now_s_ = e.time_s;
      e.fn();
    }
    return now_s_;
  }

  bool empty() const { return queue_.empty(); }

 private:
  struct Event {
    double time_s;
    std::uint64_t seq;  // FIFO tie-break for determinism
    Handler fn;
    bool operator>(const Event& o) const {
      return time_s != o.time_s ? time_s > o.time_s : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  double now_s_ = 0;
  std::uint64_t seq_ = 0;
};

}  // namespace fpisa::net
