#include "net/topology.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace fpisa::net {

StarTopology::StarTopology(int hosts, double gbps, double latency_us)
    : hop_latency_s_(latency_us * 1e-6) {
  up_.reserve(static_cast<std::size_t>(hosts));
  down_.reserve(static_cast<std::size_t>(hosts));
  for (int i = 0; i < hosts; ++i) {
    up_.emplace_back(gbps, latency_us);
    down_.emplace_back(gbps, latency_us);
  }
}

void StarTopology::check_hosts(const char* what, int src, int dst) const {
  for (const int h : {src, dst}) {
    if (h < 0 || h >= hosts()) {
      throw std::out_of_range(std::string(what) + ": host " +
                              std::to_string(h) + " outside a " +
                              std::to_string(hosts()) + "-host star");
    }
  }
  if (src == dst) {
    throw std::invalid_argument(std::string(what) + ": host " +
                                std::to_string(src) + " sends to itself");
  }
}

double StarTopology::send(double t, int src, int dst, std::uint64_t bytes) {
  check_hosts("StarTopology::send", src, dst);
  const double at_switch = up_[static_cast<std::size_t>(src)].send(t, bytes);
  return down_[static_cast<std::size_t>(dst)].send(at_switch + hop_latency_s_,
                                                   bytes);
}

double StarTopology::gather(
    double t, const std::vector<std::pair<int, std::uint64_t>>& flows,
    int dst) {
  // Every flow is checked before any link carries one.
  for (const auto& flow : flows) {
    check_hosts("StarTopology::gather", flow.first, dst);
  }
  double done = t;
  for (const auto& [src, bytes] : flows) {
    if (bytes == 0) continue;
    done = std::max(done, send(t, src, dst, bytes));
  }
  return done;
}

void StarTopology::reset() {
  for (auto& l : up_) l.reset();
  for (auto& l : down_) l.reset();
}

}  // namespace fpisa::net
