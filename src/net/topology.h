// Star topology through one switch: every host has a full-duplex link to
// the switch (the paper's testbed shape). Provides the transfer-time
// accounting used by the query engine (Fig 13) and aggregation models.
#pragma once

#include <cstdint>
#include <vector>

#include "net/link.h"

namespace fpisa::net {

class StarTopology {
 public:
  /// `hosts` endpoints, each with an uplink and a downlink of `gbps`.
  StarTopology(int hosts, double gbps, double latency_us);

  int hosts() const { return static_cast<int>(up_.size()); }

  /// Sends `bytes` from src to dst entering the network at time `t`;
  /// returns delivery time (serialization on src uplink + dst downlink,
  /// plus the switch hop latency). Throws, in every build and before any
  /// link changes, std::out_of_range for a host outside [0, hosts()) and
  /// std::invalid_argument when src == dst.
  double send(double t, int src, int dst, std::uint64_t bytes);

  /// Many-to-one: each (src, bytes) stream starts at `t`, all destined to
  /// `dst`; returns the time the last byte arrives (models the master-side
  /// incast bottleneck a pruning switch relieves). Every flow, zero-byte
  /// ones included, is checked as send() checks it before any is sent.
  double gather(double t, const std::vector<std::pair<int, std::uint64_t>>& flows,
                int dst);

  void reset();

 private:
  /// Throws unless src and dst are distinct hosts of this star.
  void check_hosts(const char* what, int src, int dst) const;

  std::vector<Link> up_;
  std::vector<Link> down_;
  double hop_latency_s_;
};

}  // namespace fpisa::net
