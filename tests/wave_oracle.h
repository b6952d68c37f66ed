// Test oracles for the wave protocol. src/ has one implementation, the
// switchml::WaveEngine; these are the reference protocols it must
// reproduce bit for bit:
//  * per_packet_run: the SwitchML per-packet protocol — one interpreted
//    switch traversal per add, read and reset packet, loss drawn packet by
//    packet;
//  * TreeOracle: the ToR -> spine tree's interleaved per-slot loop, leaf
//    adds then per-slot leaf read_and_reset + spine add;
//  * tree_timing: the tree's fabric timing replayed through an event queue,
//    the reference for the closed form in cluster::HierarchicalAggregator.
// Header-only and test-only.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "cluster/hierarchy.h"
#include "core/packed.h"
#include "event_sim.h"
#include "net/link.h"
#include "pisa/fpisa_program.h"
#include "switchml/wave_engine.h"

namespace fpisa::oracle {

/// Runs `job` (workers, ids, chunks, out, slot range, loss, rng, stats,
/// dead_mask; guarded mode and hooks are not modelled) packet by packet.
inline void per_packet_run(pisa::FpisaSwitch& sw,
                           const switchml::WaveJob& job) {
  using Error = switchml::RetransmitExhaustedError;
  const auto lanes = static_cast<std::size_t>(sw.options().lanes);
  const std::size_t n = job.out.size();
  switchml::SessionStats& st = *job.stats;
  const auto lost = [&] {
    if (job.rng->next_double() >= job.loss_rate) return false;
    ++st.packets_lost;
    return true;
  };
  std::vector<std::uint32_t> vals(lanes);
  pisa::FpisaResult r;
  for (std::size_t base = 0; base < job.chunks.size(); base += job.wave) {
    const std::size_t end = std::min(base + job.wave, job.chunks.size());
    for (std::size_t k = base; k < end; ++k) {
      const auto slot = static_cast<std::uint16_t>(job.lo + (k - base));
      for (std::size_t w = 0; w < job.workers.size(); ++w) {
        if ((job.dead_mask >> w) & 1u) continue;
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::size_t i = job.chunks[k] * lanes + l;
          vals[l] = i < n ? core::fp32_bits(job.workers[w][i]) : 0;
        }
        const auto id = job.ids.empty() ? static_cast<std::uint8_t>(w)
                                        : job.ids[w];
        bool acked = false;
        bool delivered = false;
        for (int a = 0; a <= job.max_retransmits && !acked; ++a) {
          if (a > 0) ++st.retransmissions;
          ++st.packets_sent;
          if (lost()) continue;
          if (delivered) ++st.duplicates_absorbed;
          delivered = true;
          (void)sw.add(slot, id, vals);
          acked = !lost();
        }
        if (!acked) throw Error(Error::Phase::kAdd, slot, static_cast<int>(w));
      }
    }
    for (std::size_t k = base; k < end; ++k) {
      const auto slot = static_cast<std::uint16_t>(job.lo + (k - base));
      bool have = false;
      for (int a = 0; a <= job.max_retransmits && !have; ++a) {
        ++st.packets_sent;
        if (lost()) continue;
        r = sw.read(slot);
        have = !lost();
      }
      if (!have) throw Error(Error::Phase::kRead, slot, -1);
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t i = job.chunks[k] * lanes + l;
        if (i < n) job.out[i] = core::fp32_value(r.values[l]);
      }
      bool cleared = false;
      for (int a = 0; a <= job.max_retransmits; ++a) {
        ++st.packets_sent;
        if (lost()) continue;
        (void)sw.read_and_reset(slot);
        ++st.slot_reuses;
        cleared = true;
        if (!lost()) break;  // a lost ack only re-clears an empty slot
      }
      if (!cleared) throw Error(Error::Phase::kReset, slot, -1);
    }
  }
}

/// Times a tree reduce of `chunks` packets per worker by event simulation:
/// host uplinks and ToR pipes are sent eagerly, each live ToR's hand-off,
/// every spine arrival and every spine completion is an event (ties in
/// scheduling order). `alive[j]` is false for a dead leaf, whose workers
/// send straight to the spine.
inline cluster::HierarchyTiming tree_timing(
    const cluster::HierarchyOptions& opts, const std::vector<bool>& alive,
    std::size_t chunks) {
  const int wpl = opts.workers_per_leaf;
  const std::size_t pkt = static_cast<std::size_t>(pisa::kFpisaHeaderBytes) +
                          4u * static_cast<std::size_t>(opts.lanes) +
                          opts.frame_overhead_bytes;
  const auto nl = static_cast<std::size_t>(opts.leaves);
  const net::Link link(opts.link_gbps, opts.link_latency_us);
  net::EventSim sim;
  std::vector<net::Link> worker_up(nl * static_cast<std::size_t>(wpl), link);
  std::vector<net::Link> tor_up(nl, link);
  std::vector<net::Link> spine_down(nl, link);
  std::vector<net::Link> leaf_pipe(nl, net::Link(opts.pipeline_gbps, 0.0));
  net::Link spine_pipe(opts.pipeline_gbps, 0.0);
  std::vector<int> spine_seen(chunks, 0);
  cluster::HierarchyTiming timing{};

  int arrivals = 0;
  for (std::size_t j = 0; j < nl; ++j) arrivals += alive[j] ? 1 : wpl;
  const auto spine_arrival = [&](std::size_t c) {
    const double processed = spine_pipe.send(sim.now(), pkt);
    sim.at(processed, [&, c] {
      if (++spine_seen[c] < arrivals) return;
      for (auto& down : spine_down) {
        const double delivered =
            down.send(sim.now(), pkt) + opts.link_latency_us * 1e-6;
        ++timing.packets;
        timing.done_s = std::max(timing.done_s, delivered);
      }
    });
  };

  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t j = 0; j < nl; ++j) {
      double leaf_ready = 0.0;
      for (int k = 0; k < wpl; ++k) {
        const std::size_t w =
            j * static_cast<std::size_t>(wpl) + static_cast<std::size_t>(k);
        const double hop = worker_up[w].send(0.0, pkt);
        if (alive[j]) {
          leaf_ready = std::max(leaf_ready, leaf_pipe[j].send(hop, pkt));
        } else {
          sim.at(hop, [&spine_arrival, c] { spine_arrival(c); });
        }
        ++timing.packets;
      }
      if (!alive[j]) continue;
      sim.at(leaf_ready, [&, c, j] {
        const double at_spine = tor_up[j].send(sim.now(), pkt);
        ++timing.packets;
        timing.leaf_done_s = std::max(timing.leaf_done_s, sim.now());
        sim.at(at_spine, [&spine_arrival, c] { spine_arrival(c); });
      });
    }
  }
  sim.run();
  timing.wire_bytes = timing.packets * pkt;
  return timing;
}

/// The tree as it ran before the wave engine: its own switches, the same
/// program options as cluster::HierarchicalAggregator, and the interleaved
/// per-slot loop. reduce() returns the reduction's tree_timing(); stats()
/// holds its wire books as the per-packet protocol (per_packet_run) keeps
/// them on a lossless wire: one packet per add, and a read and a reset
/// packet per slot each switch drains.
class TreeOracle {
 public:
  explicit TreeOracle(const cluster::HierarchyOptions& opts) : opts_(opts) {
    for (int j = 0; j < opts.leaves; ++j) {
      leaves_.push_back(std::make_unique<pisa::FpisaSwitch>(
          opts.switch_config, program(opts.switch_config)));
    }
    pisa::SwitchConfig spine = opts.switch_config;
    if (opts.full_fpisa_spine) {
      spine.ext.rsaw = true;
      spine.ext.two_operand_shift = true;
    }
    spine_ = std::make_unique<pisa::FpisaSwitch>(spine, program(spine));
    alive_.assign(static_cast<std::size_t>(opts.leaves), true);
  }

  void kill_leaf(int j) { alive_[static_cast<std::size_t>(j)] = false; }
  pisa::FpisaSwitch& leaf(int j) {
    return *leaves_[static_cast<std::size_t>(j)];
  }
  pisa::FpisaSwitch& spine() { return *spine_; }
  /// Wire books of the most recent reduce().
  const switchml::SessionStats& stats() const { return stats_; }

  cluster::HierarchyTiming reduce(
      std::span<const std::span<const float>> workers,
      std::span<float> result) {
    const int wpl = opts_.workers_per_leaf;
    const std::size_t n = workers.front().size();
    const auto lanes = static_cast<std::size_t>(opts_.lanes);
    const std::size_t chunks = (n + lanes - 1) / lanes;
    const auto nl = static_cast<std::size_t>(opts_.leaves);
    std::vector<std::uint32_t> vals(lanes);
    const auto load = [&](std::size_t w, std::size_t c) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::size_t i = c * lanes + l;
        vals[l] = i < n ? core::fp32_bits(workers[w][i]) : 0;
      }
    };

    stats_ = {};
    const auto add = [&](pisa::FpisaSwitch& sw, std::uint16_t slot,
                         std::uint8_t id, std::span<const std::uint32_t> v) {
      ++stats_.packets_sent;
      (void)sw.add(slot, id, v);
    };
    const auto drain = [&](pisa::FpisaSwitch& sw, std::uint16_t slot) {
      stats_.packets_sent += 2;
      ++stats_.slot_reuses;
      return sw.read_and_reset(slot);
    };
    std::vector<int> dead_base(nl, -1);
    int next_direct_id = opts_.leaves;
    for (std::size_t j = 0; j < nl; ++j) {
      if (!alive_[j]) {
        dead_base[j] = next_direct_id;
        next_direct_id += wpl;
      }
    }

    for (std::size_t base = 0; base < chunks; base += opts_.slots) {
      const std::size_t wave_end = std::min(base + opts_.slots, chunks);
      for (std::size_t c = base; c < wave_end; ++c) {
        const auto slot = static_cast<std::uint16_t>(c - base);
        for (std::size_t j = 0; j < nl; ++j) {
          if (!alive_[j]) continue;
          for (int k = 0; k < wpl; ++k) {
            load(j * static_cast<std::size_t>(wpl) +
                     static_cast<std::size_t>(k),
                 c);
            add(*leaves_[j], slot, static_cast<std::uint8_t>(k), vals);
          }
        }
      }
      for (std::size_t c = base; c < wave_end; ++c) {
        const auto slot = static_cast<std::uint16_t>(c - base);
        for (std::size_t j = 0; j < nl; ++j) {
          if (alive_[j]) {
            const pisa::FpisaResult partial = drain(*leaves_[j], slot);
            add(*spine_, slot, static_cast<std::uint8_t>(j), partial.values);
            continue;
          }
          for (int k = 0; k < wpl; ++k) {
            load(j * static_cast<std::size_t>(wpl) +
                     static_cast<std::size_t>(k),
                 c);
            add(*spine_, slot, static_cast<std::uint8_t>(dead_base[j] + k),
                vals);
          }
        }
        const pisa::FpisaResult combined = drain(*spine_, slot);
        for (std::size_t l = 0; l < lanes; ++l) {
          const std::size_t i = c * lanes + l;
          if (i < n) result[i] = core::fp32_value(combined.values[l]);
        }
      }
    }
    return tree_timing(opts_, alive_, chunks);
  }

 private:
  pisa::FpisaProgramOptions program(const pisa::SwitchConfig& cfg) const {
    pisa::FpisaProgramOptions p;
    p.variant = cfg.ext.rsaw ? core::Variant::kFull
                             : core::Variant::kApproximate;
    p.lanes = opts_.lanes;
    p.slots = opts_.slots;
    return p;
  }

  cluster::HierarchyOptions opts_;
  std::vector<std::unique_ptr<pisa::FpisaSwitch>> leaves_;
  std::unique_ptr<pisa::FpisaSwitch> spine_;
  std::vector<bool> alive_;
  switchml::SessionStats stats_{};
};

}  // namespace fpisa::oracle
