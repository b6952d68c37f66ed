#include "cluster/hierarchy.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/vector_accumulator.h"
#include "net/link.h"

namespace fpisa::cluster {
namespace {

/// Shape and timing-model checks, made before any switch is built (the
/// switches check their own lanes and slots).
HierarchyOptions validated(HierarchyOptions opts) {
  if (opts.leaves <= 0 || opts.workers_per_leaf <= 0) {
    throw std::invalid_argument("hierarchy: need leaves and workers");
  }
  if (opts.leaves > 32 || opts.workers_per_leaf > 32) {
    throw std::invalid_argument("hierarchy: bitmap is 32 bits wide");
  }
  const auto rate = [](double gbps) { return std::isfinite(gbps) && gbps > 0; };
  if (!rate(opts.link_gbps) || !rate(opts.pipeline_gbps)) {
    throw std::invalid_argument(
        "hierarchy: link and pipeline rates must be finite and positive");
  }
  if (!std::isfinite(opts.link_latency_us) || opts.link_latency_us < 0) {
    throw std::invalid_argument(
        "hierarchy: link latency must be finite and non-negative");
  }
  return opts;
}

}  // namespace

HierarchicalAggregator::HierarchicalAggregator(HierarchyOptions opts)
    : opts_(validated(opts)), engine_(opts.lanes) {
  for (int j = 0; j < opts_.leaves; ++j) {
    leaves_.push_back(std::make_unique<pisa::FpisaSwitch>(
        opts_.switch_config,
        pisa::fpisa_program_options(opts_.switch_config, opts_.lanes,
                                    opts_.slots)));
    leaf_passes_.push_back(std::make_unique<LeafPass>(opts_.lanes));
  }
  pisa::SwitchConfig spine_config = opts_.switch_config;
  if (opts_.full_fpisa_spine) {
    spine_config.ext.rsaw = true;
    spine_config.ext.two_operand_shift = true;
  }
  spine_ = std::make_unique<pisa::FpisaSwitch>(
      spine_config,
      pisa::fpisa_program_options(spine_config, opts_.lanes, opts_.slots));
  leaf_alive_.assign(static_cast<std::size_t>(opts_.leaves), true);
  init_metrics();
}

void HierarchicalAggregator::run_leaf(std::size_t j) noexcept {
  if (!leaf_alive_[j]) return;
  const auto wpl = static_cast<std::size_t>(opts_.workers_per_leaf);
  LeafPass& pass = *leaf_passes_[j];
  pass.stats = {};
  pass.error = nullptr;
  try {
    // The tree's links are lossless: the job has no rng and draws nothing.
    switchml::WaveJob job;
    job.workers = reduce_workers_.subspan(j * wpl, wpl);
    job.chunks = chunk_ids_;
    job.wave = opts_.slots;
    job.stats = &pass.stats;
    job.out = pass.partial;
    switchml::DirectAccess leaf(*leaves_[j]);
    pass.engine.run(leaf, job);
  } catch (...) {
    pass.error = std::current_exception();
  }
}

void HierarchicalAggregator::init_metrics() {
  const auto& tree = label_.label();
  auto& reg = telemetry::registry();
  const auto bounds = telemetry::MetricsRegistry::time_buckets();
  m_reduces_ = &reg.counter("tree_reduces_total", {tree});
  m_packets_ = &reg.counter("tree_packets_total", {tree});
  m_wire_bytes_ = &reg.counter("tree_wire_bytes_total", {tree});
  m_alive_leaves_ = &reg.gauge("tree_alive_leaves", {tree});
  m_level_[0] =
      &reg.histogram("tree_level_seconds", {tree, {"level", "leaf"}}, bounds);
  m_level_[1] =
      &reg.histogram("tree_level_seconds", {tree, {"level", "spine"}}, bounds);
  m_alive_leaves_->set(static_cast<double>(opts_.leaves));
}

telemetry::PhaseBreakdown HierarchicalAggregator::phase_breakdown() const {
  return {m_level_[0]->sum(), m_level_[1]->sum()};
}

bool HierarchicalAggregator::leaf_alive(int i) const {
  if (i < 0 || i >= opts_.leaves) {
    throw std::invalid_argument("hierarchy: leaf_alive: unknown leaf");
  }
  return leaf_alive_[static_cast<std::size_t>(i)];
}

int HierarchicalAggregator::alive_leaves() const {
  int n = 0;
  for (const bool a : leaf_alive_) n += a ? 1 : 0;
  return n;
}

void HierarchicalAggregator::kill_leaf(int i) {
  if (i < 0 || i >= opts_.leaves) {
    throw std::invalid_argument("hierarchy: kill_leaf: unknown leaf");
  }
  if (!leaf_alive_[static_cast<std::size_t>(i)]) return;
  // Dead leaves' workers send straight to the spine with bitmap ids above
  // the leaf-partial ids [0, leaves); the spine's bitmap is 32 bits wide.
  const int dead_workers =
      (opts_.leaves - alive_leaves() + 1) * opts_.workers_per_leaf;
  if (opts_.leaves + dead_workers > 32) {
    throw std::invalid_argument(
        "hierarchy: kill_leaf: spine bitmap cannot fit the leaf's workers");
  }
  if (alive_leaves() == 1) {
    throw std::invalid_argument("hierarchy: cannot kill the last leaf");
  }
  leaf_alive_[static_cast<std::size_t>(i)] = false;
  leaf_passes_[static_cast<std::size_t>(i)]->partial = {};
  timed_chunks_.reset();
  m_alive_leaves_->set(static_cast<double>(alive_leaves()));
}

std::size_t HierarchicalAggregator::packet_bytes() const {
  return static_cast<std::size_t>(pisa::kFpisaHeaderBytes) +
         4u * static_cast<std::size_t>(opts_.lanes) +
         opts_.frame_overhead_bytes;
}

void HierarchicalAggregator::reduce_into(
    std::span<const std::span<const float>> workers, std::span<float> result) {
  const int wpl = opts_.workers_per_leaf;
  if (static_cast<int>(workers.size()) != total_workers()) {
    throw std::invalid_argument("hierarchy: wrong worker count");
  }
  core::check_views(workers, result.size(), "hierarchy");
  const std::size_t n = result.size();
  std::fill(result.begin(), result.end(), 0.0f);
  const auto lanes = static_cast<std::size_t>(opts_.lanes);
  const std::size_t chunks = (n + lanes - 1) / lanes;
  if (chunk_ids_.size() != chunks) {
    chunk_ids_.resize(chunks);
    std::iota(chunk_ids_.begin(), chunk_ids_.end(), std::size_t{0});
  }

  // Functional datapath: one engine pass per live leaf aggregates its
  // rack into a partial, the passes running concurrently; then one spine
  // pass combines them. The spine's per-slot arrival order is leaf order,
  // a dead leaf's workers standing in ToR-worker order where its partial
  // would have been; their bitmap ids sit above the leaf-partial ids
  // [0, leaves) — dead leaf j's worker k sends as dead_base + k (capacity
  // was checked at kill_leaf time).
  for (std::size_t j = 0; j < leaves_.size(); ++j) {
    if (leaf_alive_[j]) leaf_passes_[j]->partial.resize(n);
  }
  reduce_workers_ = workers;
  const FanOut::Item leaf = [](void* self, int, std::size_t j) noexcept {
    static_cast<HierarchicalAggregator*>(self)->run_leaf(j);
  };
  fan_out_.for_each(&datapath_pool(), leaves_.size(), alive_leaves() - 1,
                    leaf, this);
  stats_ = {};
  for (std::size_t j = 0; j < leaves_.size(); ++j) {
    if (!leaf_alive_[j]) continue;
    const LeafPass& pass = *leaf_passes_[j];
    if (pass.error) std::rethrow_exception(pass.error);
    stats_ += pass.stats;
  }

  spine_inputs_.clear();
  spine_ids_.clear();
  int dead_base = opts_.leaves;
  for (int j = 0; j < opts_.leaves; ++j) {
    if (leaf_alive_[static_cast<std::size_t>(j)]) {
      spine_inputs_.push_back(
          leaf_passes_[static_cast<std::size_t>(j)]->partial);
      spine_ids_.push_back(static_cast<std::uint8_t>(j));
      continue;
    }
    const auto rack = workers.subspan(static_cast<std::size_t>(j * wpl),
                                      static_cast<std::size_t>(wpl));
    for (int k = 0; k < wpl; ++k) {
      spine_inputs_.push_back(rack[static_cast<std::size_t>(k)]);
      spine_ids_.push_back(static_cast<std::uint8_t>(dead_base + k));
    }
    dead_base += wpl;
  }
  switchml::WaveJob job;
  job.workers = spine_inputs_;
  job.ids = spine_ids_;
  job.chunks = chunk_ids_;
  job.wave = opts_.slots;
  job.stats = &stats_;
  job.out = result;
  switchml::DirectAccess spine(*spine_);
  engine_.run(spine, job);

  // The model depends only on the chunk count and the live leaves, so it
  // runs once per shape; kill_leaf forgets it.
  if (timed_chunks_ != chunks) {
    timing_ = model_timing(chunks);
    timed_chunks_ = chunks;
  }
  const HierarchyTiming& timing = timing_;

  // Registry: per-level fan-in time for THIS reduce (modeled seconds —
  // leaf level is the host->ToR fan-in until the last partial is handed
  // up; spine level is everything after) plus traffic deltas.
  m_reduces_->inc();
  m_packets_->inc(timing.packets);
  m_wire_bytes_->inc(timing.wire_bytes);
  m_level_[0]->observe(timing.leaf_done_s);
  m_level_[1]->observe(std::max(0.0, timing.done_s - timing.leaf_done_s));
}

HierarchyTiming HierarchicalAggregator::model_timing(std::size_t chunks) {
  const int wpl = opts_.workers_per_leaf;
  const std::size_t pkt = packet_bytes();
  // One uplink per host, one per ToR, one result downlink per ToR. Workers
  // stream back-to-back from t = 0; the tree's slot pool is assumed deep
  // enough to keep every pipe full.
  const auto nl = static_cast<std::size_t>(opts_.leaves);
  const net::Link link(opts_.link_gbps, opts_.link_latency_us);
  std::vector<net::Link> worker_up(static_cast<std::size_t>(total_workers()),
                                   link);
  std::vector<net::Link> tor_up(nl, link);
  std::vector<net::Link> spine_down(nl, link);
  // Every switch's packet-processing pipeline is SHARED across its ingress
  // ports: worker packets serialize through their ToR's pipe, and ToR
  // partials through the spine's, before contributing. This is the
  // topology-dependent term — with few leaves the links dominate, with
  // more fan-in the shared pipes do.
  std::vector<net::Link> leaf_pipe(nl, net::Link(opts_.pipeline_gbps, 0.0));
  net::Link spine_pipe(opts_.pipeline_gbps, 0.0);
  HierarchyTiming timing{};

  // Host uplinks and ToR pipes see their packets in chunk order. A live
  // ToR hands its partial up once the chunk's last host packet clears its
  // pipe; a dead ToR's workers bypass it and feed the spine directly, one
  // flow each.
  tor_handoffs_.clear();
  spine_arrivals_.clear();
  for (std::size_t c = 0; c < chunks; ++c) {
    for (std::size_t j = 0; j < nl; ++j) {
      const bool alive = leaf_alive_[j];
      double leaf_ready = 0.0;
      for (int k = 0; k < wpl; ++k) {
        const std::size_t w = j * static_cast<std::size_t>(wpl) +
                              static_cast<std::size_t>(k);
        const double at_next_hop = worker_up[w].send(0.0, pkt);
        if (alive) {
          leaf_ready =
              std::max(leaf_ready, leaf_pipe[j].send(at_next_hop, pkt));
        } else {
          spine_arrivals_.push_back({at_next_hop, c, j});
        }
        ++timing.packets;
      }
      if (alive) tor_handoffs_.push_back({leaf_ready, c, j});
    }
  }

  // ToR uplinks serve the hand-offs in time order, ties in generation
  // order; each partial then joins the spine fan-in behind the direct
  // senders, whose packets were generated first.
  const auto by_time = [](const Hop& a, const Hop& b) { return a.t < b.t; };
  std::stable_sort(tor_handoffs_.begin(), tor_handoffs_.end(), by_time);
  for (const Hop& h : tor_handoffs_) {
    spine_arrivals_.push_back({tor_up[h.j].send(h.t, pkt), h.c, h.j});
    ++timing.packets;
    timing.leaf_done_s = std::max(timing.leaf_done_s, h.t);
  }

  // The spine pipe serves every arrival in time order. Its departures
  // never decrease, so a chunk completes at its last arrival's departure
  // and the result goes down every ToR (spine->ToR serialization + the
  // ToR->host hop latency).
  int spine_arrivals_per_chunk = 0;
  for (std::size_t j = 0; j < nl; ++j) {
    spine_arrivals_per_chunk += leaf_alive_[j] ? 1 : wpl;
  }
  std::stable_sort(spine_arrivals_.begin(), spine_arrivals_.end(), by_time);
  spine_seen_.assign(chunks, 0);
  for (const Hop& a : spine_arrivals_) {
    const double processed = spine_pipe.send(a.t, pkt);
    if (++spine_seen_[a.c] < spine_arrivals_per_chunk) continue;
    for (net::Link& down : spine_down) {
      const double delivered =
          down.send(processed, pkt) + opts_.link_latency_us * 1e-6;
      ++timing.packets;
      timing.done_s = std::max(timing.done_s, delivered);
    }
  }
  timing.wire_bytes = timing.packets * pkt;
  return timing;
}

HierarchyTiming flat_baseline_timing(const HierarchyOptions& opts,
                                     std::size_t n_values) {
  const int total = opts.leaves * opts.workers_per_leaf;
  const auto lanes = static_cast<std::size_t>(opts.lanes);
  const std::size_t chunks = (n_values + lanes - 1) / lanes;
  const std::size_t pkt = static_cast<std::size_t>(pisa::kFpisaHeaderBytes) +
                          4u * lanes + opts.frame_overhead_bytes;

  std::vector<net::Link> up(static_cast<std::size_t>(total),
                            net::Link(opts.link_gbps, opts.link_latency_us));
  std::vector<net::Link> down(static_cast<std::size_t>(total),
                              net::Link(opts.link_gbps, opts.link_latency_us));
  // One shared packet-processing pipeline for the flat switch: every
  // worker's packet serializes through it, so fan-in (total workers) is
  // the flat topology's bottleneck — the term the tree's two levels split.
  net::Link pipe(opts.pipeline_gbps, 0.0);
  HierarchyTiming t{};
  for (std::size_t c = 0; c < chunks; ++c) {
    double arrived = 0.0;
    for (int w = 0; w < total; ++w) {
      const double at_switch = up[static_cast<std::size_t>(w)].send(0.0, pkt);
      arrived = std::max(arrived, pipe.send(at_switch, pkt));
      ++t.packets;
    }
    t.leaf_done_s = std::max(t.leaf_done_s, arrived);
    for (int w = 0; w < total; ++w) {
      const double delivered =
          down[static_cast<std::size_t>(w)].send(arrived, pkt);
      ++t.packets;
      t.done_s = std::max(t.done_s, delivered);
    }
  }
  t.wire_bytes = t.packets * pkt;
  return t;
}

}  // namespace fpisa::cluster
