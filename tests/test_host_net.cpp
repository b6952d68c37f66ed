// Host-side measured rates (Fig 6), the goodput model (Fig 10), training
// speedup cards (Fig 11), and the network timing substrate.
#include <gtest/gtest.h>

#include <stdexcept>

#include "event_sim.h"
#include "host/endianness.h"
#include "host/goodput_model.h"
#include "net/link.h"
#include "net/topology.h"

namespace fpisa {
namespace {

using host::Approach;
using host::MeasuredRates;

TEST(Endianness, SwapsAreCorrectAndInvolutive) {
  std::vector<std::uint32_t> v{0x11223344u, 0xAABBCCDDu};
  host::bswap32_scalar(v);
  EXPECT_EQ(v[0], 0x44332211u);
  host::bswap32_scalar(v);
  EXPECT_EQ(v[0], 0x11223344u);
  std::vector<std::uint16_t> h{0x1122u};
  host::bswap16_vector(h);
  EXPECT_EQ(h[0], 0x2211u);
  std::vector<std::uint64_t> d{0x1122334455667788ull};
  host::bswap64_scalar(d);
  EXPECT_EQ(d[0], 0x8877665544332211ull);
}

TEST(Endianness, QuantizeRoundTrip) {
  std::vector<float> in{1.5f, -2.25f, 0.0f, 100.0f};
  std::vector<std::uint32_t> q(4);
  std::vector<float> out(4);
  host::quantize_block(in, q, 1024.0f);
  host::dequantize_block(q, out, 1.0f / 1024.0f);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(out[i], in[i], 1e-3f);
  host::quantize_block_vector(in, q, 1024.0f);
  host::dequantize_block_vector(q, out, 1.0f / 1024.0f);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(out[i], in[i], 1e-3f);
}

TEST(Endianness, DesiredLineRate) {
  EXPECT_DOUBLE_EQ(host::desired_rate_eps(100.0, 16), 6.25e9);
  EXPECT_DOUBLE_EQ(host::desired_rate_eps(100.0, 32), 3.125e9);
  EXPECT_DOUBLE_EQ(host::desired_rate_eps(100.0, 64), 1.5625e9);
}

TEST(Endianness, MeasurementProducesPositiveRates) {
  const MeasuredRates r = host::measure_host_rates(5.0);
  EXPECT_GT(r.bswap16_scalar_eps, 0);
  EXPECT_GT(r.bswap32_scalar_eps, 0);
  EXPECT_GT(r.quantize_eps, 0);
  EXPECT_GT(r.memcpy_bytes_per_s, 0);
  // Sanity-check the vectorized measurement, not a perf ordering: on
  // shared/unpinned CI hosts the autovectorized loop can legitimately
  // time slower than scalar, so only catch a broken (garbage) reading.
  EXPECT_GT(r.bswap32_vector_eps, 0);
  EXPECT_GE(r.bswap32_vector_eps, r.bswap32_scalar_eps * 0.2);
}

/// Synthetic, machine-independent rates for deterministic model tests
/// (roughly an E5-2630v4-class core).
MeasuredRates synthetic_rates() {
  MeasuredRates r;
  r.bswap16_scalar_eps = 0.6e9;
  r.bswap32_scalar_eps = 0.6e9;
  r.bswap64_scalar_eps = 0.5e9;
  r.quantize_eps = 0.4e9;
  r.dequantize_eps = 0.4e9;
  r.quantize_vector_eps = 1.4e9;
  r.dequantize_vector_eps = 1.4e9;
  r.memcpy_bytes_per_s = 11e9;
  return r;
}

TEST(GoodputModel, Fig10CoreShapes) {
  const MeasuredRates r = synthetic_rates();
  const double msg = 16 * 1024;

  // (1) FPISA-A/CPU(Opt) saturates with a single core.
  EXPECT_NEAR(host::goodput_gbps(Approach::kFpisaCpuOpt, 1, msg, r), 92.0, 0.5);

  // (2) Cores to reach max goodput: FPISA-A/CPU needs fewer than
  // SwitchML/CPU (the 25-75% fewer cores claim).
  auto cores_to_saturate = [&](Approach a) {
    for (int c = 1; c <= 10; ++c) {
      if (host::goodput_gbps(a, c, msg, r) >= 91.0) return c;
    }
    return 11;
  };
  const int swml = cores_to_saturate(Approach::kSwitchMlCpu);
  const int fpisa = cores_to_saturate(Approach::kFpisaCpu);
  EXPECT_LT(fpisa, swml);
  EXPECT_LE(fpisa, 4);

  // (3) Goodput is monotone in cores and capped at 92.
  double prev = 0;
  for (int c = 1; c <= 10; ++c) {
    const double g = host::goodput_gbps(Approach::kSwitchMlCpu, c, msg, r);
    EXPECT_GE(g, prev);
    EXPECT_LE(g, 92.0);
    prev = g;
  }
}

TEST(GoodputModel, Fig10GpuShapes) {
  const MeasuredRates r = synthetic_rates();
  // SwitchML/GPU is poor below 256 KB messages (launch-serialized), decent
  // at 1 MB; FPISA-A/GPU is ~copy-engine-bound and flat across sizes.
  const double small = host::goodput_gbps(Approach::kSwitchMlGpu, 4, 16 * 1024, r);
  const double big = host::goodput_gbps(Approach::kSwitchMlGpu, 4, 1024 * 1024, r);
  EXPECT_LT(small, 15.0);
  EXPECT_GT(big, 40.0);

  const double f_small = host::goodput_gbps(Approach::kFpisaGpu, 1, 4 * 1024, r);
  const double f_big = host::goodput_gbps(Approach::kFpisaGpu, 1, 2 * 1024 * 1024, r);
  EXPECT_NEAR(f_small, f_big, 1.0);      // flat across message sizes
  EXPECT_GT(f_small, 60.0);              // near the 80 Gbps copy bound
  EXPECT_LE(f_small, 80.0);
  EXPECT_GT(f_small, big);               // beats SwitchML/GPU even at 1 MB
}

TEST(GoodputModel, SwitchMlLargeMessagePenalty) {
  const MeasuredRates r = synthetic_rates();
  const double mid = host::goodput_gbps(Approach::kSwitchMlCpu, 4, 256 * 1024, r);
  const double huge =
      host::goodput_gbps(Approach::kSwitchMlCpu, 4, 2 * 1024 * 1024, r);
  EXPECT_LT(huge, mid);  // pipelining loss past the window
}

TEST(TrainingSpeedup, Fig11Shape) {
  const MeasuredRates r = synthetic_rates();
  const auto rows = host::training_speedups(r);
  ASSERT_EQ(rows.size(), 7u);

  auto find = [&](const char* name) {
    for (const auto& row : rows) {
      if (std::string_view(row.model) == name) return row;
    }
    ADD_FAILURE() << name;
    return rows.front();
  };
  // Comm-bound models gain a lot; compute-bound ones barely move.
  EXPECT_GT(find("DeepLight").speedup_2core, 0.3);
  EXPECT_GT(find("LSTM").speedup_2core, 0.2);
  EXPECT_GT(find("BERT").speedup_2core, 0.1);
  EXPECT_LT(find("GoogleNet").speedup_2core, 0.10);
  EXPECT_LT(find("MobileNetV2").speedup_2core, 0.10);
  EXPECT_LT(find("ResNet-50").speedup_2core, 0.15);
  // More cores shrink the gap (2-core speedup > 8-core speedup).
  EXPECT_GT(find("DeepLight").speedup_2core, find("DeepLight").speedup_8core);
  EXPECT_GT(find("VGG19").speedup_2core, find("VGG19").speedup_8core);
  // Ordering: DeepLight > LSTM > BERT > VGG19 (decreasing comm-boundness).
  EXPECT_GT(find("DeepLight").speedup_2core, find("LSTM").speedup_2core);
  EXPECT_GT(find("LSTM").speedup_2core, find("BERT").speedup_2core);
  EXPECT_GT(find("BERT").speedup_2core, find("VGG19").speedup_2core);
}

// ---------------------------------------------------------------------------
// Network substrate
// ---------------------------------------------------------------------------

TEST(EventSim, OrdersEventsByTimeThenFifo) {
  net::EventSim sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(3); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(1.0, [&] { order.push_back(2); });  // FIFO tie-break
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.0);
}

TEST(Link, SerializesBackToBack) {
  net::Link link(10.0, 5.0);  // 10 Gbps, 5 us
  const double t1 = link.send(0.0, 1250);  // 1 us of bits
  EXPECT_NEAR(t1, 1e-6 + 5e-6, 1e-12);
  const double t2 = link.send(0.0, 1250);  // queued behind the first
  EXPECT_NEAR(t2, 2e-6 + 5e-6, 1e-12);
  EXPECT_NEAR(link.busy_seconds(), 2e-6, 1e-12);
}

TEST(StarTopology, GatherAccountsForDownlinkContention) {
  net::StarTopology star(3, 10.0, 1.0);  // hosts 0,1 -> master 2
  const std::vector<std::pair<int, std::uint64_t>> flows{{0, 12500},
                                                         {1, 12500}};
  const double done = star.gather(0.0, flows, 2);
  // Each flow is 10 us of bits; uplinks run in parallel but the master
  // downlink serializes both: >= 20 us (+ propagation hops).
  EXPECT_GT(done, 20e-6);
  EXPECT_LT(done, 36e-6);
}

TEST(StarTopology, BadHostsThrowInEveryBuildBeforeAnyLinkMoves) {
  net::StarTopology star(3, 10.0, 1.0);
  EXPECT_THROW(star.send(0.0, 1, 1, 100), std::invalid_argument);
  EXPECT_THROW(star.send(0.0, -1, 2, 100), std::out_of_range);
  EXPECT_THROW(star.send(0.0, 0, 3, 100), std::out_of_range);
  // gather checks every flow, zero-byte ones included, before it sends
  // any: the good first flow must not have occupied its links.
  const std::vector<std::pair<int, std::uint64_t>> bad_src{{0, 12500},
                                                           {5, 0}};
  EXPECT_THROW(star.gather(0.0, bad_src, 2), std::out_of_range);
  const std::vector<std::pair<int, std::uint64_t>> to_self{{0, 12500},
                                                           {2, 12500}};
  EXPECT_THROW(star.gather(0.0, to_self, 2), std::invalid_argument);
  EXPECT_THROW(star.gather(0.0, {{0, 1}}, 7), std::out_of_range);
  net::StarTopology fresh(3, 10.0, 1.0);
  EXPECT_EQ(star.send(0.0, 0, 2, 12500), fresh.send(0.0, 0, 2, 12500));
}

}  // namespace
}  // namespace fpisa
