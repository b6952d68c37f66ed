// The FPISA switch program (Fig 2) run on the PISA simulator, validated
// bit-exactly against the core software reference, plus the Table 3
// resource analysis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/accumulator.h"
#include "core/batch_accumulator.h"
#include "core/packed.h"
#include "pisa/fpisa_program.h"
#include "pisa/resources.h"
#include "util/rng.h"
#include "testkit.h"

namespace {

/// Heap accounting for the build-cost test: the operator new calls this
/// thread makes while `armed`, and the bytes they ask for.
struct AllocCount {
  bool armed = false;
  std::size_t calls = 0;
  std::size_t bytes = 0;
};
thread_local AllocCount g_allocs;

}  // namespace

// Out of line: once GCC inlines a replacement pair into a new-expression's
// caller, it sees `free` on memory from `new` and reports
// -Wmismatched-new-delete, although the pair is consistent.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_allocs.armed) {
    g_allocs.calls++;
    g_allocs.bytes += n;
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace fpisa::pisa {
namespace {

SwitchConfig baseline_tofino() { return {}; }

SwitchConfig extended_switch() {
  SwitchConfig c;
  c.ext.two_operand_shift = true;
  c.ext.rsaw = true;
  c.ext.parser_endianness = true;
  return c;
}

core::AccumulatorConfig core_cfg(core::Variant v) {
  core::AccumulatorConfig c;
  c.variant = v;
  c.overflow = core::OverflowPolicy::kWrap;  // hardware semantics
  return c;
}

TEST(FpisaSwitch, PaperRunningExample) {
  // Fig 4: 3.0 + 1.0 through the actual pipeline; result must be 4.0 and
  // the registers must hold the denormalized intermediate.
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);

  const std::uint32_t three[] = {core::fp32_bits(3.0f)};
  const std::uint32_t one[] = {core::fp32_bits(1.0f)};
  sw.add(0, 0, three);
  const FpisaResult r = sw.add(0, 1, one);

  EXPECT_EQ(sw.sim().reg(0).read(0), 128u);                // exponent of 2^1
  EXPECT_EQ(sw.sim().reg(1).read(0), std::uint64_t{1} << 24);  // 0b10.0...
  EXPECT_EQ(core::fp32_value(r.values[0]), 4.0f);
  EXPECT_EQ(r.count, 2u);
  EXPECT_EQ(r.bitmap, 0b11u);
}

TEST(FpisaSwitch, ReadAndReset) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::uint32_t v[] = {core::fp32_bits(2.5f)};
  sw.add(7, 0, v);
  sw.add(7, 1, v);

  EXPECT_EQ(core::fp32_value(sw.read(7).values[0]), 5.0f);
  EXPECT_EQ(core::fp32_value(sw.read(7).values[0]), 5.0f);  // non-destructive
  EXPECT_EQ(core::fp32_value(sw.read_and_reset(7).values[0]), 5.0f);
  EXPECT_EQ(core::fp32_value(sw.read(7).values[0]), 0.0f);  // cleared
}

TEST(FpisaSwitch, SlotsAreIndependent) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::uint32_t a[] = {core::fp32_bits(1.0f)};
  const std::uint32_t b[] = {core::fp32_bits(10.0f)};
  sw.add(3, 0, a);
  sw.add(9, 0, b);
  EXPECT_EQ(core::fp32_value(sw.read(3).values[0]), 1.0f);
  EXPECT_EQ(core::fp32_value(sw.read(9).values[0]), 10.0f);
}

TEST(FpisaSwitch, MultiLanePacketsAggregateIndependently) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 4;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::uint32_t v1[] = {core::fp32_bits(1.0f), core::fp32_bits(2.0f),
                              core::fp32_bits(-3.0f), core::fp32_bits(0.5f)};
  const std::uint32_t v2[] = {core::fp32_bits(4.0f), core::fp32_bits(-1.0f),
                              core::fp32_bits(1.0f), core::fp32_bits(0.25f)};
  sw.add(0, 0, v1);
  const FpisaResult r = sw.add(0, 1, v2);
  EXPECT_EQ(core::fp32_value(r.values[0]), 5.0f);
  EXPECT_EQ(core::fp32_value(r.values[1]), 1.0f);
  EXPECT_EQ(core::fp32_value(r.values[2]), -2.0f);
  EXPECT_EQ(core::fp32_value(r.values[3]), 0.75f);
}

// ---------------------------------------------------------------------------
// The central fidelity property: the switch program and the software
// reference are bit-identical, state and output, over random streams.
// ---------------------------------------------------------------------------

struct VariantCase {
  core::Variant variant;
  bool extended;
};

class SwitchEquivalence : public ::testing::TestWithParam<VariantCase> {};

TEST_P(SwitchEquivalence, BitExactAgainstCoreReference) {
  const auto [variant, extended] = GetParam();
  FpisaProgramOptions opts;
  opts.variant = variant;
  FpisaSwitch sw(extended ? extended_switch() : baseline_tofino(), opts);
  core::FpisaAccumulator ref(core_cfg(variant));
  core::OpCounters dummy;

  util::Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    // Exponents within [-60, 60]: results stay normal (no FTZ divergence).
    const float v = static_cast<float>(
        (rng.next_u64() & 1 ? 1.0 : -1.0) * rng.uniform(0.5, 1.0) *
        std::exp2(rng.uniform_int(-60, 60)));
    const std::uint32_t bits[] = {core::fp32_bits(v)};
    // Clear the dedup bitmap so a 4000-add stream is not mistaken for
    // retransmissions (register 2 = shared bitmap for a 1-lane program).
    sw.sim().reg(2).write(0, 0);
    const FpisaResult out = sw.add(0, static_cast<std::uint8_t>(i % 32), bits);
    ref.add(v);

    // Register state must match exactly.
    ASSERT_EQ(static_cast<std::int32_t>(sw.sim().reg(0).read(0)),
              ref.state().exp)
        << "add #" << i << " v=" << v;
    ASSERT_EQ(sw.sim().reg(1).read_signed(0), ref.state().man)
        << "add #" << i << " v=" << v;

    // The piggybacked readout equals the reference's renormalized read.
    const std::uint64_t want = ref.read_bits();
    ASSERT_EQ(out.values[0], static_cast<std::uint32_t>(want))
        << "add #" << i << " v=" << v;
  }
  (void)dummy;
}

INSTANTIATE_TEST_SUITE_P(
    Variants, SwitchEquivalence,
    ::testing::Values(VariantCase{core::Variant::kApproximate, false},
                      VariantCase{core::Variant::kApproximate, true},
                      VariantCase{core::Variant::kFull, true}),
    [](const auto& info) {
      return std::string(info.param.variant == core::Variant::kFull
                             ? "full"
                             : "approx") +
             (info.param.extended ? "_ext" : "_baseline");
    });

TEST(FpisaSwitch, MultiLaneBitExactAgainstCoreReferences) {
  // 8 parallel FPISA modules (the extension's multi-instance deployment):
  // every lane must bit-match its own core accumulator across a random
  // stream, for both variants.
  for (const auto variant :
       {core::Variant::kApproximate, core::Variant::kFull}) {
    FpisaProgramOptions opts;
    opts.variant = variant;
    opts.lanes = 8;
    FpisaSwitch sw(extended_switch(), opts);
    std::vector<core::FpisaAccumulator> refs(8,
                                             core::FpisaAccumulator(core_cfg(variant)));
    util::Rng rng(99);
    for (int i = 0; i < 300; ++i) {
      sw.sim().reg(16).write(0, 0);  // clear dedup bitmap (reg 2*lanes)
      std::vector<std::uint32_t> vals(8);
      for (std::size_t l = 0; l < 8; ++l) {
        const float v = static_cast<float>(
            rng.normal(0, 1) * std::exp2(rng.uniform_int(-40, 40)));
        vals[l] = core::fp32_bits(v);
        refs[l].add(v);
      }
      const FpisaResult out = sw.add(0, static_cast<std::uint8_t>(i % 32), vals);
      for (std::size_t l = 0; l < 8; ++l) {
        ASSERT_EQ(out.values[l],
                  static_cast<std::uint32_t>(refs[l].read_bits()))
            << "lane " << l << " add " << i;
        ASSERT_EQ(sw.sim().reg(static_cast<int>(2 * l + 1)).read_signed(0),
                  refs[l].state().man)
            << "lane " << l;
      }
    }
  }
}

TEST(FpisaSwitch, RetransmittedAddsAreDeduplicated) {
  // SwitchML-style loss recovery: a worker that re-sends its packet must
  // not be double-counted. The bitmap stage detects the duplicate and the
  // exponent/mantissa/counter updates are suppressed; the current
  // aggregate is still returned (so the retransmitted packet gets its ack).
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::uint32_t v[] = {core::fp32_bits(1.5f)};
  sw.add(0, 0, v);
  const FpisaResult dup = sw.add(0, 0, v);  // retransmission
  EXPECT_EQ(core::fp32_value(dup.values[0]), 1.5f);  // not 3.0
  EXPECT_EQ(dup.count, 1u);
  EXPECT_EQ(dup.bitmap, 0b1u);
  const FpisaResult fresh = sw.add(0, 1, v);
  EXPECT_EQ(core::fp32_value(fresh.values[0]), 3.0f);
  EXPECT_EQ(fresh.count, 2u);
  EXPECT_EQ(fresh.bitmap, 0b11u);
}

TEST(FpisaSwitch, OverflowClampsToInfinity) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::uint32_t huge[] = {core::fp32_bits(3e38f)};
  sw.add(0, 0, huge);
  const FpisaResult r = sw.add(0, 1, huge);
  EXPECT_TRUE(std::isinf(core::fp32_value(r.values[0])));
  EXPECT_GT(core::fp32_value(r.values[0]), 0.0f);
}

TEST(FpisaSwitch, SubnormalResultFlushesToZero) {
  // The egress range gateway flushes would-be-subnormal outputs (documented
  // divergence from the software reference, which emits true subnormals).
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  FpisaSwitch sw(baseline_tofino(), opts);
  const float tiny = std::ldexp(1.0f, -120);
  const std::uint32_t a[] = {core::fp32_bits(tiny)};
  const std::uint32_t b[] = {core::fp32_bits(-tiny * 0.999f)};
  sw.add(0, 0, a);
  const FpisaResult r = sw.add(0, 1, b);
  // True result ~ 2^-130: subnormal -> FTZ on the switch.
  EXPECT_EQ(core::fp32_value(r.values[0]), 0.0f);
}

TEST(FpisaSwitch, NativeEndianPayloadNeedsParserExtension) {
  // Hosts that skip htonl() produce garbage on a baseline switch but work
  // with the @convert_endianness parser extension (§4.1/§4.2).
  const float x = 1.5f;
  const float y = 0.25f;

  {  // Extension enabled: correct aggregation of little-endian payloads.
    FpisaProgramOptions opts;
    opts.variant = core::Variant::kApproximate;
    opts.convert_endianness = true;
    FpisaSwitch sw(extended_switch(), opts);
    const std::uint32_t xv[] = {core::fp32_bits(x)};
    const std::uint32_t yv[] = {core::fp32_bits(y)};
    sw.add(0, 0, xv);
    const FpisaResult r = sw.add(0, 1, yv);
    EXPECT_EQ(core::fp32_value(r.values[0]), 1.75f);
  }
  {  // Baseline switch fed little-endian bytes: wrong answer.
    FpisaProgramOptions opts;
    opts.variant = core::Variant::kApproximate;
    FpisaSwitch sw(baseline_tofino(), opts);
    const std::uint32_t xv[] = {core::fp32_bits(x)};
    const std::uint32_t yv[] = {core::fp32_bits(y)};
    Packet p1;
    make_fpisa_packet_into(p1, FpisaOp::kAdd, 0, 0, xv,
                           /*little_endian_payload=*/true);
    sw.sim().process(p1);
    Packet p2;
    make_fpisa_packet_into(p2, FpisaOp::kAdd, 0, 1, yv,
                           /*little_endian_payload=*/true);
    sw.sim().process(p2);
    FpisaResult r;
    parse_fpisa_result_into(p2, 1, r, /*little_endian_payload=*/true);
    EXPECT_NE(core::fp32_value(r.values[0]), 1.75f);
  }
}

// ---------------------------------------------------------------------------
// Table 3: resource utilization and the one-instance-per-pipeline result.
// ---------------------------------------------------------------------------

TEST(FpisaResources, Table3Shape) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  const SwitchConfig cfg = baseline_tofino();
  const auto descs = fpisa_resource_descriptors(cfg, opts);
  const ResourceReport report = analyze(descs, cfg);

  EXPECT_EQ(report.stages_used, 9);  // "Nine pipeline stages (out of 12)"
  EXPECT_EQ(report.total_stages, 12);

  const ResourceRow* vliw = report.find("VLIW instruction slots");
  ASSERT_NE(vliw, nullptr);
  // Paper: 96.88% max in a MAU (31 of 32 slots), ~19% total.
  EXPECT_NEAR(vliw->max_stage_pct(), 0.9688, 0.001);
  EXPECT_GT(vliw->total_pct(), 0.15);
  EXPECT_LT(vliw->total_pct(), 0.30);

  const ResourceRow* salu = report.find("Stateful ALU");
  ASSERT_NE(salu, nullptr);
  // Paper: 8.33% total (4 of 48), 50% max in a MAU (2 of 4).
  EXPECT_NEAR(salu->total_pct(), 4.0 / 48.0, 1e-9);
  EXPECT_NEAR(salu->max_stage_pct(), 0.5, 1e-9);

  const ResourceRow* tcam = report.find("TCAM");
  ASSERT_NE(tcam, nullptr);
  EXPECT_NEAR(tcam->max_stage_pct(), 1.0 / 24.0, 1e-9);  // 4.17%

  const ResourceRow* sram = report.find("SRAM");
  ASSERT_NE(sram, nullptr);
  EXPECT_LT(sram->total_pct(), 0.05);  // tiny, as in the paper (1.15%)
}

TEST(FpisaResources, BaselineFitsExactlyOneInstance) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  const SwitchConfig cfg = baseline_tofino();
  EXPECT_EQ(max_instances(fpisa_resource_descriptors(cfg, opts), cfg), 1);
}

// ---------------------------------------------------------------------------
// Compiled (core lane kernels over the slot-major bank) vs interpreted
// (tables + stateful ALUs) switch: bit-identical results, registers,
// bitmap, counter, OpCounters, dedup, occupancy and packet counts — at the
// benchmark width (32 lanes) and an odd width that leaves vector tails
// (5 lanes), on every batch backend this build and CPU offer.
// ---------------------------------------------------------------------------

constexpr std::size_t kEqSlots = 16;

struct SwitchCase {
  core::Variant variant;
  int lanes;
  core::BatchBackend backend;
};

std::vector<SwitchCase> switch_cases() {
  std::vector<SwitchCase> cases;
  for (const auto backend : core::available_batch_backends()) {
    for (const auto variant :
         {core::Variant::kApproximate, core::Variant::kFull}) {
      for (const int lanes : {32, 5}) cases.push_back({variant, lanes, backend});
    }
  }
  return cases;
}

std::string case_tag(const SwitchCase& c) {
  return std::string(c.variant == core::Variant::kFull ? "full" : "approx") +
         "/lanes=" + std::to_string(c.lanes) + "/" +
         (c.backend == core::BatchBackend::kAvx2 ? "avx2" : "scalar");
}

FpisaProgramOptions eq_options(const SwitchCase& c) {
  FpisaProgramOptions opts;
  opts.variant = c.variant;
  opts.lanes = c.lanes;
  opts.slots = kEqSlots;
  return opts;
}

SwitchConfig eq_config(core::Variant v) {
  return v == core::Variant::kFull ? extended_switch() : baseline_tofino();
}

/// Pins the batch backend for one scope and restores the default after.
class ScopedBackend {
 public:
  explicit ScopedBackend(core::BatchBackend b) { core::force_batch_backend(b); }
  ~ScopedBackend() { core::reset_batch_backend(); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
};

/// Every observable of the two switches: all registers (lane exponents and
/// mantissas, bitmap, counter), the §5.2.1 OpCounters, dedup hits,
/// occupancy and packet counts.
void expect_same_switch(FpisaSwitch& got, FpisaSwitch& want,
                        const std::string& what) {
  const int regs = 2 * got.options().lanes + 2;
  for (int r = 0; r < regs; ++r) {
    for (std::size_t s = 0; s < got.options().slots; ++s) {
      ASSERT_EQ(got.sim().reg(r).read(s), want.sim().reg(r).read(s))
          << what << " reg=" << r << " slot=" << s;
    }
  }
  const core::OpCounters& a = got.op_counters();
  const core::OpCounters& b = want.op_counters();
  EXPECT_EQ(a.adds, b.adds) << what;
  EXPECT_EQ(a.rounded_adds, b.rounded_adds) << what;
  EXPECT_EQ(a.overwrites, b.overwrites) << what;
  EXPECT_EQ(a.lshift_overflows, b.lshift_overflows) << what;
  EXPECT_EQ(a.saturations, b.saturations) << what;
  EXPECT_EQ(a.nonfinite_inputs, b.nonfinite_inputs) << what;
  EXPECT_EQ(a.zero_inputs, b.zero_inputs) << what;
  EXPECT_EQ(got.dedup_hits(), want.dedup_hits()) << what;
  EXPECT_EQ(got.occupied_slots(), want.occupied_slots()) << what;
  EXPECT_EQ(got.sim().packets_processed(), want.sim().packets_processed())
      << what;
}

/// One adversarial lane value: normals, wide exponent spreads (overwrite +
/// RSAW paths), ±0, bit noise (inf/NaN/subnormals), ±denorm_min (a stored
/// or incoming mantissa of -1), tiny values whose sums renormalize below
/// the normal range (FTZ) and huge ones that overflow to infinity.
std::uint32_t adversarial_value(util::Rng& rng) {
  switch (rng.next_u64() % 8) {
    case 0:
      return core::fp32_bits(static_cast<float>(rng.normal(0, 1)));
    case 1:
      return core::fp32_bits(static_cast<float>(
          std::exp2(rng.uniform_int(-80, 80)) * rng.normal(0, 1)));
    case 2:
      return (rng.next_u64() & 1) ? 0x80000000u : 0u;
    case 3:
      return static_cast<std::uint32_t>(rng.next_u64());
    case 4:
      return (rng.next_u64() & 1) ? 0x80000001u : 0x00000001u;
    case 5:
      return core::fp32_bits(std::ldexp((rng.next_u64() & 1) ? 1.0f : -1.0f,
                                        -126 - static_cast<int>(
                                                   rng.next_u64() % 20)));
    case 6:
      return core::fp32_bits((rng.next_u64() & 1) ? 3e38f : -3e38f);
    default:
      return core::fp32_bits(static_cast<float>(
          std::exp2(rng.uniform_int(-8, 8)) * rng.normal(0, 1)));
  }
}

struct PacketStream {
  std::vector<std::uint16_t> slots;
  std::vector<std::uint8_t> workers;
  std::vector<std::uint32_t> values;

  std::span<const std::uint32_t> payload(std::size_t p, int lanes) const {
    const auto l = static_cast<std::size_t>(lanes);
    return std::span<const std::uint32_t>(values).subspan(p * l, l);
  }
};

/// Workers drawn from [0, worker_range): small ranges force duplicates.
PacketStream adversarial_stream(std::uint64_t seed, int packets, int lanes,
                                std::uint64_t worker_range) {
  util::Rng rng(seed);
  PacketStream s;
  for (int p = 0; p < packets; ++p) {
    s.slots.push_back(static_cast<std::uint16_t>(rng.next_u64() % kEqSlots));
    s.workers.push_back(
        static_cast<std::uint8_t>(rng.next_u64() % worker_range));
    for (int l = 0; l < lanes; ++l) s.values.push_back(adversarial_value(rng));
  }
  return s;
}

TEST(FpisaSwitch, BatchAddBitIdenticalToPerPacketPipeline) {
  // add_batch must leave exactly the state, accounting and packet count
  // the interpreted per-packet pipeline produces for the same packets —
  // duplicates, zeros, subnormals and non-finite lanes included — and
  // subsequent interpreted reads must agree bit-for-bit.
  for (const SwitchCase& c : switch_cases()) {
    const ScopedBackend pin(c.backend);
    const std::string tag = case_tag(c);
    FpisaSwitch per_packet(eq_config(c.variant), eq_options(c));
    FpisaSwitch batched(eq_config(c.variant), eq_options(c));
    const PacketStream in = adversarial_stream(0xBA7C, 300, c.lanes, 8);

    for (std::size_t p = 0; p < in.slots.size(); ++p) {
      (void)per_packet.add(in.slots[p], in.workers[p],
                           in.payload(p, c.lanes));
    }
    batched.add_batch(in.slots, in.workers, in.values);
    expect_same_switch(batched, per_packet, tag);

    for (std::uint16_t s = 0; s < kEqSlots; ++s) {
      const FpisaResult a = batched.read(s);
      const FpisaResult b = per_packet.read(s);
      ASSERT_EQ(a.bitmap, b.bitmap) << tag << " slot " << s;
      ASSERT_EQ(a.count, b.count) << tag << " slot " << s;
      ASSERT_EQ(a.values, b.values) << tag << " slot " << s;
    }
  }
}

TEST(FpisaSwitch, DescriptorIngressMatchesFlatAdapterAndInterpreter) {
  // The descriptor ingress reads each packet's lanes in place. Here they
  // sit in one byte buffer at an odd offset, in reverse packet order, and
  // the stream ends with repeated descriptors (the same payload pointer
  // again, as a duplicate delivery queues it). Interpreter, flat adapter,
  // unguarded and guarded descriptor ingress must leave the same
  // registers, bitmap, counter, OpCounters, dedup and packet counts.
  for (const SwitchCase& c : switch_cases()) {
    const ScopedBackend pin(c.backend);
    const std::string tag = case_tag(c);
    FpisaSwitch per_packet(eq_config(c.variant), eq_options(c));
    FpisaSwitch flat(eq_config(c.variant), eq_options(c));
    FpisaSwitch desc(eq_config(c.variant), eq_options(c));
    FpisaSwitch guarded(eq_config(c.variant), eq_options(c));
    PacketStream in = adversarial_stream(0xDE5C, 300, c.lanes, 8);
    const auto lanes = static_cast<std::size_t>(c.lanes);
    const std::size_t fresh = in.slots.size();

    std::vector<std::byte> store(1 + fresh * lanes * 4);
    std::vector<const std::byte*> payloads(fresh);
    for (std::size_t p = 0; p < fresh; ++p) {
      std::byte* dst = store.data() + 1 + (fresh - 1 - p) * lanes * 4;
      std::memcpy(dst, in.payload(p, c.lanes).data(), lanes * 4);
      payloads[p] = dst;
    }
    for (std::size_t p = 0; p < 40; ++p) {  // repeated descriptors
      in.slots.push_back(in.slots[p]);
      in.workers.push_back(in.workers[p]);
      const std::vector<std::uint32_t> copy(in.payload(p, c.lanes).begin(),
                                            in.payload(p, c.lanes).end());
      in.values.insert(in.values.end(), copy.begin(), copy.end());
      payloads.push_back(payloads[p]);
    }
    const std::size_t n = in.slots.size();
    std::vector<std::uint32_t> stamps(n);
    std::vector<std::uint16_t> sums(n);
    for (std::size_t p = 0; p < n; ++p) {
      stamps[p] = guarded.slot_stamp(in.slots[p]);
      sums[p] = fpisa_checksum(in.slots[p], in.workers[p], stamps[p],
                               {payloads[p], lanes * 4});
    }

    for (std::size_t p = 0; p < n; ++p) {
      (void)per_packet.add(in.slots[p], in.workers[p],
                           in.payload(p, c.lanes));
    }
    flat.add_batch(in.slots, in.workers, in.values);
    desc.ingress(in.slots, in.workers, payloads);
    FpisaSwitch::GuardStats guard;
    guarded.ingress(in.slots, in.workers, payloads, stamps, sums, &guard);

    EXPECT_GT(per_packet.dedup_hits(), 40u) << tag;
    EXPECT_EQ(guard.corrupt_rejected, 0u) << tag;
    EXPECT_EQ(guard.stale_rejected, 0u) << tag;
    expect_same_switch(flat, per_packet, tag + " flat adapter");
    expect_same_switch(desc, per_packet, tag + " descriptor ingress");
    expect_same_switch(guarded, per_packet, tag + " guarded descriptors");
  }
}

TEST(FpisaSwitch, DescriptorIngressChecksShapesBeforeAnyStateChange) {
  FpisaSwitch sw(eq_config(core::Variant::kFull),
                 eq_options(switch_cases().front()));
  const auto lanes = static_cast<std::size_t>(sw.options().lanes);
  const std::vector<std::uint32_t> values(lanes, core::fp32_bits(1.0f));
  const std::byte* const payload = std::as_bytes(std::span(values)).data();
  const std::vector<const std::byte*> one{payload};
  const std::vector<const std::byte*> two{payload, payload};
  const std::vector<std::uint16_t> slots{0, 1};
  const std::vector<std::uint8_t> workers{0, 1};
  EXPECT_THROW(sw.ingress(slots, workers, one), std::invalid_argument);
  const std::vector<std::uint32_t> stamps{0, 0};
  FpisaSwitch::GuardStats guard;
  EXPECT_THROW(sw.ingress(slots, workers, two, stamps, {}, &guard),
               std::invalid_argument);
  const std::vector<std::uint16_t> bad_slot{
      0, static_cast<std::uint16_t>(kEqSlots)};
  EXPECT_THROW(sw.ingress(bad_slot, workers, two), std::out_of_range);
  EXPECT_EQ(sw.occupied_slots(), 0);
  EXPECT_EQ(sw.op_counters().adds, 0u);
  EXPECT_EQ(sw.sim().packets_processed(), 0u);
}

TEST(FpisaSwitch, BadPacketMidBatchLeavesEveryBookAsItWas) {
  // The ingress pre-pass checks each packet as it settles it. A bad slot
  // or worker id after packets that were accepted, absorbed as duplicates
  // or rejected by the guard must still leave the switch exactly as it
  // was: bitmap, counter, occupancy, dedup, guard books and lanes.
  for (const bool guarded : {false, true}) {
    FpisaSwitch sw(eq_config(core::Variant::kFull),
                   eq_options(switch_cases().front()));
    const auto lanes = static_cast<std::size_t>(sw.options().lanes);
    const std::vector<std::uint32_t> values(lanes, core::fp32_bits(1.5f));
    const std::byte* const payload = std::as_bytes(std::span(values)).data();
    const std::vector<std::uint16_t> warm_slots{2, 3};
    const std::vector<std::uint8_t> warm_workers{0, 4};
    const std::vector<const std::byte*> warm_payloads{payload, payload};
    sw.ingress(warm_slots, warm_workers, warm_payloads);
    const int regs = 2 * sw.options().lanes + 2;
    std::vector<std::vector<std::uint64_t>> before(
        static_cast<std::size_t>(regs));
    for (int r = 0; r < regs; ++r) {
      for (std::size_t s = 0; s < kEqSlots; ++s) {
        before[static_cast<std::size_t>(r)].push_back(sw.sim().reg(r).read(s));
      }
    }
    const std::int64_t occupied = sw.occupied_slots();
    const std::uint64_t dedup = sw.dedup_hits();
    const std::uint64_t adds = sw.op_counters().adds;

    // New bit on an occupied slot, a duplicate, a fresh slot, a second
    // worker on the fresh slot, a corrupt copy (guarded), then the bad
    // packet.
    const std::vector<std::uint16_t> slots{2, 2, 7, 7, 9, 1};
    const std::vector<std::uint8_t> workers{1, 0, 0, 31, 2, 32};
    const std::vector<const std::byte*> payloads(slots.size(), payload);
    FpisaSwitch::GuardStats guard{5, 6};
    if (guarded) {
      std::vector<std::uint32_t> stamps;
      std::vector<std::uint16_t> sums;
      for (std::size_t p = 0; p < slots.size(); ++p) {
        stamps.push_back(sw.slot_stamp(slots[p] % kEqSlots));
        sums.push_back(fpisa_checksum(slots[p], workers[p], stamps[p],
                                      {payload, lanes * 4}));
      }
      sums[4] ^= 1;  // the copy on slot 9 arrives corrupted
      EXPECT_THROW(sw.ingress(slots, workers, payloads, stamps, sums, &guard),
                   std::out_of_range);
      EXPECT_EQ(guard.corrupt_rejected, 5u);
      EXPECT_EQ(guard.stale_rejected, 6u);
    } else {
      EXPECT_THROW(sw.ingress(slots, workers, payloads), std::out_of_range);
    }
    for (int r = 0; r < regs; ++r) {
      for (std::size_t s = 0; s < kEqSlots; ++s) {
        EXPECT_EQ(sw.sim().reg(r).read(s),
                  before[static_cast<std::size_t>(r)][s])
            << (guarded ? "guarded" : "plain") << " reg " << r << " slot "
            << s;
      }
    }
    EXPECT_EQ(sw.occupied_slots(), occupied);
    EXPECT_EQ(sw.dedup_hits(), dedup);
    EXPECT_EQ(sw.op_counters().adds, adds);
    // The same packets without the bad one then land as they would have.
    sw.ingress(std::span(slots).first(4), std::span(workers).first(4),
               std::span(payloads).first(4));
    EXPECT_EQ(sw.dedup_hits(), dedup + 1);
    EXPECT_EQ(sw.occupied_slots(), occupied + 1);
    EXPECT_EQ(sw.sim().reg(2 * sw.options().lanes).read(2), 0b11u);
    EXPECT_EQ(sw.sim().reg(2 * sw.options().lanes + 1).read(7), 2u);
  }
}

TEST(FpisaSwitch, ReadBatchBitIdenticalToPerPacketPipeline) {
  // The compiled egress must emit exactly what interpreted read /
  // read_and_reset packets emit — values (FTZ and overflow-to-inf range
  // handling included), bitmap and count fields — and leave every
  // register, counter and packet count identical.
  for (const SwitchCase& c : switch_cases()) {
    const ScopedBackend pin(c.backend);
    const std::string tag = case_tag(c);
    FpisaSwitch per_packet(eq_config(c.variant), eq_options(c));
    FpisaSwitch batched(eq_config(c.variant), eq_options(c));
    const PacketStream in = adversarial_stream(0xEC3E55, 200, c.lanes, 16);
    per_packet.add_batch(in.slots, in.workers, in.values);
    batched.add_batch(in.slots, in.workers, in.values);

    const auto lanes = static_cast<std::size_t>(c.lanes);
    std::vector<std::uint32_t> vals(kEqSlots * lanes);
    std::vector<std::uint32_t> bitmaps(kEqSlots);
    std::vector<std::uint16_t> counts(kEqSlots);
    for (const bool reset : {false, true}) {
      if (reset) {
        batched.read_and_reset_batch(0, kEqSlots, vals, bitmaps, counts);
      } else {
        batched.read_batch(0, kEqSlots, vals, bitmaps, counts);
      }
      for (std::uint16_t s = 0; s < kEqSlots; ++s) {
        const FpisaResult want =
            reset ? per_packet.read_and_reset(s) : per_packet.read(s);
        ASSERT_EQ(bitmaps[s], want.bitmap) << tag << " slot " << s;
        ASSERT_EQ(counts[s], want.count) << tag << " slot " << s;
        for (std::size_t l = 0; l < lanes; ++l) {
          ASSERT_EQ(vals[s * lanes + l], want.values[l])
              << tag << " reset=" << reset << " slot=" << s << " lane=" << l;
        }
      }
      expect_same_switch(batched, per_packet,
                         tag + (reset ? " after reset" : " after read"));
    }
  }
}

TEST(FpisaSwitch, GuardedBatchBitIdenticalToInterpreterOnAcceptedPackets) {
  // add_batch_guarded = drop corrupt and stale packets, then add_batch.
  // The oracle runs only the packets the guard must accept through the
  // interpreter; both switches see the same slot resets, so their epochs
  // (and hence stamps) stay in lockstep.
  for (const SwitchCase& c : switch_cases()) {
    const ScopedBackend pin(c.backend);
    const std::string tag = case_tag(c);
    FpisaSwitch per_packet(eq_config(c.variant), eq_options(c));
    FpisaSwitch guarded(eq_config(c.variant), eq_options(c));
    util::Rng rng(0x6A4D);

    std::uint64_t want_corrupt = 0;
    std::uint64_t want_stale = 0;
    FpisaSwitch::GuardStats stats;
    for (int round = 0; round < 3; ++round) {
      const PacketStream in =
          adversarial_stream(0x6A4D + static_cast<std::uint64_t>(round), 120,
                             c.lanes, 8);
      const std::size_t n = in.slots.size();
      std::vector<std::uint32_t> stamps(n);
      std::vector<std::uint16_t> sums(n);
      std::vector<bool> accept(n, true);
      for (std::size_t p = 0; p < n; ++p) {
        stamps[p] = guarded.slot_stamp(in.slots[p]);
        sums[p] = fpisa_checksum(in.slots[p], in.workers[p], stamps[p],
                                 in.payload(p, c.lanes));
        switch (rng.next_u64() % 6) {
          case 0:  // bit flipped in flight
            sums[p] ^= static_cast<std::uint16_t>(1u << (rng.next_u64() % 16));
            accept[p] = false;
            ++want_corrupt;
            break;
          case 1:  // stale copy from the slot's previous epoch
            stamps[p] -= 1;
            sums[p] = fpisa_checksum(in.slots[p], in.workers[p], stamps[p],
                                     in.payload(p, c.lanes));
            accept[p] = false;
            ++want_stale;
            break;
          default:
            break;
        }
      }
      for (std::size_t p = 0; p < n; ++p) {
        if (accept[p]) {
          (void)per_packet.add(in.slots[p], in.workers[p],
                               in.payload(p, c.lanes));
        }
      }
      testkit::guarded_ingress(guarded, in.slots, in.workers, stamps, sums,
                               in.values, stats);
      // The oracle never saw the rejected packets; the guarded switch
      // accounts them as received. Everything else must match.
      ASSERT_EQ(stats.corrupt_rejected, want_corrupt) << tag;
      ASSERT_EQ(stats.stale_rejected, want_stale) << tag;
      per_packet.sim().account_packets(n - static_cast<std::size_t>(
                                              std::count(accept.begin(),
                                                         accept.end(), true)));
      expect_same_switch(guarded, per_packet,
                         tag + " round " + std::to_string(round));
      // Recycle half the slots so the next round's stamps move on.
      for (std::uint16_t s = 0; s < kEqSlots; s += 2) {
        (void)per_packet.read_and_reset(s);
        (void)guarded.read_and_reset(s);
      }
    }
  }
}

/// Directed edges broadcast one value to every lane: 9 lanes run one
/// 8-wide AVX2 block and one scalar tail lane.
constexpr int kEdgeLanes = 9;

/// Applies one packet carrying `value` in every lane to slot 0 as worker
/// `w` on both switches: interpreted on `interp`, compiled on `compiled`.
void add_both(FpisaSwitch& interp, FpisaSwitch& compiled, std::uint8_t w,
              std::uint32_t value) {
  const std::vector<std::uint32_t> values(kEdgeLanes, value);
  (void)interp.add(0, w, values);
  const std::uint16_t slot[] = {0};
  const std::uint8_t worker[] = {w};
  compiled.add_batch(slot, worker, values);
}

/// Reads slot 0 both ways, checks the compiled lanes against the
/// interpreter's and that all lanes agree, and returns lane 0.
std::uint32_t read_both(FpisaSwitch& interp, FpisaSwitch& compiled,
                        const std::string& what) {
  std::vector<std::uint32_t> got(kEdgeLanes);
  compiled.read_batch(0, 1, got);
  EXPECT_EQ(got, interp.read(0).values) << what;
  EXPECT_EQ(std::count(got.begin(), got.end(), got[0]), kEdgeLanes) << what;
  return got[0];
}

TEST(FpisaSwitch, CompiledDatapathDirectedEdges) {
  // The edges where the switch tables differ from the core accumulator
  // (LaneMode::kSwitch), each pinned to an explicit outcome and to the
  // interpreter, on every backend.
  const auto f = [](float v) { return core::fp32_bits(v); };
  for (const auto backend : core::available_batch_backends()) {
    const ScopedBackend pin(backend);
    for (const auto variant :
         {core::Variant::kApproximate, core::Variant::kFull}) {
      const SwitchCase c{variant, kEdgeLanes, backend};
      constexpr std::uint64_t kL = kEdgeLanes;
      const std::string tag = case_tag(c);
      const auto fresh = [&] {
        return std::make_unique<FpisaSwitch>(eq_config(variant),
                                             eq_options(c));
      };

      {  // |d| = 31 / 32 / 33 around the align table's ±32 clamp.
        for (const int d : {31, 32, 33}) {
          for (const int sign : {1, -1}) {
            auto a = fresh();
            auto b = fresh();
            add_both(*a, *b, 0, f(1.5f));
            add_both(*a, *b, 1, f(std::ldexp(1.25f, sign * d)));
            add_both(*a, *b, 2, f(-1.75f));
            expect_same_switch(*b, *a,
                               tag + " d=" + std::to_string(sign * d));
            read_both(*a, *b, tag + " d=" + std::to_string(sign * d));
          }
        }
      }
      {  // |d| >= 64 against a shifted mantissa of -1: the switch counts a
         // rounded add (the core's >= 64 rule would call it exact).
        auto a = fresh();
        auto b = fresh();
        if (variant == core::Variant::kFull) {
          add_both(*a, *b, 0, 0x80000001u);  // stored mantissa -1, exp 1
          add_both(*a, *b, 1, f(1.0f));      // d = 126: RSAW shifts it
        } else {
          add_both(*a, *b, 0, f(1.0f));      // stored exp 127
          add_both(*a, *b, 1, 0x80000001u);  // incoming -1 at d = -126
        }
        EXPECT_EQ(b->op_counters().rounded_adds, kL) << tag;
        expect_same_switch(*b, *a, tag + " |d|>=64");
      }
      {  // A zero into an empty slot runs the exponent stage.
        auto a = fresh();
        auto b = fresh();
        add_both(*a, *b, 0, 0x80000000u);
        EXPECT_EQ(b->op_counters().adds, kL) << tag;
        EXPECT_EQ(b->op_counters().zero_inputs, kL) << tag;
        EXPECT_EQ(b->sim().reg(0).read(0),
                  variant == core::Variant::kFull ? 1u : 0u)
            << tag;
        expect_same_switch(*b, *a, tag + " zero");
        EXPECT_EQ(read_both(*a, *b, tag + " zero"), 0u) << tag;
      }
      {  // Non-finite lanes run the datapath with exponent 255.
        auto a = fresh();
        auto b = fresh();
        add_both(*a, *b, 0, 0x7F800000u);
        add_both(*a, *b, 1, 0xFF800000u);
        add_both(*a, *b, 2, 0x7FC00001u);
        add_both(*a, *b, 3, f(2.0f));
        EXPECT_EQ(b->op_counters().adds, 4 * kL) << tag;
        EXPECT_EQ(b->op_counters().nonfinite_inputs, 3 * kL) << tag;
        expect_same_switch(*b, *a, tag + " non-finite");
        read_both(*a, *b, tag + " non-finite");
      }
      {  // Mantissa register wrap at +2^31 and -2^31. FPISA-A overflows its
         // left-shift headroom (lshift_overflows, not a saturation); both
         // variants wrap on accumulated same-exponent adds (saturations).
        for (const float v : {1.9999999f, -1.9999999f}) {
          auto a = fresh();
          auto b = fresh();
          for (int i = 0; i < 140; ++i) {
            // Clear the dedup bitmap so one slot takes 140 contributions.
            a->sim().reg(2 * kEdgeLanes).write(0, 0);
            b->sim().reg(2 * kEdgeLanes).write(0, 0);
            add_both(*a, *b, 0, f(v));
          }
          EXPECT_GE(b->op_counters().saturations, 1u) << tag << " v=" << v;
          expect_same_switch(*b, *a, tag + " wrap");
          read_both(*a, *b, tag + " wrap");
        }
        if (variant == core::Variant::kApproximate) {
          auto a = fresh();
          auto b = fresh();
          add_both(*a, *b, 0, f(1.9999999f));
          add_both(*a, *b, 1, f(1.9999999f * 128.0f));  // d = 7 = headroom
          EXPECT_EQ(b->op_counters().lshift_overflows, kL) << tag;
          EXPECT_EQ(b->op_counters().saturations, 0u) << tag;
          expect_same_switch(*b, *a, tag + " lshift wrap");
        }
      }
      {  // Egress FTZ: a would-be subnormal reads as signed zero.
        for (const float s : {1.0f, -1.0f}) {
          auto a = fresh();
          auto b = fresh();
          const float tiny = std::ldexp(1.0f, -120);
          add_both(*a, *b, 0, f(s * tiny));
          add_both(*a, *b, 1, f(-s * tiny * 0.999f));
          EXPECT_EQ(read_both(*a, *b, tag + " ftz"),
                    s < 0 ? 0x80000000u : 0u)
              << tag;
        }
      }
      {  // Egress overflow: exponent >= 255 clamps to ±inf.
        for (const float s : {1.0f, -1.0f}) {
          auto a = fresh();
          auto b = fresh();
          add_both(*a, *b, 0, f(s * 3e38f));
          add_both(*a, *b, 1, f(s * 3e38f));
          EXPECT_EQ(read_both(*a, *b, tag + " inf"),
                    s < 0 ? 0xFF800000u : 0x7F800000u)
              << tag;
        }
      }
    }
  }
}

TEST(FpisaSwitch, ShortPacketsAreRejectedBeforeAnyStateChange) {
  // A packet shorter than a parser or deparser field must fail typed in
  // every build, not read past its buffer.
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 4;
  opts.slots = 8;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::vector<std::uint32_t> vals = {
      core::fp32_bits(1.5f), core::fp32_bits(-2.0f), core::fp32_bits(3.0f),
      core::fp32_bits(0.25f)};
  (void)sw.add(1, 0, vals);

  Packet full;
  make_fpisa_packet_into(full, FpisaOp::kAdd, 1, 1, vals);
  ASSERT_EQ(full.bytes.size(), std::size_t{kFpisaHeaderBytes + 4 * 4});

  const std::size_t nregs = sw.sim().program().registers.size();
  const auto cells = [&] {
    std::vector<std::uint64_t> out;
    for (std::size_t r = 0; r < nregs; ++r) {
      const RegisterArray& reg = sw.sim().reg(static_cast<int>(r));
      for (std::size_t s = 0; s < reg.size(); ++s) out.push_back(reg.read(s));
    }
    return out;
  };
  const std::vector<std::uint64_t> before = cells();
  const std::uint64_t packets = sw.sim().packets_processed();

  for (std::size_t len = 0; len < full.bytes.size(); ++len) {
    Packet pkt;
    pkt.bytes.assign(full.bytes.begin(),
                     full.bytes.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(sw.sim().process(pkt), std::invalid_argument) << len;
  }
  EXPECT_EQ(cells(), before);
  EXPECT_EQ(sw.sim().packets_processed(), packets);

  // The full packet still goes through.
  sw.sim().process(full);
  EXPECT_EQ(sw.sim().packets_processed(), packets + 1);
}

TEST(FpisaSwitch, BatchShapesAreCheckedInEveryBuild) {
  // Typed errors instead of Debug-only asserts: a Release build must not
  // write past the register bank or silently drop a worker's dedup bit.
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 4;
  opts.slots = 8;
  FpisaSwitch sw(baseline_tofino(), opts);
  const std::vector<std::uint32_t> one(4, core::fp32_bits(1.0f));
  const std::vector<std::uint32_t> two(8, core::fp32_bits(1.0f));

  // Ingress: a valid first packet followed by a bad one. The check runs
  // before any state changes, so the valid packet is not applied either.
  const std::vector<std::uint16_t> bad_slot = {0, 8};
  const std::vector<std::uint8_t> ok_workers = {0, 1};
  EXPECT_THROW(sw.add_batch(bad_slot, ok_workers, two), std::out_of_range);
  const std::vector<std::uint16_t> ok_slots = {0, 1};
  for (const std::uint8_t w : {32, 63, 64, 255}) {
    const std::vector<std::uint8_t> bad_worker = {0, w};
    EXPECT_THROW(sw.add_batch(ok_slots, bad_worker, two), std::out_of_range)
        << "worker " << int{w};
  }
  EXPECT_THROW(sw.add_batch(ok_slots, std::vector<std::uint8_t>{0}, two),
               std::invalid_argument);
  EXPECT_THROW(sw.add_batch(ok_slots, ok_workers, one), std::invalid_argument);

  FpisaSwitch::GuardStats guard;
  const std::vector<std::uint32_t> stamps = {sw.slot_stamp(0),
                                             sw.slot_stamp(1)};
  const std::vector<std::uint16_t> sums = {0, 0};
  EXPECT_THROW(testkit::guarded_ingress(sw, bad_slot, ok_workers, stamps,
                                        sums, two, guard),
               std::out_of_range);
  EXPECT_THROW(testkit::guarded_ingress(sw, ok_slots, ok_workers,
                                        std::vector<std::uint32_t>{0}, sums,
                                        two, guard),
               std::invalid_argument);
  EXPECT_THROW(testkit::guarded_ingress(sw, ok_slots, ok_workers, stamps,
                                        std::vector<std::uint16_t>{0}, two,
                                        guard),
               std::invalid_argument);
  EXPECT_EQ(guard.corrupt_rejected + guard.stale_rejected, 0u);

  // Interpreted entry points share the slot/worker checks.
  EXPECT_THROW(sw.add(8, 0, one), std::out_of_range);
  EXPECT_THROW(sw.add(0, 32, one), std::out_of_range);
  EXPECT_THROW(sw.add(0, 0, two), std::invalid_argument);
  EXPECT_THROW(sw.read(8), std::out_of_range);
  EXPECT_THROW(sw.read_and_reset(8), std::out_of_range);

  // Nothing above touched the switch.
  for (int r = 0; r < 2 * 4 + 2; ++r) {
    for (std::size_t s = 0; s < 8; ++s) EXPECT_EQ(sw.sim().reg(r).read(s), 0u);
  }
  EXPECT_EQ(sw.sim().packets_processed(), 0u);
  EXPECT_EQ(sw.op_counters().adds, 0u);

  // Egress: range and output shapes.
  std::vector<std::uint32_t> vals(4 * 4);
  std::vector<std::uint32_t> bitmaps(4);
  std::vector<std::uint16_t> counts(4);
  EXPECT_THROW(sw.read_batch(5, 4, vals), std::out_of_range);
  EXPECT_THROW(sw.read_and_reset_batch(8, 1, std::span(vals).first(4)),
               std::out_of_range);
  EXPECT_THROW(sw.read_batch(0, SIZE_MAX, vals), std::out_of_range);
  EXPECT_THROW(sw.read_batch(0, 3, vals), std::invalid_argument);
  EXPECT_THROW(sw.read_batch(0, 4, vals, std::span(bitmaps).first(3)),
               std::invalid_argument);
  EXPECT_THROW(sw.read_and_reset_batch(0, 4, vals, bitmaps,
                                       std::span(counts).first(2)),
               std::invalid_argument);
  EXPECT_EQ(sw.sim().packets_processed(), 0u);

  // The valid shapes still work after all of that.
  sw.add_batch(ok_slots, ok_workers, two);
  sw.read_and_reset_batch(0, 4, vals, bitmaps, counts);
  EXPECT_EQ(core::fp32_value(vals[0]), 1.0f);
  EXPECT_EQ(bitmaps[1], 0b10u);
  EXPECT_EQ(counts[0], 1u);
}

TEST(FpisaResources, ShiftExtensionUnlocksParallelInstances) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  const SwitchConfig cfg = extended_switch();
  const int n = max_instances(fpisa_resource_descriptors(cfg, opts), cfg);
  EXPECT_GE(n, 4) << "the 2-operand shift should unlock multiple modules";
}

TEST(FpisaResources, StageOutsideThePipeThrowsNamingTheTable) {
  // A descriptor laid out past the pipe (or before it) is a typed error in
  // every build, through analyze() and max_instances() alike, whether it
  // is per-instance or shared.
  const SwitchConfig cfg = baseline_tofino();
  for (const bool per_instance : {true, false}) {
    for (const int stage : {cfg.num_stages, -1, 1000}) {
      std::vector<LogicalTableDesc> descs =
          fpisa_resource_descriptors(cfg, FpisaProgramOptions{});
      LogicalTableDesc stray;
      stray.name = "stray_table";
      stray.stage = stage;
      stray.per_instance = per_instance;
      descs.push_back(stray);
      for (const auto& run :
           {+[](const std::vector<LogicalTableDesc>& d,
                const SwitchConfig& c) { analyze(d, c); },
            +[](const std::vector<LogicalTableDesc>& d,
                const SwitchConfig& c) { max_instances(d, c); }}) {
        try {
          run(descs, cfg);
          ADD_FAILURE() << "stage " << stage << " accepted";
        } catch (const std::out_of_range& e) {
          EXPECT_NE(std::string(e.what()).find("stray_table"),
                    std::string::npos)
              << e.what();
        }
      }
    }
  }
}

TEST(FpisaResources, ReportRenders) {
  FpisaProgramOptions opts;
  const SwitchConfig cfg = baseline_tofino();
  const std::string s =
      analyze(fpisa_resource_descriptors(cfg, opts), cfg).render();
  EXPECT_NE(s.find("VLIW"), std::string::npos);
  EXPECT_NE(s.find("Stages used: 9 of 12"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Code vs state: switches of one shape share one immutable program; each
// owns only its registers and host-side books.
// ---------------------------------------------------------------------------

FpisaProgramOptions shared_options() {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 4;
  opts.slots = 8;
  return opts;
}

TEST(FpisaProgramSharing, ExtensionsAreCheckedInEveryBuild) {
  // Typed errors instead of Debug-only asserts: in Release a kFull switch
  // on a baseline config would otherwise run RSAW through tables and
  // kernels alike. The check runs before the memo lookup, so a held
  // program of the same shape (built for a config that has the extension)
  // does not let a baseline switch load it.
  FpisaProgramOptions full = shared_options();
  full.variant = core::Variant::kFull;
  const FpisaSwitch held(extended_switch(), full);
  EXPECT_THROW(FpisaSwitch(baseline_tofino(), full), std::invalid_argument);
  SwitchConfig rsaw_only;
  rsaw_only.ext.rsaw = true;
  EXPECT_NO_THROW(FpisaSwitch(rsaw_only, full));

  FpisaProgramOptions little = shared_options();
  little.convert_endianness = true;
  const FpisaSwitch held_le(extended_switch(), little);
  EXPECT_THROW(FpisaSwitch(baseline_tofino(), little), std::invalid_argument);
  EXPECT_THROW(FpisaSwitch(rsaw_only, little), std::invalid_argument);
  EXPECT_THROW(build_fpisa_program(baseline_tofino(), little),
               std::invalid_argument);
  SwitchConfig endian_only;
  endian_only.ext.parser_endianness = true;
  EXPECT_NO_THROW(FpisaSwitch(endian_only, little));
}

TEST(FpisaProgramSharing, IdenticalOptionsShareOneProgram) {
  const FpisaProgramOptions opts = shared_options();
  FpisaSwitch a(baseline_tofino(), opts);
  FpisaSwitch b(baseline_tofino(), opts);
  EXPECT_EQ(&a.sim().program(), &b.sim().program());
  EXPECT_EQ(build_fpisa_program(baseline_tofino(), opts).get(),
            &a.sim().program());
  // The config is not part of the program: a switch with more extensions
  // runs the same code. Neither is num_workers.
  FpisaProgramOptions workers = opts;
  workers.num_workers = 3;
  FpisaSwitch c(extended_switch(), workers);
  EXPECT_EQ(&c.sim().program(), &a.sim().program());
  // Each switch has its own cells.
  EXPECT_NE(a.sim().bank().exp.data(), b.sim().bank().exp.data());
  EXPECT_NE(&a.sim().reg(2 * opts.lanes), &b.sim().reg(2 * opts.lanes));
}

TEST(FpisaProgramSharing, EachDeterminingOptionGetsItsOwnProgram) {
  const FpisaProgramOptions base = shared_options();
  FpisaSwitch ref(extended_switch(), base);
  std::vector<FpisaProgramOptions> others(4, base);
  others[0].variant = core::Variant::kFull;
  others[1].lanes = base.lanes + 1;
  others[2].slots = base.slots + 1;
  others[3].convert_endianness = true;
  std::vector<std::unique_ptr<FpisaSwitch>> held;
  for (const FpisaProgramOptions& o : others) {
    held.push_back(std::make_unique<FpisaSwitch>(extended_switch(), o));
    EXPECT_NE(&held.back()->sim().program(), &ref.sim().program());
  }
  for (std::size_t i = 0; i < held.size(); ++i) {
    for (std::size_t j = i + 1; j < held.size(); ++j) {
      EXPECT_NE(&held[i]->sim().program(), &held[j]->sim().program())
          << i << " vs " << j;
    }
  }
  // The program matches its own shape.
  EXPECT_EQ(held[1]->sim().program().registers.size(),
            static_cast<std::size_t>(2 * others[1].lanes + 2));
  EXPECT_EQ(held[2]->sim().reg(0).size(), others[2].slots);
}

/// Every piece of one switch's state: all registers of every slot, slot
/// stamps (epochs and generation), packet, dedup and occupancy counts.
struct SwitchState {
  std::vector<std::uint64_t> regs;
  std::vector<std::uint32_t> stamps;
  std::uint64_t packets = 0;
  std::uint64_t dedup = 0;
  std::int64_t occupied = 0;
  std::uint64_t adds = 0;
  bool operator==(const SwitchState&) const = default;
};

SwitchState state_of(FpisaSwitch& sw) {
  SwitchState st;
  const auto regs = static_cast<int>(sw.sim().program().registers.size());
  for (int r = 0; r < regs; ++r) {
    for (std::size_t s = 0; s < sw.options().slots; ++s) {
      st.regs.push_back(sw.sim().reg(r).read(s));
    }
  }
  for (std::size_t s = 0; s < sw.options().slots; ++s) {
    st.stamps.push_back(sw.slot_stamp(static_cast<std::uint16_t>(s)));
  }
  st.packets = sw.sim().packets_processed();
  st.dedup = sw.dedup_hits();
  st.occupied = sw.occupied_slots();
  st.adds = sw.op_counters().adds;
  return st;
}

TEST(FpisaProgramSharing, SwitchesSharingAProgramKeepSeparateState) {
  const FpisaProgramOptions opts = shared_options();
  FpisaSwitch a(baseline_tofino(), opts);
  FpisaSwitch b(baseline_tofino(), opts);
  ASSERT_EQ(&a.sim().program(), &b.sim().program());
  const std::vector<std::uint32_t> one(4, core::fp32_bits(1.5f));
  b.add(3, 2, one);  // B holds some state of its own
  b.read_and_reset(5);
  const SwitchState before = state_of(b);

  // Interpreted and compiled adds, a duplicate, reads and resets on A.
  a.add(3, 2, one);
  a.add(3, 2, one);
  a.add(1, 0, one);
  a.add_batch(std::vector<std::uint16_t>{4, 4},
              std::vector<std::uint8_t>{0, 1},
              std::vector<std::uint32_t>(8, core::fp32_bits(2.0f)));
  EXPECT_EQ(core::fp32_value(a.read_and_reset(3).values[0]), 1.5f);
  std::vector<std::uint32_t> out(2 * 4);
  a.read_and_reset_batch(4, 2, out);
  EXPECT_EQ(core::fp32_value(out[0]), 4.0f);
  EXPECT_EQ(state_of(b), before);

  a.wipe_state();
  EXPECT_EQ(a.generation(), 1u);
  EXPECT_EQ(b.generation(), 0u);
  EXPECT_EQ(state_of(b), before);

  // And the other way round: B's traffic leaves A alone.
  const SwitchState a_before = state_of(a);
  b.add(0, 7, one);
  b.wipe_state();
  b.read_and_reset(0);
  EXPECT_EQ(state_of(a), a_before);
}

TEST(FpisaProgramSharing, ProgramIsFreedWithItsLastHolder) {
  FpisaProgramOptions opts = shared_options();
  opts.slots = 13;  // a shape no other test holds
  std::weak_ptr<const SwitchProgram> program;
  std::weak_ptr<const PipelineStages> stages;
  {
    auto a = std::make_unique<FpisaSwitch>(baseline_tofino(), opts);
    program = build_fpisa_program(baseline_tofino(), opts);
    EXPECT_EQ(program.lock().get(), &a->sim().program());
    const std::vector<std::uint32_t> one(4, core::fp32_bits(1.0f));
    (void)a->add(0, 0, one);  // A holds the interpreter's stages too
    {
      FpisaSwitch b(baseline_tofino(), opts);  // a second holder comes and goes
      (void)b.read(0);
      EXPECT_EQ(b.sim().stages(), a->sim().stages());
    }
    // The stages are not held through the program: only switches that
    // interpreted a packet hold them.
    stages = program.lock()->build_stages();
    EXPECT_EQ(stages.lock().get(), a->sim().stages());
    EXPECT_FALSE(program.expired());
    EXPECT_FALSE(stages.expired());
    a.reset();
  }
  EXPECT_TRUE(program.expired());
  EXPECT_TRUE(stages.expired());
  // The next switch of that shape builds both again and runs them.
  FpisaSwitch c(baseline_tofino(), opts);
  const std::vector<std::uint32_t> one(4, core::fp32_bits(1.0f));
  EXPECT_EQ(core::fp32_value(c.add(12, 0, one).values[3]), 1.0f);
}

TEST(FpisaProgramSharing, PipeDepthIsCheckedAtConstruction) {
  // The stages are built on demand, so MAU0-8's depth is checked against
  // the pipe when the switch is built, not at its first packet.
  SwitchConfig shallow;
  shallow.num_stages = 8;
  EXPECT_THROW(FpisaSwitch(shallow, shared_options()), std::invalid_argument);
  EXPECT_THROW(build_fpisa_program(shallow, shared_options()),
               std::invalid_argument);
  shallow.num_stages = 9;
  FpisaSwitch fits(shallow, shared_options());
  const std::vector<std::uint32_t> one(4, core::fp32_bits(1.0f));
  EXPECT_EQ(core::fp32_value(fits.add(0, 0, one).values[0]), 1.0f);
}

TEST(FpisaProgramSharing, CompiledOnlySwitchNeverBuildsStages) {
  // A shape no other test holds, driven through every compiled path: the
  // construction and the traffic together stay far below one stage build
  // (~16K allocations at this width, pinned below).
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 32;
  opts.slots = 59;
  const std::vector<std::uint32_t> values(2 * 32, core::fp32_bits(1.5f));
  std::vector<std::uint32_t> out(2 * 32);
  g_allocs = {};
  g_allocs.armed = true;
  {
    FpisaSwitch sw(baseline_tofino(), opts);
    sw.add_batch(std::vector<std::uint16_t>{3, 3},
                 std::vector<std::uint8_t>{0, 1}, values);
    sw.read_batch(2, 2, out);
    sw.read_and_reset_batch(3, 1, std::span(out).first(32));
    sw.wipe_state();
    g_allocs.armed = false;
    EXPECT_EQ(core::fp32_value(out[0]), 3.0f);
    EXPECT_EQ(sw.sim().stages(), nullptr);
    EXPECT_EQ(sw.sim().program().ingress.size(), 0u);
  }
  RecordProperty("compiled_only_allocs", static_cast<int>(g_allocs.calls));
  EXPECT_LT(g_allocs.calls, 2000u);
}

TEST(FpisaProgramSharing, FirstInterpretedPacketBuildsStagesOncePerShape) {
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 32;
  opts.slots = 57;  // a shape no other test holds
  FpisaSwitch a(baseline_tofino(), opts);
  FpisaSwitch b(baseline_tofino(), opts);
  const std::vector<std::uint32_t> one(32, core::fp32_bits(1.0f));
  EXPECT_EQ(a.sim().stages(), nullptr);

  g_allocs = {};
  g_allocs.armed = true;
  (void)a.add(0, 0, one);
  g_allocs.armed = false;
  const AllocCount first = g_allocs;
  ASSERT_NE(a.sim().stages(), nullptr);
  EXPECT_EQ(a.sim().stages()->ingress.size(), 5u);
  EXPECT_EQ(a.sim().stages()->egress.size(), 4u);
  EXPECT_EQ(b.sim().stages(), nullptr);  // b has interpreted nothing yet

  // b's first interpreted packet fetches the same stages instead of
  // building them again; so does a switch of the shape built later.
  g_allocs = {};
  g_allocs.armed = true;
  (void)b.read(0);
  g_allocs.armed = false;
  const AllocCount shared = g_allocs;
  EXPECT_EQ(b.sim().stages(), a.sim().stages());
  FpisaSwitch c(extended_switch(), opts);
  (void)c.read_and_reset(1);
  EXPECT_EQ(c.sim().stages(), a.sim().stages());
  RecordProperty("stage_build_allocs", static_cast<int>(first.calls));
  RecordProperty("stage_fetch_allocs", static_cast<int>(shared.calls));
  // The build is the interpreter's tables (~16K allocations at 32 lanes);
  // a fetch is one packet's PHV and reply.
  EXPECT_GT(first.calls, 10000u);
  EXPECT_LE(shared.calls, 50u);
}

TEST(FpisaProgramSharing, FurtherSwitchOfAHeldShapeAllocatesOnlyItsState) {
  // A first switch on a shape no other test holds builds the layout only.
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kApproximate;
  opts.lanes = 32;
  opts.slots = 61;
  g_allocs = {};
  g_allocs.armed = true;
  auto holder = std::make_unique<FpisaSwitch>(baseline_tofino(), opts);
  g_allocs.armed = false;
  const AllocCount first = g_allocs;

  // Then a further switch at the fabric shape, 32 lanes x 64 slots. The
  // warm-up registers its telemetry series, so the counted build only
  // looks them up.
  opts.slots = 64;
  FpisaSwitch held(baseline_tofino(), opts);
  { FpisaSwitch warm(baseline_tofino(), opts); }
  g_allocs = {};
  g_allocs.armed = true;
  {
    FpisaSwitch further(baseline_tofino(), opts);
    g_allocs.armed = false;
    EXPECT_EQ(&further.sim().program(), &held.sim().program());
  }
  const AllocCount shared = g_allocs;
  RecordProperty("first_build_allocs", static_cast<int>(first.calls));
  RecordProperty("first_build_bytes", static_cast<int>(first.bytes));
  RecordProperty("shared_build_allocs", static_cast<int>(shared.calls));
  RecordProperty("shared_build_bytes", static_cast<int>(shared.bytes));
  // The first build is the layout (PHV, bindings, register declarations)
  // plus the switch's state; a further switch is its bank, 66 register
  // arrays and host books.
  EXPECT_LT(first.calls, 2000u);
  EXPECT_LE(shared.calls, 200u);
  EXPECT_LE(shared.bytes, 64u * 1024u);
}

/// Runs interpreted adds and read-and-resets from one seeded stream and
/// returns every reply (lane values, bitmap and count per packet).
std::vector<std::uint32_t> interpreted_replies(FpisaSwitch& sw,
                                               std::uint64_t seed) {
  const int lanes = sw.options().lanes;
  const PacketStream s = adversarial_stream(seed, 400, lanes, 4);
  std::vector<std::uint32_t> replies;
  const auto keep = [&](const FpisaResult& r) {
    replies.insert(replies.end(), r.values.begin(), r.values.end());
    replies.push_back(r.bitmap);
    replies.push_back(r.count);
  };
  for (std::size_t p = 0; p < s.slots.size(); ++p) {
    keep(sw.add(s.slots[p], s.workers[p], s.payload(p, lanes)));
    if (p % 7 == 6) keep(sw.read_and_reset(s.slots[p]));
  }
  return replies;
}

TEST(FpisaProgramSharing, ConcurrentSwitchesOnOneProgramMatchSerialRuns) {
  // Two switches on one shared program, driven from two threads at once:
  // the program is read-only, so each thread's replies equal a serial run
  // of its stream on a switch of its own (TSan sees any shared write).
  FpisaProgramOptions opts;
  opts.variant = core::Variant::kFull;
  opts.lanes = 5;
  opts.slots = kEqSlots;
  std::vector<std::uint32_t> want[2];
  for (int t = 0; t < 2; ++t) {
    FpisaSwitch serial(extended_switch(), opts);
    want[t] = interpreted_replies(serial, 300 + static_cast<std::uint64_t>(t));
  }
  FpisaSwitch a(extended_switch(), opts);
  FpisaSwitch b(extended_switch(), opts);
  ASSERT_EQ(&a.sim().program(), &b.sim().program());
  std::vector<std::uint32_t> got[2];
  std::thread ta([&] { got[0] = interpreted_replies(a, 300); });
  std::thread tb([&] { got[1] = interpreted_replies(b, 301); });
  ta.join();
  tb.join();
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
}

}  // namespace
}  // namespace fpisa::pisa
