// Differential proof obligations for the batched branchless datapath:
// fpisa_add_batch (every available backend) must be BIT-identical to the
// scalar reference — register state AND OpCounters totals — across:
//   * the exhaustive FP16 value space lifted to FP32 (covers ±0, all
//     subnormals, all normals, ±inf, NaN payloads in 65536 patterns),
//   * adversarial FP32 streams (headroom boundaries, cancellation, huge
//     exponent gaps, denormals),
//   * randomized FP32 streams,
// for both variants (kFull / kApproximate) and both overflow policies
// (kSaturate / kWrap), plus guard-bit configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_accumulator.h"
#include "core/batch_lane.h"
#include "core/packed.h"
#include "core/vector_accumulator.h"
#include "util/rng.h"

namespace fpisa::core {
namespace {

struct ScalarResult {
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;
  OpCounters counters;
};

/// Oracle: the per-element reference loop (extract + skip-nonfinite +
/// fpisa_add), exactly as the pre-batching FpisaVector ran it.
ScalarResult run_scalar_reference(std::span<const std::uint32_t> stream,
                                  std::size_t regs,
                                  const AccumulatorConfig& cfg) {
  ScalarResult r;
  r.exp.assign(regs, 0);
  r.man.assign(regs, 0);
  for (std::size_t base = 0; base < stream.size(); base += regs) {
    for (std::size_t i = 0; i < regs && base + i < stream.size(); ++i) {
      const ExtractResult ex = extract(stream[base + i], cfg.format);
      if (ex.cls == FpClass::kInf || ex.cls == FpClass::kNaN) {
        ++r.counters.nonfinite_inputs;
        continue;
      }
      FpState s{r.exp[i], r.man[i]};
      fpisa_add(s, ex.value, cfg, r.counters);
      r.exp[i] = s.exp;
      r.man[i] = s.man;
    }
  }
  return r;
}

void expect_counters_eq(const OpCounters& got, const OpCounters& want,
                        const std::string& what) {
  EXPECT_EQ(got.adds, want.adds) << what;
  EXPECT_EQ(got.rounded_adds, want.rounded_adds) << what;
  EXPECT_EQ(got.overwrites, want.overwrites) << what;
  EXPECT_EQ(got.lshift_overflows, want.lshift_overflows) << what;
  EXPECT_EQ(got.saturations, want.saturations) << what;
  EXPECT_EQ(got.nonfinite_inputs, want.nonfinite_inputs) << what;
  EXPECT_EQ(got.zero_inputs, want.zero_inputs) << what;
}

std::string backend_tag(BatchBackend b) {
  return b == BatchBackend::kAvx2 ? "avx2" : "scalar";
}

/// Feeds `stream` wave-by-wave into `regs` registers through both paths on
/// every available backend and demands bit-identical state + counters.
void check_stream(std::span<const std::uint32_t> stream, std::size_t regs,
                  const AccumulatorConfig& cfg, const std::string& what) {
  const ScalarResult want = run_scalar_reference(stream, regs, cfg);
  for (const BatchBackend backend : available_batch_backends()) {
    force_batch_backend(backend);
    std::vector<std::int32_t> exp(regs, 0);
    std::vector<std::int64_t> man(regs, 0);
    OpCounters counters;
    for (std::size_t base = 0; base < stream.size(); base += regs) {
      const std::size_t n = std::min(regs, stream.size() - base);
      fpisa_add_batch(stream.subspan(base, n), {exp.data(), n},
                      {man.data(), n}, cfg, counters);
    }
    reset_batch_backend();
    const std::string tag = what + " [" + backend_tag(backend) + "]";
    for (std::size_t i = 0; i < regs; ++i) {
      ASSERT_EQ(exp[i], want.exp[i]) << tag << " exp reg " << i;
      ASSERT_EQ(man[i], want.man[i]) << tag << " man reg " << i;
    }
    expect_counters_eq(counters, want.counters, tag);
  }
}

std::vector<AccumulatorConfig> sweep_configs() {
  std::vector<AccumulatorConfig> cfgs;
  for (const Variant v : {Variant::kFull, Variant::kApproximate}) {
    for (const OverflowPolicy p :
         {OverflowPolicy::kSaturate, OverflowPolicy::kWrap}) {
      AccumulatorConfig c;
      c.variant = v;
      c.overflow = p;
      cfgs.push_back(c);
      c.guard_bits = 4;  // Appendix A.1 guard-bit configuration
      cfgs.push_back(c);
      // Non-default register widths: reg_bits != 32 takes the generic
      // 64-bit-lane kernel on AVX2 (reg_bits 32 has its own 8-lane
      // specialization), and reg_bits 26 stresses tight headroom.
      for (const int reg_bits : {26, 40, 63}) {
        AccumulatorConfig w;
        w.variant = v;
        w.overflow = p;
        w.reg_bits = reg_bits;
        cfgs.push_back(w);
        if (reg_bits >= 30) {
          w.guard_bits = 4;
          cfgs.push_back(w);
        }
      }
    }
  }
  return cfgs;
}

TEST(BatchEquivalence, ExhaustiveFp16LiftedToFp32) {
  // Every FP16 bit pattern decoded to its exact FP32 value: a complete
  // sweep of sign/zero/subnormal/normal/inf/NaN structure in 64Ki inputs.
  std::vector<std::uint32_t> stream;
  stream.reserve(1u << 16);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    stream.push_back(
        fp32_bits(static_cast<float>(decode(h, kFp16))));
  }
  for (const auto& cfg : sweep_configs()) {
    check_stream(stream, 128, cfg,
                 std::string("fp16-exhaustive variant=") +
                     (cfg.variant == Variant::kFull ? "full" : "approx") +
                     " wrap=" +
                     (cfg.overflow == OverflowPolicy::kWrap ? "1" : "0") +
                     " g=" + std::to_string(cfg.guard_bits));
  }
}

TEST(BatchEquivalence, HeadroomBoundaryAndAdversarialCases) {
  // FPISA-A decision boundaries: exponent deltas of exactly headroom,
  // headroom±1, huge gaps both directions, cancellation to zero, denormal
  // feeds, and saturation pressure from same-sign maxed mantissas.
  std::vector<std::uint32_t> stream;
  const float base = 1.0f;  // exponent 127
  auto push = [&](float f) { stream.push_back(fp32_bits(f)); };
  push(base);
  for (int d = 5; d <= 9; ++d) push(std::ldexp(base, d));   // h-2 .. h+2
  for (int d = 5; d <= 9; ++d) push(std::ldexp(base, -d));  // align shifts
  push(-std::ldexp(base, 9));     // negative large: overwrite with sign
  push(0.0f);
  push(-0.0f);
  push(std::numeric_limits<float>::infinity());
  push(-std::numeric_limits<float>::infinity());
  push(std::numeric_limits<float>::quiet_NaN());
  push(std::numeric_limits<float>::denorm_min());
  push(-std::numeric_limits<float>::denorm_min());
  push(std::numeric_limits<float>::max());
  push(std::numeric_limits<float>::max());  // saturate/wrap the register
  push(-std::numeric_limits<float>::max());
  push(std::numeric_limits<float>::min());  // smallest normal
  // Cancellation: +x then -x leaves man == 0 with a pinned exponent.
  push(3.25f);
  push(-3.25f);
  push(std::ldexp(1.0f, -120));  // tiny after cancellation
  for (const auto& cfg : sweep_configs()) {
    // One register: the whole stream hammers the same accumulator state.
    check_stream(stream, 1, cfg, "adversarial single-register");
    check_stream(stream, 5, cfg, "adversarial strided");
  }
}

TEST(BatchEquivalence, RandomizedFp32Streams) {
  util::Rng rng(0xBA7C4);
  for (const auto& cfg : sweep_configs()) {
    for (int round = 0; round < 4; ++round) {
      std::vector<std::uint32_t> stream(8192);
      for (auto& u : stream) {
        switch (rng.next_u64() % 4) {
          case 0:  // well-scaled gradients
            u = fp32_bits(static_cast<float>(rng.normal(0.0, 0.1)));
            break;
          case 1:  // wide exponent spread
            u = fp32_bits(static_cast<float>(
                std::ldexp(rng.uniform(-1.0, 1.0),
                           static_cast<int>(rng.next_u64() % 64) - 32)));
            break;
          case 2:  // raw bit noise (hits inf/NaN/subnormal encodings)
            u = static_cast<std::uint32_t>(rng.next_u64());
            break;
          default:  // exact zeros and sign noise
            u = (rng.next_u64() & 1) ? 0x80000000u : 0u;
            break;
        }
      }
      check_stream(stream, 64, cfg, "random round " + std::to_string(round));
    }
  }
}

// ---------------------------------------------------------------------------
// Egress kernel proof obligations: fpisa_read_batch / fpisa_read_reset_batch
// (every available backend) must be BIT-identical to per-slot fpisa_read —
// output bits, post-read register state, and OpCounters totals (reads are
// stateless: the counters accumulated while building the state must come
// through untouched) — across states reached by the add datapath and raw
// synthesized register states, for both variants and overflow policies.
// ---------------------------------------------------------------------------

/// Renormalizes (exp, man) through both read paths on every backend and
/// demands bit-identical outputs; the reset variant must additionally clear
/// the registers while the plain variant must leave them untouched.
void check_read_state(std::span<const std::int32_t> exp,
                      std::span<const std::int64_t> man,
                      const AccumulatorConfig& cfg, const std::string& what) {
  const std::size_t regs = exp.size();
  std::vector<std::uint32_t> want(regs);
  for (std::size_t i = 0; i < regs; ++i) {
    want[i] =
        static_cast<std::uint32_t>(fpisa_read({exp[i], man[i]}, cfg).bits);
  }
  for (const BatchBackend backend : available_batch_backends()) {
    force_batch_backend(backend);
    const std::string tag = what + " [" + backend_tag(backend) + "]";

    std::vector<std::uint32_t> got(regs, 0xDEADBEEFu);
    fpisa_read_batch(exp, man, got, cfg);
    for (std::size_t i = 0; i < regs; ++i) {
      ASSERT_EQ(got[i], want[i])
          << tag << " reg " << i << " exp=" << exp[i] << " man=" << man[i];
    }

    std::vector<std::int32_t> exp2(exp.begin(), exp.end());
    std::vector<std::int64_t> man2(man.begin(), man.end());
    std::vector<std::uint32_t> got2(regs, 0xDEADBEEFu);
    fpisa_read_reset_batch(exp2, man2, got2, cfg);
    for (std::size_t i = 0; i < regs; ++i) {
      ASSERT_EQ(got2[i], want[i]) << tag << " reset-read reg " << i;
      ASSERT_EQ(exp2[i], 0) << tag << " reset exp reg " << i;
      ASSERT_EQ(man2[i], 0) << tag << " reset man reg " << i;
    }
    reset_batch_backend();
  }
}

TEST(ReadBatchEquivalence, ExhaustiveFp16SingleValueStates) {
  // Every FP16 bit pattern lifted to FP32 and added into its own register:
  // a complete sweep of the single-add state space (±0, all subnormals,
  // all normals — inf/NaN are skipped by the add path and leave (0, 0)),
  // then read back through both paths.
  std::vector<std::uint32_t> stream;
  stream.reserve(1u << 16);
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    stream.push_back(fp32_bits(static_cast<float>(decode(h, kFp16))));
  }
  for (const auto& cfg : sweep_configs()) {
    std::vector<std::int32_t> exp(stream.size(), 0);
    std::vector<std::int64_t> man(stream.size(), 0);
    OpCounters counters;
    fpisa_add_batch(stream, exp, man, cfg, counters);
    const OpCounters before = counters;
    check_read_state(exp, man, cfg, "fp16-exhaustive read");
    // Reads are stateless: the counter totals must be exactly what the add
    // phase left behind.
    expect_counters_eq(counters, before, "fp16-exhaustive read counters");
  }
}

TEST(ReadBatchEquivalence, AccumulatedStreamStates) {
  // States produced by whole randomized streams hammering shared registers
  // (cancellation to zero, saturated/wrapped registers, guard-bit configs),
  // via every add backend so both datapaths are crossed.
  util::Rng rng(0x5EED5);
  for (const auto& cfg : sweep_configs()) {
    for (int round = 0; round < 3; ++round) {
      std::vector<std::uint32_t> stream(4096);
      for (auto& u : stream) {
        switch (rng.next_u64() % 4) {
          case 0:
            u = fp32_bits(static_cast<float>(rng.normal(0.0, 0.1)));
            break;
          case 1:
            u = fp32_bits(static_cast<float>(
                std::ldexp(rng.uniform(-1.0, 1.0),
                           static_cast<int>(rng.next_u64() % 120) - 60)));
            break;
          case 2:
            u = static_cast<std::uint32_t>(rng.next_u64());
            break;
          default:
            u = (rng.next_u64() & 1) ? 0x80000000u : 0u;
            break;
        }
      }
      std::vector<std::int32_t> exp(64, 0);
      std::vector<std::int64_t> man(64, 0);
      OpCounters counters;
      for (std::size_t base = 0; base < stream.size(); base += 64) {
        fpisa_add_batch(std::span<const std::uint32_t>(stream).subspan(base, 64),
                        exp, man, cfg, counters);
      }
      check_read_state(exp, man, cfg,
                       "stream-state round " + std::to_string(round));
    }
  }
}

TEST(ReadBatchEquivalence, SynthesizedRawRegisterStates) {
  // Raw (exp, man) pairs the add path may never produce — extreme
  // exponents, full-width mantissas, INT64_MIN — must still renormalize
  // bit-identically to the reference (the kernel's shift-clamp rules are
  // exercised here: negative and >= 64 total shifts, subnormal outputs
  // with the leading one far below bit 23).
  util::Rng rng(0xC1Cu);
  AccumulatorConfig cfg;  // default FP32 / 32-bit register config
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;
  // Directed corners.
  const std::int32_t exps[] = {0, 1, 18, 23, 127, 254, 255, 300,
                               -1, -300, 100000, -100000};
  const std::int64_t mans[] = {0,  1,  -1, 32, -32, (1 << 23), -(1 << 23),
                               0x7FFFFFFF, -0x7FFFFFFFLL,
                               std::numeric_limits<std::int64_t>::min(),
                               std::numeric_limits<std::int64_t>::max()};
  for (const auto e : exps) {
    for (const auto m : mans) {
      exp.push_back(e);
      man.push_back(m);
    }
  }
  // Randomized fill.
  while (exp.size() % 4 != 0 || exp.size() < 1024) {
    exp.push_back(static_cast<std::int32_t>(rng.uniform_int(-1000, 1000)));
    man.push_back(static_cast<std::int64_t>(rng.next_u64()) >>
                  (rng.next_u64() % 40));
  }
  check_read_state(exp, man, cfg, "synthesized raw states");
  AccumulatorConfig guarded = cfg;
  guarded.guard_bits = 4;
  check_read_state(exp, man, guarded, "synthesized raw states g=4");
}

TEST(ReadBatchEquivalence, Reg32LaneSpecializationCornersAndFallback) {
  // The 8-lane 32-bit AVX2 read kernel activates for registers of <= 32
  // bits; its invariant gate must route mantissas outside int32 (and
  // exponents near the int32 rim) through the scalar primitive PER 8-BLOCK,
  // so mixed blocks — some lanes in range, some out — are the adversarial
  // shape. Every row must stay bit-identical to per-slot fpisa_read.
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;
  const std::int64_t in_range[] = {0, 1, -1, (1 << 23), -(1 << 23),
                                   0x7FFFFFFFLL, -0x80000000LL};
  const std::int64_t out_of_range[] = {
      0x80000000LL, -0x80000001LL, (std::int64_t{1} << 40),
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max()};
  // Exponents cover the kernel's 2^24 fallback gate both ways; they stop at
  // +-2^30 because the reference assemble's `1 - norm_exp` int cast wraps
  // at the int32 rim, making larger magnitudes ill-defined as an oracle.
  const std::int32_t exps[] = {0, 1, 127, 254, (1 << 24) - 1, (1 << 24),
                               (1 << 24) + 1, -(1 << 24), -(1 << 24) - 1,
                               (1 << 30), -(1 << 30)};
  // Pure in-range blocks, pure out-of-range blocks, and interleavings.
  for (const auto e : exps) {
    for (const auto m : in_range) {
      exp.push_back(e);
      man.push_back(m);
    }
    for (const auto m : out_of_range) {
      exp.push_back(e);
      man.push_back(m);
    }
  }
  // Mixed 8-blocks: alternate one in-range / one out-of-range lane.
  util::Rng rng(0x32B17);
  for (int k = 0; k < 256; ++k) {
    const bool out_lane = (k & 1) != 0;
    exp.push_back(static_cast<std::int32_t>(rng.uniform_int(-300, 300)));
    man.push_back(out_lane
                      ? (std::int64_t{1} << 33) +
                            static_cast<std::int64_t>(rng.next_u64() & 0xFFFF)
                      : static_cast<std::int64_t>(
                            static_cast<std::int32_t>(rng.next_u64())));
  }
  for (const int reg_bits : {0, 26}) {  // 0: default 32-bit register
    AccumulatorConfig cfg;
    cfg.reg_bits = reg_bits;
    check_read_state(exp, man, cfg,
                     "reg32 corners reg_bits=" + std::to_string(reg_bits));
    AccumulatorConfig guarded = cfg;
    guarded.guard_bits = 4;
    check_read_state(exp, man, guarded,
                     "reg32 corners g=4 reg_bits=" + std::to_string(reg_bits));
  }
}

TEST(ReadBatchEquivalence, Reg32BackendsAgreeAtInt32ExponentRim) {
  // Exponents at the int32 rim make the reference assemble ill-defined (its
  // `1 - norm_exp` int cast wraps), so the property that CAN be pinned down
  // is backend consistency: every backend must emit the same bits for the
  // same state regardless of whether it lands in a vectorized 8-block or a
  // scalar tail — i.e. the AVX2 fallback gate must route the rim to the
  // scalar primitive (abs_epi32's INT32_MIN fixed point once let it slip
  // through and wrap norm_exp).
  const std::int32_t rim[] = {std::numeric_limits<std::int32_t>::min(),
                              std::numeric_limits<std::int32_t>::min() + 1,
                              std::numeric_limits<std::int32_t>::max()};
  std::vector<std::int32_t> exp;
  std::vector<std::int64_t> man;
  for (const auto e : rim) {
    for (const std::int64_t m : {1LL, -1LL, 0x7FFFFFLL, -0x800000LL}) {
      exp.push_back(e);
      man.push_back(m);
    }
  }
  while (exp.size() % 8 != 0) {  // full blocks: every lane vector-eligible
    exp.push_back(127);
    man.push_back(1 << 23);
  }
  const AccumulatorConfig cfg;  // default 32-bit register
  std::vector<std::vector<std::uint32_t>> per_backend;
  for (const BatchBackend backend : available_batch_backends()) {
    force_batch_backend(backend);
    std::vector<std::uint32_t> got(exp.size(), 0xDEADBEEFu);
    fpisa_read_batch(exp, man, got, cfg);
    reset_batch_backend();
    per_backend.push_back(std::move(got));
  }
  for (std::size_t b = 1; b < per_backend.size(); ++b) {
    for (std::size_t i = 0; i < exp.size(); ++i) {
      ASSERT_EQ(per_backend[b][i], per_backend[0][i])
          << "backend " << b << " reg " << i << " exp=" << exp[i]
          << " man=" << man[i];
    }
  }
}

TEST(ReadBatchEquivalence, IneligibleConfigsFallBackToReference) {
  // Non-truncating read rounding and non-FP32 layouts are not eligible;
  // the entry points must still produce the per-slot reference results.
  AccumulatorConfig nearest;
  nearest.read_rounding = Rounding::kNearestEven;
  nearest.guard_bits = 4;
  EXPECT_TRUE(batch_eligible(nearest));
  EXPECT_FALSE(read_batch_eligible(nearest));

  std::vector<std::int32_t> exp = {120, 127, 140, 0};
  std::vector<std::int64_t> man = {(1 << 24) + 3, -((1 << 24) + 5), 7, 0};
  check_read_state(exp, man, nearest, "nearest-even fallback");

  AccumulatorConfig bf16;
  bf16.format = kBf16;
  EXPECT_FALSE(read_batch_eligible(bf16));
}

TEST(BatchEquivalence, ReadFastPathMatchesGeneralAssemble) {
  // FpisaVector::read's truncating fast path must agree bit-for-bit with
  // the general fpisa_read on every register state a stream can produce —
  // including cancellation-to-zero, saturated registers, and states whose
  // renormalized output is subnormal (FTZ boundary) or overflows.
  util::Rng rng(0xF00D);
  for (const auto& cfg : sweep_configs()) {
    FpisaVector vec(256, cfg);
    std::vector<float> stream(256);
    for (int round = 0; round < 6; ++round) {
      for (auto& v : stream) {
        v = static_cast<float>(
            std::ldexp(rng.uniform(-1.0, 1.0),
                       static_cast<int>(rng.next_u64() % 120) - 60));
      }
      vec.add(stream);
    }
    std::vector<float> got(256);
    vec.read(got);
    for (std::size_t i = 0; i < 256; ++i) {
      const auto want = fpisa_read(vec.state(i), cfg);
      ASSERT_EQ(fp32_bits(got[i]),
                static_cast<std::uint32_t>(want.bits))
          << "element " << i;
    }
  }
}

TEST(BatchEquivalence, NonFp32FormatsFallBackToReference) {
  // bf16 layout is not batch-eligible; add_bits must still agree with the
  // element-wise reference (it IS the reference on this path).
  AccumulatorConfig cfg;
  cfg.format = kBf16;
  EXPECT_FALSE(batch_eligible(cfg));
  FpisaVector vec(32, cfg);
  util::Rng rng(99);
  std::vector<std::uint64_t> bits(32);
  for (auto& b : bits) {
    b = encode(rng.normal(0.0, 1.0), kBf16);
  }
  vec.add_bits(bits);
  FpisaAccumulator ref(cfg);
  ref.add_bits(bits[7]);
  EXPECT_EQ(vec.state(7).exp, ref.state().exp);
  EXPECT_EQ(vec.state(7).man, ref.state().man);
}

TEST(BatchEquivalence, SwitchModeBackendsAgreeAndDifferOnlyAtTheEdges) {
  // LaneMode::kSwitch is the FPISA switch program's datapath; its oracle is
  // the switch interpreter (tests/test_pisa_fpisa_program.cpp). Here: every
  // backend is bit-identical to the scalar one in that mode — state and
  // counters, over the exhaustive FP16 structure at a width with vector
  // bodies and tails — every lane counts as an add, and the mode's read
  // differs from the accumulator's only by flushing subnormals to signed
  // zero.
  std::vector<std::uint32_t> stream;
  for (std::uint32_t h = 0; h < (1u << 16); ++h) {
    stream.push_back(fp32_bits(static_cast<float>(decode(h, kFp16))));
  }
  constexpr std::size_t kRegs = 37;
  for (const Variant v : {Variant::kFull, Variant::kApproximate}) {
    for (const OverflowPolicy pol :
         {OverflowPolicy::kWrap, OverflowPolicy::kSaturate}) {
      for (const int reg_bits : {32, 40}) {
        AccumulatorConfig cfg;
        cfg.variant = v;
        cfg.overflow = pol;
        cfg.reg_bits = reg_bits;
        const std::string what =
            std::string(v == Variant::kFull ? "full" : "approx") +
            (pol == OverflowPolicy::kWrap ? " wrap" : " sat") +
            " reg=" + std::to_string(reg_bits);

        RegisterFile want;
        OpCounters want_ops;
        std::vector<std::uint32_t> want_read;
        for (const BatchBackend backend : available_batch_backends()) {
          force_batch_backend(backend);
          RegisterFile rf(kRegs);
          OpCounters ops;
          for (std::size_t base = 0; base < stream.size(); base += kRegs) {
            const std::size_t n = std::min(kRegs, stream.size() - base);
            fpisa_add_batch(std::span(stream).subspan(base, n),
                            std::span(rf.exp).first(n),
                            std::span(rf.man).first(n), cfg, ops,
                            LaneMode::kSwitch);
          }
          std::vector<std::uint32_t> sw_read(kRegs), acc_read(kRegs);
          fpisa_read_batch(rf.exp, rf.man, sw_read, cfg, LaneMode::kSwitch);
          fpisa_read_batch(rf.exp, rf.man, acc_read, cfg);
          reset_batch_backend();
          const std::string tag = what + " [" + backend_tag(backend) + "]";

          EXPECT_EQ(ops.adds, stream.size()) << tag;
          for (std::size_t i = 0; i < kRegs; ++i) {
            const std::uint32_t acc = acc_read[i];
            const bool subnormal = (acc & 0x7F800000u) == 0 &&
                                   (acc & 0x7FFFFFu) != 0;
            EXPECT_EQ(sw_read[i], subnormal ? (acc & 0x80000000u) : acc)
                << tag << " reg " << i;
          }
          if (backend == BatchBackend::kScalar) {
            want = rf;
            want_ops = ops;
            want_read = sw_read;
            continue;
          }
          EXPECT_EQ(rf.exp, want.exp) << tag;
          EXPECT_EQ(rf.man, want.man) << tag;
          EXPECT_EQ(sw_read, want_read) << tag;
          expect_counters_eq(ops, want_ops, tag);
        }
      }
    }
  }
}

TEST(BatchEquivalence, BatchEntryPointsRejectBadInputs) {
  // Spans of unequal length, in every build.
  {
    RegisterFile rf(2);
    OpCounters ops;
    const std::uint32_t three[] = {0, 0, 0};
    std::uint32_t out[3];
    EXPECT_THROW(fpisa_add_batch(three, rf.exp, rf.man, {}, ops),
                 std::invalid_argument);
    EXPECT_THROW(fpisa_read_batch(rf.exp, rf.man, out, {}),
                 std::invalid_argument);
    EXPECT_THROW(fpisa_read_reset_batch(rf.exp, std::span(rf.man).first(1),
                                        std::span(out).first(2), {}),
                 std::invalid_argument);
    EXPECT_EQ(ops.adds, 0u);
  }
  // The switch mode has no reference fallback.
  AccumulatorConfig wide;
  wide.reg_bits = 64;  // outside the batch fast path
  RegisterFile rf(1);
  OpCounters ops;
  const std::uint32_t one[] = {fp32_bits(1.0f)};
  std::uint32_t out[1];
  EXPECT_THROW(fpisa_add_batch(one, rf.exp, rf.man, wide, ops,
                               LaneMode::kSwitch),
               std::invalid_argument);
  EXPECT_THROW(fpisa_read_batch(rf.exp, rf.man, out, wide, LaneMode::kSwitch),
               std::invalid_argument);
}

/// A bank-shaped gather: payload bytes at an odd offset (so no lane is
/// 4-byte aligned), rows that repeat and one that ends at the bank end.
struct GatherCase {
  std::size_t lanes = 0;
  std::size_t bank_rows = 0;
  std::vector<std::uint32_t> rows;
  std::vector<std::byte> bytes;  ///< 1 pad byte, then lanes*4 per payload
  std::vector<const std::byte*> payloads;

  GatherCase(std::size_t lanes_in, std::size_t bank_rows_in,
             std::vector<std::uint32_t> rows_in, std::uint64_t seed)
      : lanes(lanes_in), bank_rows(bank_rows_in), rows(std::move(rows_in)) {
    util::Rng rng(seed);
    bytes.resize(1 + rows.size() * lanes * 4);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      for (std::size_t l = 0; l < lanes; ++l) {
        // Wide exponents plus zeros, subnormals and non-finite values.
        std::uint32_t u = rng.next_u32();
        switch (rng.next_below(8)) {
          case 0: u &= 0x80000000u; break;               // ±0
          case 1: u &= 0x807FFFFFu; break;               // subnormal
          case 2: u |= 0x7F800000u; break;               // inf / NaN
          default: u = (u & 0x807FFFFFu) |
                       static_cast<std::uint32_t>(100 + rng.next_below(56))
                           << 23;                        // near 1.0
        }
        std::memcpy(bytes.data() + 1 + (r * lanes + l) * 4, &u, 4);
      }
    }
    for (std::size_t r = 0; r < rows.size(); ++r) {
      payloads.push_back(bytes.data() + 1 + r * lanes * 4);
    }
  }

  /// The payload's lanes as an aligned word vector (oracle input).
  std::vector<std::uint32_t> words(std::size_t r) const {
    std::vector<std::uint32_t> w(lanes);
    std::memcpy(w.data(), payloads[r], lanes * 4);
    return w;
  }
};

TEST(GatherEquivalence, MatchesPerRowAddBatchOnEveryBackend) {
  // fpisa_add_gather is fpisa_add_batch once per row, in row order: same
  // registers, same counters, on every backend and in both lane modes.
  // Rows repeat (2 and 0 accumulate twice) and row 5 ends at the bank's
  // last register. 13 lanes = one 8-lane vector body plus a scalar tail.
  for (const std::size_t lanes : {std::size_t{13}, std::size_t{32}}) {
    const GatherCase g(lanes, 6, {2, 0, 5, 2, 1, 0, 5, 3}, lanes);
    for (const LaneMode mode : {LaneMode::kAccumulator, LaneMode::kSwitch}) {
      for (const Variant v : {Variant::kFull, Variant::kApproximate}) {
        for (const OverflowPolicy pol :
             {OverflowPolicy::kWrap, OverflowPolicy::kSaturate}) {
          for (const int reg_bits : {32, 40}) {
            AccumulatorConfig cfg;
            cfg.variant = v;
            cfg.overflow = pol;
            cfg.reg_bits = reg_bits;
            for (const BatchBackend backend : available_batch_backends()) {
              force_batch_backend(backend);
              RegisterFile want(g.bank_rows * lanes);
              OpCounters want_ops;
              for (std::size_t r = 0; r < g.rows.size(); ++r) {
                const std::size_t off = g.rows[r] * lanes;
                fpisa_add_batch(g.words(r),
                                std::span(want.exp).subspan(off, lanes),
                                std::span(want.man).subspan(off, lanes), cfg,
                                want_ops, mode);
              }
              RegisterFile got(g.bank_rows * lanes);
              OpCounters got_ops;
              fpisa_add_gather(g.payloads, g.rows, lanes, got.exp, got.man,
                               cfg, got_ops, mode);
              reset_batch_backend();
              const std::string tag =
                  std::string(mode == LaneMode::kSwitch ? "switch" : "acc") +
                  (v == Variant::kFull ? " full" : " approx") +
                  (pol == OverflowPolicy::kWrap ? " wrap" : " sat") +
                  " reg=" + std::to_string(reg_bits) +
                  " lanes=" + std::to_string(lanes) + " [" +
                  backend_tag(backend) + "]";
              EXPECT_EQ(got.exp, want.exp) << tag;
              EXPECT_EQ(got.man, want.man) << tag;
              expect_counters_eq(got_ops, want_ops, tag);
            }
          }
        }
      }
    }
  }
}

TEST(GatherEquivalence, IneligibleConfigFallsBackPerRow) {
  // A 64-bit register is outside the fast path: the reference loop still
  // gathers row by row.
  AccumulatorConfig wide;
  wide.reg_bits = 64;
  const GatherCase g(5, 3, {1, 2, 1}, 9);
  RegisterFile want(15);
  OpCounters want_ops;
  for (std::size_t r = 0; r < g.rows.size(); ++r) {
    const std::size_t off = g.rows[r] * 5;
    fpisa_add_batch(g.words(r), std::span(want.exp).subspan(off, 5),
                    std::span(want.man).subspan(off, 5), wide, want_ops);
  }
  RegisterFile got(15);
  OpCounters got_ops;
  fpisa_add_gather(g.payloads, g.rows, 5, got.exp, got.man, wide, got_ops);
  EXPECT_EQ(got.exp, want.exp);
  EXPECT_EQ(got.man, want.man);
  expect_counters_eq(got_ops, want_ops, "reference gather");
}

TEST(GatherEquivalence, RejectsBadShapesBeforeTouchingTheBank) {
  const GatherCase g(8, 4, {0, 3, 4}, 3);  // row 4 is one past the bank
  for (const BatchBackend backend : available_batch_backends()) {
    force_batch_backend(backend);
    RegisterFile bank(4 * 8);
    OpCounters ops;
    EXPECT_THROW(fpisa_add_gather(g.payloads, g.rows, 8, bank.exp, bank.man,
                                  {}, ops, LaneMode::kSwitch),
                 std::out_of_range);
    // Rows 0 and 3 precede the bad row, yet nothing landed.
    EXPECT_EQ(bank.exp, std::vector<std::int32_t>(32, 0));
    EXPECT_EQ(bank.man, std::vector<std::int64_t>(32, 0));
    EXPECT_EQ(ops.adds, 0u);
    // Payloads and rows of different lengths; exp and man of different
    // lengths.
    EXPECT_THROW(fpisa_add_gather(std::span(g.payloads).first(2), g.rows, 8,
                                  bank.exp, bank.man, {}, ops),
                 std::invalid_argument);
    EXPECT_THROW(fpisa_add_gather(std::span(g.payloads).first(2),
                                  std::span(g.rows).first(2), 8, bank.exp,
                                  std::span(bank.man).first(31), {}, ops),
                 std::invalid_argument);
    reset_batch_backend();
    EXPECT_EQ(ops.adds, 0u);
  }
}

/// Scattered egress destinations at odd byte offsets in one buffer (no
/// lane is 4-byte aligned), with 3-byte gaps no write may touch. Reversed:
/// every row on its own, last row first. In order: two runs of adjacent
/// rows, split by a gap at the middle row.
struct ScatterCase {
  static constexpr std::byte kPad{0xA5};
  std::size_t lanes = 0;
  std::vector<std::byte> bytes;
  std::vector<std::byte*> dests;

  ScatterCase(std::size_t lanes_in, std::size_t rows, bool reversed = true)
      : lanes(lanes_in) {
    const std::size_t stride = lanes * 4 + 3;
    bytes.assign(1 + rows * stride, kPad);
    for (std::size_t r = 0; r < rows; ++r) {
      dests.push_back(bytes.data() + 1 +
                      (reversed ? (rows - 1 - r) * stride
                                : r * lanes * 4 + (r >= rows / 2 ? 3 : 0)));
    }
  }

  /// Row r's bytes equal flat[r*lanes, +lanes), and every gap byte is
  /// still padding.
  void expect_rows(std::span<const std::uint32_t> flat,
                   const std::string& tag) const {
    for (std::size_t r = 0; r < dests.size(); ++r) {
      EXPECT_EQ(std::memcmp(dests[r], flat.data() + r * lanes, lanes * 4), 0)
          << tag << " row " << r;
    }
    std::vector<bool> written(bytes.size(), false);
    for (const std::byte* d : dests) {
      const auto off = static_cast<std::size_t>(d - bytes.data());
      std::fill_n(written.begin() + static_cast<std::ptrdiff_t>(off),
                  lanes * 4, true);
    }
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      if (written[i]) continue;
      ASSERT_EQ(bytes[i], kPad) << tag << " byte " << i;
    }
  }
};

TEST(ScatterEquivalence, MatchesFlatReadOnEveryBackend) {
  // fpisa_read_scatter / fpisa_read_reset_scatter write each row's values
  // bit for bit as the flat read does, on every backend and in both lane
  // modes, row by row and over runs of adjacent rows. 5 and 13 lanes
  // exercise the scalar tail (13 = one 8-lane vector body plus a tail), 32
  // lanes whole vectors only. States come from the add datapath and from
  // raw synthesized registers.
  constexpr std::size_t kRows = 6;
  for (const std::size_t lanes :
       {std::size_t{5}, std::size_t{13}, std::size_t{32}}) {
    util::Rng rng(lanes);
    std::vector<std::uint32_t> rows(3 * kRows);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      rows[i] = static_cast<std::uint32_t>(i % kRows);
    }
    const GatherCase g(lanes, kRows, rows, lanes + 100);
    for (const LaneMode mode : {LaneMode::kAccumulator, LaneMode::kSwitch}) {
      for (const int reg_bits : {32, 40}) {
        AccumulatorConfig cfg;
        cfg.reg_bits = reg_bits;
        RegisterFile state(kRows * lanes);
        OpCounters ops;
        fpisa_add_gather(g.payloads, g.rows, lanes, state.exp, state.man, cfg,
                         ops, mode);
        // Row 0: raw states, including ones outside the add invariant.
        for (std::size_t l = 0; l < lanes; ++l) {
          state.exp[l] = static_cast<std::int32_t>(rng.next_below(600)) - 300;
          state.man[l] = static_cast<std::int64_t>(
              rng.next_u64() >> (1 + rng.next_below(63)));
          if (rng.next_below(2) == 0) state.man[l] = -state.man[l];
        }
        for (const BatchBackend backend : available_batch_backends()) {
          force_batch_backend(backend);
          const std::string tag =
              std::string(mode == LaneMode::kSwitch ? "switch" : "acc") +
              " reg=" + std::to_string(reg_bits) +
              " lanes=" + std::to_string(lanes) + " [" +
              backend_tag(backend) + "]";
          std::vector<std::uint32_t> flat(kRows * lanes);
          fpisa_read_batch(state.exp, state.man, flat, cfg, mode);

          for (const bool reversed : {true, false}) {
            const std::string layout = reversed ? " reversed" : " runs";
            ScatterCase read(lanes, kRows, reversed);
            fpisa_read_scatter(state.exp, state.man, lanes, read.dests, cfg,
                               mode);
            read.expect_rows(flat, tag + layout + " read");

            RegisterFile cleared = state;
            ScatterCase reset(lanes, kRows, reversed);
            fpisa_read_reset_scatter(cleared.exp, cleared.man, lanes,
                                     reset.dests, cfg, mode);
            reset.expect_rows(flat, tag + layout + " read-reset");
            EXPECT_EQ(cleared.exp,
                      std::vector<std::int32_t>(kRows * lanes, 0))
                << tag;
            EXPECT_EQ(cleared.man,
                      std::vector<std::int64_t>(kRows * lanes, 0))
                << tag;
          }
          reset_batch_backend();
        }
      }
    }
  }
}

TEST(ScatterEquivalence, IneligibleConfigFallsBackAndBadShapesThrow) {
  // A 64-bit register takes the per-slot reference, row by row.
  AccumulatorConfig wide;
  wide.reg_bits = 64;
  RegisterFile rf(3 * 5);
  for (std::size_t i = 0; i < rf.exp.size(); ++i) {
    rf.exp[i] = static_cast<std::int32_t>(100 + i);
    rf.man[i] = static_cast<std::int64_t>(i * 977) - 7000;
  }
  std::vector<std::uint32_t> flat(rf.exp.size());
  fpisa_read_batch(rf.exp, rf.man, flat, wide);
  ScatterCase sc(5, 3);
  fpisa_read_scatter(rf.exp, rf.man, 5, sc.dests, wide);
  sc.expect_rows(flat, "reference scatter");
  // Registers that are not dests.size() rows of `lanes`, in every build,
  // before any write.
  ScatterCase bad(5, 3);
  EXPECT_THROW(fpisa_read_scatter(rf.exp, rf.man, 4, bad.dests, {}),
               std::invalid_argument);
  EXPECT_THROW(fpisa_read_reset_scatter(rf.exp, std::span(rf.man).first(10),
                                        5, bad.dests, {}),
               std::invalid_argument);
  EXPECT_THROW(fpisa_read_scatter(rf.exp, rf.man, 5, bad.dests, wide,
                                  LaneMode::kSwitch),
               std::invalid_argument);
  for (const std::byte b : bad.bytes) ASSERT_EQ(b, ScatterCase::kPad);
  EXPECT_EQ(rf.exp[0], 100);
}

TEST(BatchEquivalence, TooNarrowRegisterThrowsInEveryBuild) {
  // Batch-eligible (FP32, under 64 bits) but a 24-bit significand plus
  // guard and sign bits cannot fit: a typed error, not a wrong sum.
  AccumulatorConfig narrow;
  narrow.reg_bits = 26;
  narrow.guard_bits = 4;
  ASSERT_TRUE(batch_eligible(narrow));
  RegisterFile rf(1);
  OpCounters ops;
  const std::uint32_t one[] = {fp32_bits(1.0f)};
  EXPECT_THROW(fpisa_add_batch(one, rf.exp, rf.man, narrow, ops),
               std::invalid_argument);
  const std::byte* const payload = std::as_bytes(std::span(one)).data();
  const std::uint32_t row = 0;
  EXPECT_THROW(fpisa_add_gather({&payload, 1}, {&row, 1}, 1, rf.exp, rf.man,
                                narrow, ops),
               std::invalid_argument);
  EXPECT_EQ(rf.exp[0], 0);
  EXPECT_EQ(ops.adds, 0u);
}

TEST(BatchEquivalence, BackendReportsAndDispatch) {
  EXPECT_FALSE(available_batch_backends().empty());
  EXPECT_EQ(available_batch_backends().front(), BatchBackend::kScalar);
  force_batch_backend(BatchBackend::kScalar);
  EXPECT_EQ(batch_backend(), BatchBackend::kScalar);
  EXPECT_EQ(batch_backend_name(), "scalar");
  reset_batch_backend();
#if defined(FPISA_HAVE_AVX2)
  // When compiled in and the CPU supports it, AVX2 must be the default.
  if (available_batch_backends().size() > 1) {
    EXPECT_EQ(batch_backend(), BatchBackend::kAvx2);
  }
#endif
}

// --- runs of equal rows ------------------------------------------------------
// The gather kernels add a run of consecutive payloads on one row with the
// row held in registers. The oracle below is independent of that iteration
// and of the vector kernels: the scalar lane primitive, one value at a
// time, with the tallies summed per value.

template <Variant V, OverflowPolicy P, LaneMode M>
void lane_oracle_t(const std::vector<std::vector<std::uint32_t>>& payloads,
                   std::span<const std::uint32_t> rows, std::size_t lanes,
                   const AccumulatorConfig& cfg, RegisterFile& bank,
                   OpCounters& ops) {
  const detail::LaneParams p = detail::LaneParams::from(cfg);
  detail::BatchTallies t;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::size_t i = rows[r] * lanes + l;
      detail::lane_add<V, P, M>(payloads[r][l], bank.exp[i], bank.man[i], p,
                                t);
    }
  }
  ops.adds += t.adds;
  ops.rounded_adds += t.rounded;
  ops.overwrites += t.overwrites;
  ops.lshift_overflows += t.lshift_overflows;
  ops.saturations += t.saturations;
  ops.nonfinite_inputs += t.nonfinite;
  ops.zero_inputs += t.zeros;
}

template <Variant V, OverflowPolicy P>
void lane_oracle_p(const std::vector<std::vector<std::uint32_t>>& payloads,
                   std::span<const std::uint32_t> rows, std::size_t lanes,
                   const AccumulatorConfig& cfg, LaneMode mode,
                   RegisterFile& bank, OpCounters& ops) {
  if (mode == LaneMode::kSwitch) {
    lane_oracle_t<V, P, LaneMode::kSwitch>(payloads, rows, lanes, cfg, bank,
                                           ops);
  } else {
    lane_oracle_t<V, P, LaneMode::kAccumulator>(payloads, rows, lanes, cfg,
                                                bank, ops);
  }
}

/// Payload r adds into row rows[r], value by value through the lane
/// primitive.
void lane_oracle(const std::vector<std::vector<std::uint32_t>>& payloads,
                 std::span<const std::uint32_t> rows, std::size_t lanes,
                 const AccumulatorConfig& cfg, LaneMode mode,
                 RegisterFile& bank, OpCounters& ops) {
  const bool wrap = cfg.overflow == OverflowPolicy::kWrap;
  if (cfg.variant == Variant::kFull) {
    wrap ? lane_oracle_p<Variant::kFull, OverflowPolicy::kWrap>(
               payloads, rows, lanes, cfg, mode, bank, ops)
         : lane_oracle_p<Variant::kFull, OverflowPolicy::kSaturate>(
               payloads, rows, lanes, cfg, mode, bank, ops);
  } else {
    wrap ? lane_oracle_p<Variant::kApproximate, OverflowPolicy::kWrap>(
               payloads, rows, lanes, cfg, mode, bank, ops)
         : lane_oracle_p<Variant::kApproximate, OverflowPolicy::kSaturate>(
               payloads, rows, lanes, cfg, mode, bank, ops);
  }
}

/// One FP32 input drawn across the edges: ±0, subnormals, ±inf, NaN, the
/// extreme exponents 1 and 254, values near 1.0 and wide random ones.
std::uint32_t edge_value(util::Rng& rng) {
  const std::uint32_t sign = static_cast<std::uint32_t>(rng.next_below(2))
                             << 31;
  const std::uint32_t frac = rng.next_u32() & 0x7FFFFFu;
  switch (rng.next_below(9)) {
    case 0: return sign;                                    // ±0
    case 1: return sign | (frac | 1u);                      // subnormal
    case 2: return sign | 0x7F800000u;                      // ±inf
    case 3: return sign | 0x7F800000u | (frac | 1u);        // NaN
    case 4: return sign | (1u << 23) | frac;                // exponent 1
    case 5: return sign | (254u << 23) | frac;              // exponent 254
    case 6:
      return sign | static_cast<std::uint32_t>(120 + rng.next_below(16))
                        << 23 |
             frac;                                          // near 1.0
    default:
      return sign |
             static_cast<std::uint32_t>(1 + rng.next_below(254)) << 23 |
             frac;                                          // any normal
  }
}

/// Runs the gather on every backend against the lane oracle, for both
/// lane modes, both variants, both overflow policies and reg_bits 32 / 40.
void expect_gather_matches_oracle(
    const std::vector<std::vector<std::uint32_t>>& payloads,
    const std::vector<std::uint32_t>& rows, std::size_t lanes,
    std::size_t bank_rows, const std::string& what) {
  // Odd byte offset: no lane of any payload is 4-byte aligned.
  std::vector<std::byte> bytes(1 + payloads.size() * lanes * 4);
  std::vector<const std::byte*> ptrs;
  for (std::size_t r = 0; r < payloads.size(); ++r) {
    std::memcpy(bytes.data() + 1 + r * lanes * 4, payloads[r].data(),
                lanes * 4);
    ptrs.push_back(bytes.data() + 1 + r * lanes * 4);
  }
  for (const LaneMode mode : {LaneMode::kAccumulator, LaneMode::kSwitch}) {
    for (const Variant v : {Variant::kFull, Variant::kApproximate}) {
      for (const OverflowPolicy pol :
           {OverflowPolicy::kWrap, OverflowPolicy::kSaturate}) {
        for (const int reg_bits : {32, 40}) {
          AccumulatorConfig cfg;
          cfg.variant = v;
          cfg.overflow = pol;
          cfg.reg_bits = reg_bits;
          RegisterFile want(bank_rows * lanes);
          OpCounters want_ops;
          lane_oracle(payloads, rows, lanes, cfg, mode, want, want_ops);
          for (const BatchBackend backend : available_batch_backends()) {
            force_batch_backend(backend);
            RegisterFile got(bank_rows * lanes);
            OpCounters got_ops;
            fpisa_add_gather(ptrs, rows, lanes, got.exp, got.man, cfg,
                             got_ops, mode);
            reset_batch_backend();
            const std::string tag =
                what + (mode == LaneMode::kSwitch ? " switch" : " acc") +
                (v == Variant::kFull ? " full" : " approx") +
                (pol == OverflowPolicy::kWrap ? " wrap" : " sat") +
                " reg=" + std::to_string(reg_bits) +
                " lanes=" + std::to_string(lanes) + " [" +
                backend_tag(backend) + "]";
            ASSERT_EQ(got.exp, want.exp) << tag;
            ASSERT_EQ(got.man, want.man) << tag;
            expect_counters_eq(got_ops, want_ops, tag);
          }
        }
      }
    }
  }
}

TEST(GatherEquivalence, RunsOfEqualRowsMatchTheLanePrimitive) {
  // Runs of 1 to 9 payloads on one row, single rows between them, and
  // rows that come back after other rows (3, 5 and 0 recur non-adjacent).
  // 5 lanes are all tail, 13 one 8-lane block plus a tail, 32 whole blocks
  // only, 40 five blocks.
  const std::vector<std::uint32_t> rows = {
      3, 3, 3, 0, 5, 5, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0,
      2, 5, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 3, 3, 3, 3, 3, 3,
      3, 3, 0, 5, 2, 2, 2, 2, 2, 2, 2, 2, 2};
  for (const std::size_t lanes : {std::size_t{5}, std::size_t{13},
                                  std::size_t{32}, std::size_t{40}}) {
    util::Rng rng(1000 + lanes);
    std::vector<std::vector<std::uint32_t>> payloads(rows.size());
    for (auto& pl : payloads) {
      pl.resize(lanes);
      for (std::uint32_t& u : pl) u = edge_value(rng);
    }
    expect_gather_matches_oracle(payloads, rows, lanes, 6, "runs");
  }
}

TEST(GatherEquivalence, LongRunCrossesTheTallyDrain) {
  // 70,000 payloads on one row, after a short run on another: more steps
  // than a lane count holds between drains (65,535), so the kernels must
  // drain their register tallies mid-run, with the first run's steps
  // already pending. Every lane sees the same event on every payload in
  // its group — non-finite, zero, or a huge value that overflows or
  // saturates — so an undrained count would wrap well before the end.
  constexpr std::size_t kPayloads = 70003;
  constexpr std::size_t kLanes = 13;
  util::Rng rng(77);
  std::vector<std::vector<std::uint32_t>> payloads(kPayloads);
  for (auto& pl : payloads) {
    pl.resize(kLanes);
    for (std::size_t l = 0; l < kLanes; ++l) {
      const std::uint32_t frac = rng.next_u32() & 0x7FFFFFu;
      switch (l % 4) {
        case 0: pl[l] = 0x7F800000u | (frac | 1u); break;  // NaN
        case 1: pl[l] = (l & 4u) << 29; break;              // ±0
        case 2: pl[l] = (254u << 23) | frac; break;         // huge
        default: pl[l] = edge_value(rng);
      }
    }
  }
  std::vector<std::uint32_t> rows(kPayloads, 1);
  rows[0] = rows[1] = rows[2] = 0;
  expect_gather_matches_oracle(payloads, rows, kLanes, 2, "long run");
}

TEST(ScatterEquivalence, ReadResetClearsExactlyItsSpan) {
  // A read-and-reset clears the registers it reads as it reads them: its
  // span ends all-zero, the bank's registers outside the span keep their
  // values, and no byte outside the destinations is written.
  for (const std::size_t lanes : {std::size_t{5}, std::size_t{13},
                                  std::size_t{32}, std::size_t{40}}) {
    constexpr std::size_t kBankRows = 8;
    constexpr std::size_t kFirst = 2;
    constexpr std::size_t kRows = 4;
    util::Rng rng(500 + lanes);
    std::vector<std::uint32_t> rows;
    for (std::size_t i = 0; i < 3 * kBankRows; ++i) {
      rows.push_back(static_cast<std::uint32_t>(i % kBankRows));
    }
    std::vector<std::vector<std::uint32_t>> payloads(rows.size());
    for (auto& pl : payloads) {
      pl.resize(lanes);
      for (std::uint32_t& u : pl) u = edge_value(rng);
    }
    for (const LaneMode mode : {LaneMode::kAccumulator, LaneMode::kSwitch}) {
      for (const int reg_bits : {32, 40}) {
        AccumulatorConfig cfg;
        cfg.reg_bits = reg_bits;
        RegisterFile bank(kBankRows * lanes);
        OpCounters ops;
        lane_oracle(payloads, rows, lanes, cfg, mode, bank, ops);
        // One out-of-invariant register inside the span takes the 8-lane
        // kernel's scalar fallback block.
        bank.man[kFirst * lanes] = std::int64_t{1} << 40;
        const std::size_t off = kFirst * lanes;
        const std::size_t n = kRows * lanes;
        std::vector<std::uint32_t> flat(n);
        fpisa_read_batch(std::span(bank.exp).subspan(off, n),
                         std::span(bank.man).subspan(off, n), flat, cfg,
                         mode);
        for (const BatchBackend backend : available_batch_backends()) {
          force_batch_backend(backend);
          for (const bool reversed : {true, false}) {
            const std::string tag =
                std::string(mode == LaneMode::kSwitch ? "switch" : "acc") +
                " reg=" + std::to_string(reg_bits) +
                " lanes=" + std::to_string(lanes) +
                (reversed ? " reversed" : " runs") + " [" +
                backend_tag(backend) + "]";
            RegisterFile cleared = bank;
            ScatterCase out(lanes, kRows, reversed);
            fpisa_read_reset_scatter(
                std::span(cleared.exp).subspan(off, n),
                std::span(cleared.man).subspan(off, n), lanes, out.dests, cfg,
                mode);
            out.expect_rows(flat, tag);
            for (std::size_t i = 0; i < cleared.size(); ++i) {
              const bool in_span = i >= off && i < off + n;
              ASSERT_EQ(cleared.exp[i], in_span ? 0 : bank.exp[i])
                  << tag << " exp " << i;
              ASSERT_EQ(cleared.man[i], in_span ? 0 : bank.man[i])
                  << tag << " man " << i;
            }
          }
          reset_batch_backend();
        }
      }
    }
  }
}

}  // namespace
}  // namespace fpisa::core
