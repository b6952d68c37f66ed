// Batched egress datapath: renormalize-and-assemble over spans of the SoA
// register file (the read-side twin of batch_accumulator.cpp), flat into
// one output span or scattered row by row to caller-chosen destinations.
// Dispatch shares the backend selection and test hooks of the add kernel —
// one `force_batch_backend` pins both datapaths.
#include "core/batch_accumulator.h"

#include <stdexcept>
#include <string>

#include "core/batch_lane.h"
#include "core/decompose.h"

namespace fpisa::core {
namespace {

/// Reference fallback for configs outside the fast path (non-FP32 layouts,
/// 64-bit registers, rounding modes other than truncation): the per-slot
/// assemble loop, unchanged semantics.
void read_reference(const detail::ScatterBatch& s,
                    const AccumulatorConfig& cfg) {
  detail::for_each_run(s, [&](std::int32_t* exp, std::int64_t* man,
                              std::byte* dest, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      detail::store_lane(
          dest, i,
          static_cast<std::uint32_t>(fpisa_read({exp[i], man[i]}, cfg).bits));
      if (s.reset) {
        exp[i] = 0;
        man[i] = 0;
      }
    }
  });
}

template <LaneMode M, bool Reset>
void read_scalar(const detail::ScatterBatch& s, int guard) {
  detail::for_each_run(s, [guard](std::int32_t* exp, std::int64_t* man,
                                  std::byte* dest, std::size_t n) {
    detail::lane_read_range<M, Reset>(exp, man, dest, n, guard);
  });
}

/// The one read body behind the flat and scattered entry points, on a
/// batch whose spans are already checked.
void run_read(const detail::ScatterBatch& s, const AccumulatorConfig& cfg,
              LaneMode mode) {
  if (!read_batch_eligible(cfg)) {
    if (mode == LaneMode::kSwitch) {
      throw std::invalid_argument(
          "fpisa_read_batch: LaneMode::kSwitch needs a read-eligible config "
          "(FP32, register narrower than 64 bits, truncating reads)");
    }
    read_reference(s, cfg);
    return;
  }
#if defined(FPISA_HAVE_AVX2)
  if (batch_backend() == BatchBackend::kAvx2) {
    detail::read_scatter_avx2(s, cfg.guard_bits, cfg.effective_reg_bits(),
                              mode);
    return;
  }
#endif
  const int guard = cfg.guard_bits;
  if (mode == LaneMode::kSwitch) {
    s.reset ? read_scalar<LaneMode::kSwitch, true>(s, guard)
            : read_scalar<LaneMode::kSwitch, false>(s, guard);
  } else {
    s.reset ? read_scalar<LaneMode::kAccumulator, true>(s, guard)
            : read_scalar<LaneMode::kAccumulator, false>(s, guard);
  }
}

/// The flat read: one row of every register, landing in `out`. The
/// registers are written only with `reset`; a plain read passes spans
/// the kernels never write through.
void run_flat(std::span<std::int32_t> exp, std::span<std::int64_t> man,
              std::span<std::uint32_t> out, const AccumulatorConfig& cfg,
              LaneMode mode, bool reset) {
  if (exp.size() != out.size() || man.size() != out.size()) {
    throw std::invalid_argument(
        "fpisa_read_batch: exp, man and out spans differ in length");
  }
  std::byte* const dest = std::as_writable_bytes(out).data();
  run_read({exp.data(), man.data(), &dest, 1, out.size(), reset}, cfg, mode);
}

/// Shape check of the scattered read: every row's registers are there.
detail::ScatterBatch scatter_batch(std::span<std::int32_t> exp,
                                   std::span<std::int64_t> man,
                                   std::size_t lanes,
                                   std::span<std::byte* const> dests,
                                   bool reset) {
  if (exp.size() != man.size() || exp.size() != dests.size() * lanes) {
    throw std::invalid_argument(
        "fpisa_read_scatter: exp and man must hold " +
        std::to_string(dests.size()) + " rows of " + std::to_string(lanes) +
        " lanes, got " + std::to_string(exp.size()) + " and " +
        std::to_string(man.size()) + " registers");
  }
  return {exp.data(), man.data(), dests.data(), dests.size(), lanes, reset};
}

/// A plain read's registers as the batch's pointers: the kernels write
/// through them only when the batch resets, which a plain read never does.
template <class T>
std::span<T> unwritten(std::span<const T> regs) {
  return {const_cast<T*>(regs.data()), regs.size()};
}

}  // namespace

bool read_batch_eligible(const AccumulatorConfig& cfg) {
  return batch_eligible(cfg) && cfg.read_rounding == Rounding::kTowardZero;
}

void fpisa_read_batch(std::span<const std::int32_t> exp,
                      std::span<const std::int64_t> man,
                      std::span<std::uint32_t> out,
                      const AccumulatorConfig& cfg, LaneMode mode) {
  run_flat(unwritten(exp), unwritten(man), out, cfg, mode, /*reset=*/false);
}

void fpisa_read_reset_batch(std::span<std::int32_t> exp,
                            std::span<std::int64_t> man,
                            std::span<std::uint32_t> out,
                            const AccumulatorConfig& cfg, LaneMode mode) {
  run_flat(exp, man, out, cfg, mode, /*reset=*/true);
}

void fpisa_read_scatter(std::span<const std::int32_t> exp,
                        std::span<const std::int64_t> man, std::size_t lanes,
                        std::span<std::byte* const> dests,
                        const AccumulatorConfig& cfg, LaneMode mode) {
  run_read(scatter_batch(unwritten(exp), unwritten(man), lanes, dests,
                         /*reset=*/false),
           cfg, mode);
}

void fpisa_read_reset_scatter(std::span<std::int32_t> exp,
                              std::span<std::int64_t> man, std::size_t lanes,
                              std::span<std::byte* const> dests,
                              const AccumulatorConfig& cfg, LaneMode mode) {
  run_read(scatter_batch(exp, man, lanes, dests, /*reset=*/true), cfg, mode);
}

}  // namespace fpisa::core
