// Batched egress datapath: renormalize-and-assemble over spans of the SoA
// register file (the read-side twin of batch_accumulator.cpp). Dispatch
// shares the backend selection and test hooks of the add kernel — one
// `force_batch_backend` pins both datapaths.
#include "core/batch_accumulator.h"

#include <stdexcept>

#include "core/batch_lane.h"
#include "core/decompose.h"

namespace fpisa::core {
namespace {

/// Reference fallback for configs outside the fast path (non-FP32 layouts,
/// 64-bit registers, rounding modes other than truncation): the per-slot
/// assemble loop, unchanged semantics.
void read_reference(std::span<const std::int32_t> exp,
                    std::span<const std::int64_t> man,
                    std::span<std::uint32_t> out,
                    const AccumulatorConfig& cfg) {
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint32_t>(fpisa_read({exp[i], man[i]}, cfg).bits);
  }
}

void run_read(std::span<const std::int32_t> exp,
              std::span<const std::int64_t> man, std::span<std::uint32_t> out,
              const AccumulatorConfig& cfg, LaneMode mode) {
  if (exp.size() != out.size() || man.size() != out.size()) {
    throw std::invalid_argument(
        "fpisa_read_batch: exp, man and out spans differ in length");
  }
  if (!read_batch_eligible(cfg)) {
    if (mode == LaneMode::kSwitch) {
      throw std::invalid_argument(
          "fpisa_read_batch: LaneMode::kSwitch needs a read-eligible config "
          "(FP32, register narrower than 64 bits, truncating reads)");
    }
    read_reference(exp, man, out, cfg);
    return;
  }
#if defined(FPISA_HAVE_AVX2)
  if (batch_backend() == BatchBackend::kAvx2) {
    detail::read_batch_avx2(exp.data(), man.data(), out.data(), out.size(),
                            cfg.guard_bits, cfg.effective_reg_bits(), mode);
    return;
  }
#endif
  if (mode == LaneMode::kSwitch) {
    detail::lane_read_range<LaneMode::kSwitch>(exp.data(), man.data(),
                                               out.data(), out.size(),
                                               cfg.guard_bits);
  } else {
    detail::lane_read_range<LaneMode::kAccumulator>(exp.data(), man.data(),
                                                    out.data(), out.size(),
                                                    cfg.guard_bits);
  }
}

}  // namespace

bool read_batch_eligible(const AccumulatorConfig& cfg) {
  return batch_eligible(cfg) && cfg.read_rounding == Rounding::kTowardZero;
}

void fpisa_read_batch(std::span<const std::int32_t> exp,
                      std::span<const std::int64_t> man,
                      std::span<std::uint32_t> out,
                      const AccumulatorConfig& cfg, LaneMode mode) {
  run_read(exp, man, out, cfg, mode);
}

void fpisa_read_reset_batch(std::span<std::int32_t> exp,
                            std::span<std::int64_t> man,
                            std::span<std::uint32_t> out,
                            const AccumulatorConfig& cfg, LaneMode mode) {
  run_read(exp, man, out, cfg, mode);
  std::fill(exp.begin(), exp.end(), 0);
  std::fill(man.begin(), man.end(), 0);
}

}  // namespace fpisa::core
