// Data-parallel training over the unified collective API — the paper's §5
// testbed in miniature. Each of W simulated workers computes gradients on
// its shard of the batch; a collective::Communicator (host aggregator zoo,
// single switch, rack-scale cluster service, or ToR→spine tree — all
// interchangeable) allreduces them with ReduceOp::kMean; SGD applies the
// result.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "collective/communicator.h"
#include "core/float_format.h"
#include "ml/data.h"
#include "ml/nn.h"

namespace fpisa::ml {

struct TrainerOptions {
  int workers = 8;
  int batch_per_worker = 2;  ///< global batch = workers * batch_per_worker
  float lr = 0.1f;
  float momentum = 0.9f;
  float weight_decay = 5e-4f;
  /// Emulate a reduced-precision gradient exchange: gradients are encoded
  /// into this format before aggregation (apex-style mixed precision).
  std::optional<core::FloatFormat> grad_format;
  std::uint64_t shuffle_seed = 99;
};

class DataParallelTrainer {
 public:
  DataParallelTrainer(Network& model, const Dataset& data,
                      collective::Communicator& comm, TrainerOptions opts);

  /// Runs one epoch over the training set; returns mean loss.
  /// `on_worker_grads`, if set, receives every step's per-worker gradient
  /// vectors (the Fig 7/8 capture hook).
  using GradHook =
      std::function<void(const std::vector<std::vector<float>>&)>;
  float train_epoch(const GradHook& on_worker_grads = nullptr);

  /// Test-set top-1 accuracy in [0,1].
  float evaluate();

 private:
  Network& model_;
  const Dataset& data_;
  collective::Communicator& comm_;
  TrainerOptions opts_;
  std::vector<int> order_;
  util::Rng shuffle_rng_;
  std::vector<float> mean_grad_;  ///< reused allreduce output buffer
};

/// Per-element max/min |gradient| ratio across workers (Fig 7). Elements
/// where any worker's gradient is exactly zero are skipped (no ratio).
std::vector<double> elementwise_max_min_ratio(
    const std::vector<std::vector<float>>& worker_grads);

}  // namespace fpisa::ml
