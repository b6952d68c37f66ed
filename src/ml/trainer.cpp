#include "ml/trainer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/packed.h"

namespace fpisa::ml {

DataParallelTrainer::DataParallelTrainer(Network& model, const Dataset& data,
                                         collective::Communicator& comm,
                                         TrainerOptions opts)
    : model_(model),
      data_(data),
      comm_(comm),
      opts_(opts),
      order_(static_cast<std::size_t>(data.train_size())),
      shuffle_rng_(opts.shuffle_seed) {
  std::iota(order_.begin(), order_.end(), 0);
}

float DataParallelTrainer::train_epoch(const GradHook& on_worker_grads) {
  shuffle_rng_.shuffle(order_.data(), order_.size());
  const int global_batch = opts_.workers * opts_.batch_per_worker;
  const int steps = data_.train_size() / global_batch;
  const int dim = data_.dim;
  double loss_sum = 0.0;

  for (int step = 0; step < steps; ++step) {
    std::vector<std::vector<float>> worker_grads;
    worker_grads.reserve(static_cast<std::size_t>(opts_.workers));

    for (int w = 0; w < opts_.workers; ++w) {
      // Build this worker's shard.
      const int b = opts_.batch_per_worker;
      std::vector<float> x(static_cast<std::size_t>(b) * dim);
      std::vector<int> y(static_cast<std::size_t>(b));
      for (int r = 0; r < b; ++r) {
        const int idx = order_[static_cast<std::size_t>(
            step * global_batch + w * b + r)];
        std::copy_n(data_.train_x.data() + static_cast<std::size_t>(idx) * dim,
                    dim, x.data() + static_cast<std::size_t>(r) * dim);
        y[static_cast<std::size_t>(r)] = data_.train_y[static_cast<std::size_t>(idx)];
      }

      model_.zero_grads();
      const std::vector<float> logits = model_.forward(x, b);
      std::vector<float> dlogits;
      loss_sum += Network::loss_and_grad(logits, y, data_.classes, dlogits);
      model_.backward(dlogits, b);

      std::vector<float> g = model_.gradient_vector();
      if (opts_.grad_format) {
        // Reduced-precision exchange: what actually leaves the worker.
        for (auto& v : g) {
          v = static_cast<float>(
              core::decode(core::encode(v, *opts_.grad_format),
                           *opts_.grad_format));
        }
      }
      worker_grads.push_back(std::move(g));
    }

    if (on_worker_grads) on_worker_grads(worker_grads);

    // One allreduce over views of the workers' gradients (zero-copy into
    // the communicator); kMean applies the same 1/W scale the legacy
    // host-side averaging did, float-for-float.
    mean_grad_.resize(worker_grads.front().size());
    (void)comm_.allreduce(collective::WorkerViews(worker_grads), mean_grad_,
                          collective::ReduceOp::kMean);
    model_.set_gradients(mean_grad_);
    model_.sgd_step(opts_.lr, opts_.momentum, opts_.weight_decay);
  }
  return static_cast<float>(loss_sum /
                            std::max(1, steps * opts_.workers));
}

float DataParallelTrainer::evaluate() {
  const int n = data_.test_size();
  if (n == 0) return 0.0f;
  const std::vector<float> logits = model_.forward(data_.test_x, n);
  int correct = 0;
  for (int r = 0; r < n; ++r) {
    const float* row = logits.data() + static_cast<std::size_t>(r) * data_.classes;
    int arg = 0;
    for (int c = 1; c < data_.classes; ++c) {
      if (row[c] > row[arg]) arg = c;
    }
    if (arg == data_.test_y[static_cast<std::size_t>(r)]) ++correct;
  }
  return static_cast<float>(correct) / static_cast<float>(n);
}

std::vector<double> elementwise_max_min_ratio(
    const std::vector<std::vector<float>>& worker_grads) {
  std::vector<double> ratios;
  if (worker_grads.empty()) return ratios;
  const std::size_t n = worker_grads.front().size();
  ratios.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double mn = 1e300;
    double mx = 0.0;
    bool any_zero = false;
    for (const auto& g : worker_grads) {
      const double a = std::fabs(static_cast<double>(g[i]));
      if (a == 0.0) {
        any_zero = true;
        break;
      }
      mn = std::min(mn, a);
      mx = std::max(mx, a);
    }
    if (!any_zero) ratios.push_back(mx / mn);
  }
  return ratios;
}

}  // namespace fpisa::ml
