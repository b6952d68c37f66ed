// The ML substrate: layer gradient checks, data-parallel training, and the
// paper's §5 claims on real gradients (convergence parity, error rarity).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "ml/data.h"
#include "ml/nn.h"
#include "ml/trainer.h"
#include "switchml/aggregator.h"
#include "util/rng.h"

namespace fpisa::ml {
namespace {

/// Smoke check: the full forward/backward path of a network yields finite
/// loss and gradients (per-layer numeric checks live in the layer tests).
void gradcheck(Network& net, int dim, int classes, std::uint64_t seed) {
  util::Rng rng(seed);
  const int n = 3;
  std::vector<float> x(static_cast<std::size_t>(n) * dim);
  std::vector<int> y(n);
  for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
  for (auto& l : y) {
    l = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(classes)));
  }

  net.zero_grads();
  const auto logits = net.forward(x, n);
  std::vector<float> dlogits;
  const float loss = Network::loss_and_grad(logits, y, classes, dlogits);
  net.backward(dlogits, n);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
  for (const float g : net.gradient_vector()) {
    ASSERT_TRUE(std::isfinite(g));
  }
}

TEST(Layers, DenseGradCheck) {
  util::Rng rng(10);
  Dense dense(5, 4, rng);
  const int n = 3;
  std::vector<float> x(15);
  for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
  std::vector<float> dy(12);
  for (auto& v : dy) v = static_cast<float>(rng.normal(0, 1));

  dense.zero_grads();
  (void)dense.forward(x, n);
  (void)dense.backward(dy, n);
  const auto grads = dense.grads();
  auto params = dense.params();

  // Objective: sum(y * dy). d/dtheta should equal the accumulated grads.
  auto objective = [&] {
    const auto y = dense.forward(x, n);
    double s = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      s += static_cast<double>(y[i]) * dy[i];
    }
    return s;
  };
  const double eps = 1e-3;
  for (std::size_t i = 0; i < params.size(); i += 3) {
    const float save = params[i];
    params[i] = save + static_cast<float>(eps);
    const double up = objective();
    params[i] = save - static_cast<float>(eps);
    const double dn = objective();
    params[i] = save;
    const double numeric = (up - dn) / (2 * eps);
    EXPECT_NEAR(numeric, grads[i], 2e-2) << "param " << i;
  }
}

TEST(Layers, ConvGradCheck) {
  util::Rng rng(11);
  Conv3x3 conv(6, 1, 2, rng);
  const int n = 2;
  std::vector<float> x(static_cast<std::size_t>(n) * 36);
  for (auto& v : x) v = static_cast<float>(rng.normal(0, 1));
  std::vector<float> dy(static_cast<std::size_t>(n) * 2 * 16);
  for (auto& v : dy) v = static_cast<float>(rng.normal(0, 1));

  conv.zero_grads();
  (void)conv.forward(x, n);
  (void)conv.backward(dy, n);
  const auto grads = conv.grads();
  auto params = conv.params();

  auto objective = [&] {
    const auto y = conv.forward(x, n);
    double s = 0;
    for (std::size_t i = 0; i < y.size(); ++i) {
      s += static_cast<double>(y[i]) * dy[i];
    }
    return s;
  };
  const double eps = 1e-3;
  for (std::size_t i = 0; i < params.size(); i += 2) {
    const float save = params[i];
    params[i] = save + static_cast<float>(eps);
    const double up = objective();
    params[i] = save - static_cast<float>(eps);
    const double dn = objective();
    params[i] = save;
    EXPECT_NEAR((up - dn) / (2 * eps), grads[i], 3e-2) << "param " << i;
  }
}

TEST(Layers, ReluMasksGradient) {
  Relu relu(4);
  const std::vector<float> x{-1.0f, 2.0f, 0.0f, 3.0f};
  const auto y = relu.forward(x, 1);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[1], 2.0f);
  const std::vector<float> dy{1.0f, 1.0f, 1.0f, 1.0f};
  const auto dx = relu.backward(dy, 1);
  EXPECT_EQ(dx[0], 0.0f);
  EXPECT_EQ(dx[1], 1.0f);
  EXPECT_EQ(dx[2], 0.0f);
}

TEST(Network, SoftmaxLossDecreasesUnderSgd) {
  const Dataset ds = make_blobs(4, 8, 512, 128, 20);
  Network net = make_mlp(8, 16, 4, 21);
  switchml::ExactAggregator agg;
  collective::HostCommunicator comm(agg);
  DataParallelTrainer trainer(net, ds, comm, {});
  const float acc0 = trainer.evaluate();
  float loss_first = 0;
  float loss_last = 0;
  for (int e = 0; e < 6; ++e) {
    const float l = trainer.train_epoch();
    if (e == 0) loss_first = l;
    loss_last = l;
  }
  EXPECT_LT(loss_last, loss_first);
  EXPECT_GT(trainer.evaluate(), acc0);
  EXPECT_GT(trainer.evaluate(), 0.55f);
}

TEST(Network, GradientVectorRoundTrips) {
  Network net = make_mlp(8, 16, 4, 22);
  const std::size_t n = net.parameter_count();
  std::vector<float> flat(n);
  for (std::size_t i = 0; i < n; ++i) flat[i] = static_cast<float>(i % 7) - 3;
  net.set_gradients(flat);
  EXPECT_EQ(net.gradient_vector(), flat);
}

TEST(Network, SetGradientsRejectsAWrongLengthInEveryBuild) {
  // A short span used to be read past its end in Release.
  Network net = make_mlp(8, 16, 4, 22);
  const std::size_t n = net.parameter_count();
  const std::vector<float> before = net.gradient_vector();
  for (const std::size_t len : {std::size_t{0}, n - 1, n + 1}) {
    const std::vector<float> flat(len, 1.0f);
    EXPECT_THROW(net.set_gradients(flat), std::invalid_argument) << len;
    EXPECT_EQ(net.gradient_vector(), before) << len;
  }
}

TEST(Trainer, FpisaAAggregationMatchesExactConvergence) {
  // Fig 9's core claim, in miniature: training with FPISA-A aggregation
  // reaches the same accuracy as exact aggregation (within noise).
  const Dataset ds = make_blobs(4, 16, 768, 256, 23);

  auto run = [&](switchml::GradientAggregator& agg) {
    Network net = make_mlp(16, 24, 4, 24);  // identical init via same seed
    collective::HostCommunicator comm(agg);
    DataParallelTrainer trainer(net, ds, comm, {});
    for (int e = 0; e < 8; ++e) trainer.train_epoch();
    return trainer.evaluate();
  };

  switchml::ExactAggregator exact;
  core::AccumulatorConfig cfg;
  cfg.variant = core::Variant::kApproximate;
  switchml::FpisaAggregator fpisa(cfg);
  const float acc_exact = run(exact);
  const float acc_fpisa = run(fpisa);
  EXPECT_NEAR(acc_fpisa, acc_exact, 0.04f);
  EXPECT_GT(acc_fpisa, 0.55f);
}

TEST(Trainer, GradientRatioDistributionIsNarrow) {
  // Fig 7: on real gradients, most element-wise max/min ratios across
  // 8 workers fall below 2^7.
  const Dataset ds = make_blobs(6, 16, 2048, 64, 25);
  Network net = make_mlp(16, 32, 6, 26);
  switchml::ExactAggregator agg;
  TrainerOptions opts;
  opts.batch_per_worker = 16;  // per-worker averaging, as in real training
  collective::HostCommunicator comm(agg);
  DataParallelTrainer trainer(net, ds, comm, opts);

  std::size_t below = 0;
  std::size_t total = 0;
  trainer.train_epoch([&](const std::vector<std::vector<float>>& grads) {
    for (const double r : elementwise_max_min_ratio(grads)) {
      ++total;
      if (r < 128.0) ++below;
    }
  });
  ASSERT_GT(total, 1000u);
  EXPECT_GT(static_cast<double>(below) / static_cast<double>(total), 0.60);
}

TEST(Trainer, Fp16PathTrains) {
  const Dataset ds = make_blobs(4, 8, 512, 128, 27);
  Network net = make_mlp(8, 16, 4, 28);
  core::AccumulatorConfig cfg;
  cfg.format = core::kFp16;
  cfg.variant = core::Variant::kApproximate;
  switchml::FpisaAggregator agg(cfg);
  TrainerOptions opts;
  opts.grad_format = core::kFp16;
  collective::HostCommunicator comm(agg);
  DataParallelTrainer trainer(net, ds, comm, opts);
  for (int e = 0; e < 8; ++e) trainer.train_epoch();
  EXPECT_GT(trainer.evaluate(), 0.5f);
}

TEST(Trainer, CnnModelTrainsOnImages) {
  const Dataset ds = make_images(3, 8, 384, 96, 29);
  Network net = make_cnn(8, 3, 30);
  switchml::ExactAggregator agg;
  TrainerOptions opts;
  opts.lr = 0.05f;
  collective::HostCommunicator comm(agg);
  DataParallelTrainer trainer(net, ds, comm, opts);
  for (int e = 0; e < 6; ++e) trainer.train_epoch();
  EXPECT_GT(trainer.evaluate(), 0.6f);
}

TEST(Trainer, GradCheckHarnessIsFinite) {
  Network net = make_deep_mlp(6, 8, 3, 31);
  gradcheck(net, 6, 3, 32);
}

}  // namespace
}  // namespace fpisa::ml
