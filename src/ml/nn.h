// A small self-contained neural-network library: enough to train real
// models with real gradients for the paper's ML experiments (Figs 7-9).
// Layers: dense, ReLU, 3x3 conv; loss: softmax cross-entropy; optimizer:
// SGD with momentum + weight decay (the paper's CNN training settings).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/rng.h"

namespace fpisa::ml {

/// A layer transforms a batch of flattened activations. Parameters and
/// their gradients are exposed as flat spans for the data-parallel trainer.
class Layer {
 public:
  virtual ~Layer() = default;
  virtual std::string name() const = 0;
  virtual int output_size(int input_size) const = 0;

  /// Forward for a batch of `n` rows of `in_size` floats.
  virtual std::vector<float> forward(std::span<const float> x, int n) = 0;
  /// Backward: consumes dL/dy, returns dL/dx; accumulates parameter grads.
  virtual std::vector<float> backward(std::span<const float> dy, int n) = 0;

  virtual std::span<float> params() { return {}; }
  virtual std::span<float> grads() { return {}; }
  virtual void zero_grads() {}
};

class Dense final : public Layer {
 public:
  Dense(int in, int out, util::Rng& rng);
  std::string name() const override { return "dense"; }
  int output_size(int) const override { return out_; }
  std::vector<float> forward(std::span<const float> x, int n) override;
  std::vector<float> backward(std::span<const float> dy, int n) override;
  std::span<float> params() override { return theta_; }
  std::span<float> grads() override { return grad_; }
  void zero_grads() override { grad_.assign(grad_.size(), 0.0f); }

 private:
  int in_;
  int out_;
  std::vector<float> theta_;  // W (out*in) then b (out)
  std::vector<float> grad_;
  std::vector<float> last_x_;
};

class Relu final : public Layer {
 public:
  explicit Relu(int size) : size_(size) {}
  std::string name() const override { return "relu"; }
  int output_size(int input_size) const override { return input_size; }
  std::vector<float> forward(std::span<const float> x, int n) override;
  std::vector<float> backward(std::span<const float> dy, int n) override;

 private:
  int size_;
  std::vector<float> last_x_;
};

/// 3x3 valid convolution over square single/multi-channel inputs.
class Conv3x3 final : public Layer {
 public:
  Conv3x3(int img, int cin, int cout, util::Rng& rng);
  std::string name() const override { return "conv3x3"; }
  int output_size(int) const override { return cout_ * (img_ - 2) * (img_ - 2); }
  std::vector<float> forward(std::span<const float> x, int n) override;
  std::vector<float> backward(std::span<const float> dy, int n) override;
  std::span<float> params() override { return theta_; }
  std::span<float> grads() override { return grad_; }
  void zero_grads() override { grad_.assign(grad_.size(), 0.0f); }

 private:
  int img_;
  int cin_;
  int cout_;
  std::vector<float> theta_;  // cout*cin*9 weights + cout biases
  std::vector<float> grad_;
  std::vector<float> last_x_;
};

/// Sequential network + softmax cross-entropy head.
class Network {
 public:
  Network(int input_size, std::vector<std::unique_ptr<Layer>> layers);

  int output_size() const { return output_size_; }

  std::vector<float> forward(std::span<const float> x, int n);
  /// Softmax-CE loss for logits vs labels; fills dlogits.
  static float loss_and_grad(std::span<const float> logits,
                             std::span<const int> labels, int classes,
                             std::vector<float>& dlogits);
  void backward(std::span<const float> dlogits, int n);

  void zero_grads();
  /// Flattened copy of all parameter gradients (the "gradient vector").
  std::vector<float> gradient_vector() const;
  /// Overwrites gradients from a flat vector (post-aggregation). Throws
  /// std::invalid_argument, writing nothing, unless flat holds exactly one
  /// value per gradient.
  void set_gradients(std::span<const float> flat);
  std::size_t parameter_count() const;

  /// SGD with momentum and weight decay (paper §5.2: lr .1, mom .9,
  /// wd 5e-4 for the CNN benchmarks).
  void sgd_step(float lr, float momentum, float weight_decay);

 private:
  int output_size_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::vector<float> velocity_;
};

/// Model zoo standing in for the paper's four Fig 9 architectures.
Network make_logreg(int dim, int classes, std::uint64_t seed);
Network make_mlp(int dim, int hidden, int classes, std::uint64_t seed);
Network make_deep_mlp(int dim, int hidden, int classes, std::uint64_t seed);
Network make_cnn(int img, int classes, std::uint64_t seed);

}  // namespace fpisa::ml
