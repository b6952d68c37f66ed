#include "ml/nn.h"

#include <cmath>
#include <stdexcept>

namespace fpisa::ml {
namespace {

float he_init(util::Rng& rng, int fan_in) {
  return static_cast<float>(rng.normal(0.0, std::sqrt(2.0 / fan_in)));
}

}  // namespace

Dense::Dense(int in, int out, util::Rng& rng)
    : in_(in),
      out_(out),
      theta_(static_cast<std::size_t>(out) * in + out, 0.0f),
      grad_(theta_.size(), 0.0f) {
  for (int i = 0; i < out * in; ++i) theta_[static_cast<std::size_t>(i)] = he_init(rng, in);
}

std::vector<float> Dense::forward(std::span<const float> x, int n) {
  last_x_.assign(x.begin(), x.end());
  std::vector<float> y(static_cast<std::size_t>(n) * out_);
  const float* w = theta_.data();
  const float* b = theta_.data() + static_cast<std::size_t>(out_) * in_;
  for (int r = 0; r < n; ++r) {
    const float* xr = x.data() + static_cast<std::size_t>(r) * in_;
    float* yr = y.data() + static_cast<std::size_t>(r) * out_;
    for (int o = 0; o < out_; ++o) {
      float acc = b[o];
      const float* wo = w + static_cast<std::size_t>(o) * in_;
      for (int i = 0; i < in_; ++i) acc += wo[i] * xr[i];
      yr[o] = acc;
    }
  }
  return y;
}

std::vector<float> Dense::backward(std::span<const float> dy, int n) {
  std::vector<float> dx(static_cast<std::size_t>(n) * in_, 0.0f);
  float* dw = grad_.data();
  float* db = grad_.data() + static_cast<std::size_t>(out_) * in_;
  const float* w = theta_.data();
  for (int r = 0; r < n; ++r) {
    const float* xr = last_x_.data() + static_cast<std::size_t>(r) * in_;
    const float* gr = dy.data() + static_cast<std::size_t>(r) * out_;
    float* dxr = dx.data() + static_cast<std::size_t>(r) * in_;
    for (int o = 0; o < out_; ++o) {
      const float g = gr[o];
      db[o] += g;
      float* dwo = dw + static_cast<std::size_t>(o) * in_;
      const float* wo = w + static_cast<std::size_t>(o) * in_;
      for (int i = 0; i < in_; ++i) {
        dwo[i] += g * xr[i];
        dxr[i] += g * wo[i];
      }
    }
  }
  return dx;
}

std::vector<float> Relu::forward(std::span<const float> x, int n) {
  last_x_.assign(x.begin(), x.end());
  std::vector<float> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = x[i] > 0 ? x[i] : 0.0f;
  (void)n;
  return y;
}

std::vector<float> Relu::backward(std::span<const float> dy, int n) {
  std::vector<float> dx(dy.size());
  for (std::size_t i = 0; i < dy.size(); ++i) {
    dx[i] = last_x_[i] > 0 ? dy[i] : 0.0f;
  }
  (void)n;
  return dx;
}

Conv3x3::Conv3x3(int img, int cin, int cout, util::Rng& rng)
    : img_(img),
      cin_(cin),
      cout_(cout),
      theta_(static_cast<std::size_t>(cout) * cin * 9 + cout, 0.0f),
      grad_(theta_.size(), 0.0f) {
  for (int i = 0; i < cout * cin * 9; ++i) {
    theta_[static_cast<std::size_t>(i)] = he_init(rng, cin * 9);
  }
}

std::vector<float> Conv3x3::forward(std::span<const float> x, int n) {
  last_x_.assign(x.begin(), x.end());
  const int o = img_ - 2;
  std::vector<float> y(static_cast<std::size_t>(n) * cout_ * o * o, 0.0f);
  const float* w = theta_.data();
  const float* b = theta_.data() + static_cast<std::size_t>(cout_) * cin_ * 9;
  for (int r = 0; r < n; ++r) {
    const float* xr = x.data() + static_cast<std::size_t>(r) * cin_ * img_ * img_;
    float* yr = y.data() + static_cast<std::size_t>(r) * cout_ * o * o;
    for (int co = 0; co < cout_; ++co) {
      for (int i = 0; i < o; ++i) {
        for (int j = 0; j < o; ++j) {
          float acc = b[co];
          for (int ci = 0; ci < cin_; ++ci) {
            const float* xc = xr + static_cast<std::size_t>(ci) * img_ * img_;
            const float* wk =
                w + (static_cast<std::size_t>(co) * cin_ + ci) * 9;
            for (int di = 0; di < 3; ++di) {
              for (int dj = 0; dj < 3; ++dj) {
                acc += wk[di * 3 + dj] * xc[(i + di) * img_ + (j + dj)];
              }
            }
          }
          yr[(static_cast<std::size_t>(co) * o + i) * o + j] = acc;
        }
      }
    }
  }
  return y;
}

std::vector<float> Conv3x3::backward(std::span<const float> dy, int n) {
  const int o = img_ - 2;
  std::vector<float> dx(static_cast<std::size_t>(n) * cin_ * img_ * img_, 0.0f);
  float* dw = grad_.data();
  float* db = grad_.data() + static_cast<std::size_t>(cout_) * cin_ * 9;
  const float* w = theta_.data();
  for (int r = 0; r < n; ++r) {
    const float* xr =
        last_x_.data() + static_cast<std::size_t>(r) * cin_ * img_ * img_;
    const float* gr = dy.data() + static_cast<std::size_t>(r) * cout_ * o * o;
    float* dxr = dx.data() + static_cast<std::size_t>(r) * cin_ * img_ * img_;
    for (int co = 0; co < cout_; ++co) {
      for (int i = 0; i < o; ++i) {
        for (int j = 0; j < o; ++j) {
          const float g = gr[(static_cast<std::size_t>(co) * o + i) * o + j];
          db[co] += g;
          for (int ci = 0; ci < cin_; ++ci) {
            const float* xc = xr + static_cast<std::size_t>(ci) * img_ * img_;
            float* dxc = dxr + static_cast<std::size_t>(ci) * img_ * img_;
            float* dwk = dw + (static_cast<std::size_t>(co) * cin_ + ci) * 9;
            const float* wk = w + (static_cast<std::size_t>(co) * cin_ + ci) * 9;
            for (int di = 0; di < 3; ++di) {
              for (int dj = 0; dj < 3; ++dj) {
                dwk[di * 3 + dj] += g * xc[(i + di) * img_ + (j + dj)];
                dxc[(i + di) * img_ + (j + dj)] += g * wk[di * 3 + dj];
              }
            }
          }
        }
      }
    }
  }
  return dx;
}

Network::Network(int input_size, std::vector<std::unique_ptr<Layer>> layers)
    : layers_(std::move(layers)) {
  int size = input_size;
  for (const auto& l : layers_) size = l->output_size(size);
  output_size_ = size;
  velocity_.assign(parameter_count(), 0.0f);
}

std::vector<float> Network::forward(std::span<const float> x, int n) {
  std::vector<float> a(x.begin(), x.end());
  for (const auto& l : layers_) a = l->forward(a, n);
  return a;
}

float Network::loss_and_grad(std::span<const float> logits,
                             std::span<const int> labels, int classes,
                             std::vector<float>& dlogits) {
  const int n = static_cast<int>(labels.size());
  dlogits.assign(logits.size(), 0.0f);
  double loss = 0.0;
  for (int r = 0; r < n; ++r) {
    const float* lr = logits.data() + static_cast<std::size_t>(r) * classes;
    float* gr = dlogits.data() + static_cast<std::size_t>(r) * classes;
    float mx = lr[0];
    for (int c = 1; c < classes; ++c) mx = std::max(mx, lr[c]);
    double denom = 0.0;
    for (int c = 0; c < classes; ++c) {
      denom += std::exp(static_cast<double>(lr[c] - mx));
    }
    for (int c = 0; c < classes; ++c) {
      const double p = std::exp(static_cast<double>(lr[c] - mx)) / denom;
      gr[c] = static_cast<float>((p - (labels[r] == c ? 1.0 : 0.0)) / n);
      if (labels[r] == c) loss -= std::log(std::max(p, 1e-12));
    }
  }
  return static_cast<float>(loss / n);
}

void Network::backward(std::span<const float> dlogits, int n) {
  std::vector<float> g(dlogits.begin(), dlogits.end());
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g, n);
  }
}

void Network::zero_grads() {
  for (const auto& l : layers_) l->zero_grads();
}

std::vector<float> Network::gradient_vector() const {
  std::vector<float> out;
  for (const auto& l : layers_) {
    auto g = const_cast<Layer&>(*l).grads();
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

void Network::set_gradients(std::span<const float> flat) {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l->grads().size();
  if (flat.size() != n) {
    throw std::invalid_argument(
        "set_gradients: " + std::to_string(flat.size()) + " values for " +
        std::to_string(n) + " gradients");
  }
  std::size_t off = 0;
  for (const auto& l : layers_) {
    auto g = l->grads();
    for (std::size_t i = 0; i < g.size(); ++i) g[i] = flat[off + i];
    off += g.size();
  }
}

std::size_t Network::parameter_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += const_cast<Layer&>(*l).params().size();
  return n;
}

void Network::sgd_step(float lr, float momentum, float weight_decay) {
  std::size_t off = 0;
  for (const auto& l : layers_) {
    auto p = l->params();
    auto g = l->grads();
    for (std::size_t i = 0; i < p.size(); ++i) {
      const float grad = g[i] + weight_decay * p[i];
      velocity_[off + i] = momentum * velocity_[off + i] + grad;
      p[i] -= lr * velocity_[off + i];
    }
    off += p.size();
  }
}

Network make_logreg(int dim, int classes, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(dim, classes, rng));
  return Network(dim, std::move(layers));
}

Network make_mlp(int dim, int hidden, int classes, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(dim, hidden, rng));
  layers.push_back(std::make_unique<Relu>(hidden));
  layers.push_back(std::make_unique<Dense>(hidden, classes, rng));
  return Network(dim, std::move(layers));
}

Network make_deep_mlp(int dim, int hidden, int classes, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Dense>(dim, hidden, rng));
  layers.push_back(std::make_unique<Relu>(hidden));
  layers.push_back(std::make_unique<Dense>(hidden, hidden, rng));
  layers.push_back(std::make_unique<Relu>(hidden));
  layers.push_back(std::make_unique<Dense>(hidden, classes, rng));
  return Network(dim, std::move(layers));
}

Network make_cnn(int img, int classes, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::unique_ptr<Layer>> layers;
  layers.push_back(std::make_unique<Conv3x3>(img, 1, 8, rng));
  const int conv_out = 8 * (img - 2) * (img - 2);
  layers.push_back(std::make_unique<Relu>(conv_out));
  layers.push_back(std::make_unique<Dense>(conv_out, classes, rng));
  return Network(img * img, std::move(layers));
}

}  // namespace fpisa::ml
