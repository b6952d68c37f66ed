// Fig 7: element-wise max/min gradient-magnitude ratio across 8 workers,
// first training epoch, for three model configurations (stand-ins for
// VGG/CIFAR-10, DeepLight/Criteo, LSTM/GBW — see DESIGN.md).
#include <cstdio>

#include "ml/data.h"
#include "ml/nn.h"
#include "ml/trainer.h"
#include "switchml/aggregator.h"
#include "util/bench_json.h"
#include "util/stats.h"

int main() {
  using namespace fpisa;
  std::printf("=== Fig 7: element-wise max/min ratio across 8 workers ===\n");
  std::printf("(paper: ~83%% of ratios < 2^7 across VGG/DeepLight/LSTM)\n\n");

  struct Config {
    const char* name;
    ml::Network net;
    ml::Dataset data;
  };
  Config configs[] = {
      {"MLP (stand-in: VGG/CIFAR-10)", ml::make_mlp(24, 48, 6, 1),
       ml::make_blobs(6, 24, 4096, 64, 2)},
      {"LogReg (stand-in: DeepLight/Criteo)", ml::make_logreg(32, 2, 3),
       ml::make_blobs(2, 32, 4096, 64, 4)},
      {"DeepMLP (stand-in: LSTM/GBW)", ml::make_deep_mlp(16, 32, 8, 5),
       ml::make_blobs(8, 16, 4096, 64, 6)},
  };

  util::BenchJson json("fig07_gradient_ratio");
  for (auto& cfg : configs) {
    switchml::ExactAggregator agg;
    ml::TrainerOptions opts;
    opts.batch_per_worker = 32;
    collective::HostCommunicator comm(agg);
    ml::DataParallelTrainer trainer(cfg.net, cfg.data, comm, opts);

    util::Log2Histogram hist(0, 20);
    trainer.train_epoch([&](const std::vector<std::vector<float>>& grads) {
      for (const double r : ml::elementwise_max_min_ratio(grads)) hist.add(r);
    });

    std::printf("--- %s (first epoch, %llu elements) ---\n", cfg.name,
                static_cast<unsigned long long>(hist.total()));
    std::vector<std::pair<std::string, double>> bars;
    for (int e = 0; e <= 20; e += 2) {
      double f = 0;
      for (std::size_t b = 0; b < hist.buckets(); ++b) {
        const int lo = hist.bucket_log2_lo(b);
        if (lo >= e && lo < e + 2) f += hist.frequency(b);
      }
      bars.emplace_back("2^" + std::to_string(e) + "..2^" + std::to_string(e + 2),
                        f);
    }
    std::printf("%s", util::ascii_bars(bars).c_str());
    std::printf("fraction with ratio < 2^7: %.1f%%  (paper: ~83%%)\n\n",
                hist.fraction_below_pow2(7) * 100);
    json.set(std::string(cfg.name, 0, std::string(cfg.name).find(' ')) +
                 "_frac_below_2e7",
             hist.fraction_below_pow2(7));
  }
  json.write();
  return 0;
}
