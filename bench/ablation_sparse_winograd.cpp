// Ablation: Winograd-domain pruning (Liu et al. 2018) composed with
// winograd-aware quantized training.
//
// The paper cites sparse-Winograd as reaching "up to 90% sparsity in the
// Hadamard product stage ... with no accuracy loss in FP32 models" and
// leaves its combination with quantization open. This harness runs the
// iterative prune-and-retrain workflow Liu et al. describe — single-shot
// pruning at high sparsity destroys the network; sparsity must be reached
// in steps with fine-tuning in between:
//
//   train dense  ->  for each target: restore dense weights, then
//                    prune(half target) -> finetune -> prune(target) -> finetune
//
// on a winograd-aware ResNet-18 (WAF4) at FP32 and INT8, reporting accuracy
// and the modeled Hadamard-stage speedup on a Cortex-A73.
//
// Expected shape: FP32 tolerates high sparsity far better than INT8 (the
// quantization grid already consumed the representational slack pruning
// needs) — and speedup scales ~1/density.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_common.hpp"
#include "latency/cost_model.hpp"
#include "models/resnet.hpp"
#include "sparse/winograd_prune.hpp"

int main() {
  using namespace wa;
  auto scale = bench::scale_from_env();
  // Pruning recovery needs genuine fine-tuning steps; see fig5 for the same
  // pattern. The explicit smoke preset and env overrides still win.
  const char* preset = std::getenv("WINO_SCALE");
  if (preset == nullptr || std::string(preset) != "smoke") {
    scale.train_size = std::max<std::int64_t>(scale.train_size, 512);
    scale.epochs = std::max(scale.epochs, 4);
    scale.batch = std::min<std::int64_t>(scale.batch, 16);
  }
  bench::banner("Ablation — Winograd-domain pruning x quantization (ResNet-18 WAF4)");
  bench::note("workflow: dense training once per bit-width; per target sparsity restore the");
  bench::note("dense weights, then prune->finetune in two steps (iterative, Liu et al.);");
  bench::note("speedup is the cost-model Hadamard-stage ratio vs dense (A73, int8).");

  const auto train_set = bench::make_split(data::cifar10_like(), scale, true);
  const auto val_set = bench::make_split(data::cifar10_like(), scale, false);
  const latency::LatencyModel lat(latency::cortex_a73());

  auto make_net = [&](int bits, Rng& rng) {
    models::ResNetConfig rc;
    rc.width_mult = scale.width_mult;
    rc.algo = nn::ConvAlgo::kWinograd4;
    rc.qspec = quant::QuantSpec{bits};
    rc.flex_transforms = bits < 32;  // the paper's best quantized config
    return std::make_unique<models::ResNet18>(rc, rng);
  };

  struct BitRun {
    int bits;
    float dense_acc = 0;
    std::map<std::string, Tensor> dense_state{};
    std::map<double, float> pruned_acc{};  // target sparsity -> accuracy
  };
  BitRun runs[] = {{.bits = 32}, {.bits = 8}};
  const double targets[] = {0.5, 0.7, 0.9};

  for (auto& run : runs) {
    Rng rng(scale.seed);
    auto net = make_net(run.bits, rng);
    train::Trainer dense(*net, train_set, val_set, bench::trainer_options(scale));
    dense.fit();
    run.dense_acc = dense.evaluate(val_set);
    run.dense_state = net->state_dict();

    for (const double target : targets) {
      Rng rng2(scale.seed);
      auto pruned = make_net(run.bits, rng2);
      pruned->load_state(run.dense_state);
      auto ft = bench::trainer_options(scale, 1e-3F);
      ft.epochs = std::max(1, scale.epochs / 2);
      for (const double step : {target / 2, target}) {
        sparse::prune_model(*pruned, step);
        train::Trainer finetune(*pruned, train_set, val_set, ft);
        finetune.fit();
      }
      train::Trainer eval(*pruned, train_set, val_set, ft);
      run.pruned_acc[target] = eval.evaluate(val_set);
    }
  }

  auto gemm_ms = [&](double density) {
    latency::LayerDesc d;
    d.geom.batch = 1;
    d.geom.in_channels = 128;
    d.geom.out_channels = 128;
    d.geom.height = 16;
    d.geom.width = 16;
    d.algo = nn::ConvAlgo::kWinograd4;
    d.dtype = latency::DType::kInt8;
    d.hadamard_density = density;
    return lat.conv_cost(d).gemm_ms;
  };

  std::printf("  %-10s %-12s %-12s %-16s\n", "sparsity", "fp32 acc", "int8 acc",
              "gemm speedup (A73)");
  std::printf("  %-10s %-12s %-12s %s\n", "dense", bench::pct(runs[0].dense_acc).c_str(),
              bench::pct(runs[1].dense_acc).c_str(), "1.00x");
  const double dense_ms = gemm_ms(1.0);
  for (const double target : targets) {
    std::printf("  %-10.2f %-12s %-12s %.2fx\n", target,
                bench::pct(runs[0].pruned_acc[target]).c_str(),
                bench::pct(runs[1].pruned_acc[target]).c_str(),
                dense_ms / gemm_ms(1.0 - target));
  }

  bench::banner("Findings check");
  const float fp32_dense = runs[0].dense_acc;
  const float fp32_50 = runs[0].pruned_acc[0.5];
  const float fp32_drop = fp32_dense - fp32_50;
  const float int8_drop = runs[1].dense_acc - runs[1].pruned_acc[0.5];
  if (fp32_dense < 0.25F) {
    bench::note("  inconclusive at this scale (dense fp32 never trained past 2.5x chance);");
    bench::note("  rerun with WINO_SCALE=full or WINO_EPOCHS/WINO_TRAIN raised.");
    return 0;
  }
  bench::row("fp32 survives 50% sparsity", "Liu et al.: lossless to ~90% (full training)",
             fp32_50 >= fp32_dense * 0.6F ? "yes" : "NO");
  bench::row("fp32 degrades less than int8 at 50%", "open question in the paper",
             fp32_drop <= int8_drop + 0.05F ? "yes" : "NO");
  bench::row("speedup scales with sparsity", "~1/density on the GEMM stage",
             gemm_ms(0.1) < gemm_ms(0.5) && gemm_ms(0.5) < gemm_ms(1.0) ? "yes" : "NO");
  return 0;
}
