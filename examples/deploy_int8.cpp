// The deployment path: integer-only convolution kernels (the role Arm
// Compute Library plays in the paper).
//
// Quantizes one convolution layer to int8, prepares its weights once (the
// repacked GEMM operand, or the transformed Winograd U = Qx(G g Gᵀ)), runs it
// through
//  - im2row with an int8 GEMM + fixed-point requantization, and
//  - Winograd F2/F4 with per-stage int8 requantization (the inference-time
//    mirror of the training Qx stages),
// then reports accuracy vs the FP32 reference and host wall-clock times of
// the prepared int8 forwards.
//
//   build/examples/deploy_int8
#include <chrono>
#include <cstdio>

#include "backend/conv_kernels.hpp"
#include "backend/conv_kernels_s8.hpp"

namespace {

template <typename F>
double time_ms(F&& fn, int reps = 5) {
  fn();  // warm up
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() / reps;
}

}  // namespace

int main() {
  using namespace wa;
  backend::ConvGeometry g;
  g.batch = 1;
  g.in_channels = 64;
  g.out_channels = 64;
  g.height = 16;
  g.width = 16;
  g.kernel = 3;
  g.pad = 1;

  Rng rng(3);
  const Tensor input = Tensor::randn({g.batch, g.in_channels, g.height, g.width}, rng);
  const Tensor weights = Tensor::randn({g.out_channels, g.in_channels, 3, 3}, rng, 0.2F);
  const Tensor reference = backend::im2row_conv(input, weights, g);

  const auto qin = backend::quantize_s8(input);
  const auto qw = backend::quantize_s8(weights);
  std::printf("layer: %lldx%lld, %lld -> %lld channels (int8 scales: in %.4f, w %.4f)\n",
              static_cast<long long>(g.height), static_cast<long long>(g.width),
              static_cast<long long>(g.in_channels), static_cast<long long>(g.out_channels),
              static_cast<double>(qin.scale), static_cast<double>(qw.scale));

  auto report = [&](const char* name, const Tensor& got, double ms) {
    const float rel = Tensor::max_abs_diff(reference, got) / reference.abs_max();
    std::printf("  %-22s %8.3f ms   max rel err vs fp32: %.4f\n", name, ms, rel);
  };

  {
    Tensor got;
    const double ms = time_ms([&] { got = backend::im2row_conv(input, weights, g); });
    report("im2row fp32", got, ms);
  }
  {
    backend::QTensor out;
    const auto prepared = backend::prepare_im2row_weights_s8(qw);
    const double ms = time_ms([&] { out = backend::im2row_conv_s8_prepared(qin, prepared, g); });
    report("im2row int8", backend::dequantize(out), ms);
  }
  for (int m : {2, 4}) {
    const auto tr = wino::make_transforms(m, 3);
    {
      Tensor got;
      const double ms = time_ms([&] { got = backend::winograd_conv(input, weights, g, tr); });
      report(m == 2 ? "winograd F2 fp32" : "winograd F4 fp32", got, ms);
    }
    {
      backend::QTensor out;
      const auto prepared = backend::prepare_winograd_weights_s8(weights, tr);
      const double ms =
          time_ms([&] { out = backend::winograd_conv_s8_prepared(qin, prepared, g, tr); });
      report(m == 2 ? "winograd F2 int8" : "winograd F4 int8", backend::dequantize(out), ms);
    }
  }

  std::printf(
      "\nNote how int8 Winograd error grows with the tile size — the deployment-side\n"
      "face of the paper's Table 1. Winograd-aware training exists to absorb it.\n");
  return 0;
}
