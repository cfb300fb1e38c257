// Host wall-clock microbenchmarks (google-benchmark) of the deployment
// kernels in src/backend — a second, measured data series complementing the
// analytic A73/A53 cost model. Absolute times are host-specific; the
// interesting outputs are the im2row-vs-Winograd ratios and the fp32-vs-int8
// ratios, which mirror the structure of the paper's Figs. 7/8.
#include <benchmark/benchmark.h>

#include "backend/conv_kernels.hpp"
#include "backend/conv_kernels_s8.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace wa;

backend::ConvGeometry geom(std::int64_t cin, std::int64_t cout, std::int64_t hw) {
  backend::ConvGeometry g;
  g.batch = 1;
  g.in_channels = cin;
  g.out_channels = cout;
  g.height = hw;
  g.width = hw;
  g.kernel = 3;
  g.pad = 1;
  return g;
}

struct ConvFixtureData {
  Tensor input, weights;
  backend::ConvGeometry g;
};

ConvFixtureData make_fixture(std::int64_t cin, std::int64_t cout, std::int64_t hw) {
  Rng rng(1234);
  ConvFixtureData f;
  f.g = geom(cin, cout, hw);
  f.input = Tensor::randn({1, cin, hw, hw}, rng);
  f.weights = Tensor::randn({cout, cin, 3, 3}, rng, 0.2F);
  return f;
}

void BM_Im2RowConv(benchmark::State& state) {
  const auto f = make_fixture(state.range(0), state.range(1), state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend::im2row_conv(f.input, f.weights, f.g));
  }
}

void BM_Im2ColConv(benchmark::State& state) {
  const auto f = make_fixture(state.range(0), state.range(1), state.range(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend::im2col_conv(f.input, f.weights, f.g));
  }
}

void BM_WinogradConv(benchmark::State& state) {
  const auto f = make_fixture(state.range(0), state.range(1), state.range(2));
  const auto tr = wino::make_transforms(static_cast<int>(state.range(3)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend::winograd_conv(f.input, f.weights, f.g, tr));
  }
}

// The int8 rows prepare the weights inside the loop, like the fp32 rows
// above transform theirs per call, so fp32-vs-int8 ratios compare like with
// like.
void BM_Im2RowConvS8(benchmark::State& state) {
  const auto f = make_fixture(state.range(0), state.range(1), state.range(2));
  const auto qin = backend::quantize_s8(f.input);
  const auto qw = backend::quantize_s8(f.weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        backend::im2row_conv_s8_prepared(qin, backend::prepare_im2row_weights_s8(qw), f.g));
  }
}

void BM_WinogradConvS8(benchmark::State& state) {
  const auto f = make_fixture(state.range(0), state.range(1), state.range(2));
  const auto qin = backend::quantize_s8(f.input);
  const auto tr = wino::make_transforms(static_cast<int>(state.range(3)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(backend::winograd_conv_s8_prepared(
        qin, backend::prepare_winograd_weights_s8(f.weights, tr), f.g, tr));
  }
}

void BM_GemmF32(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(5);
  Tensor a = Tensor::randn({n, n}, rng);
  Tensor b = Tensor::randn({n, n}, rng);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm_f32(false, false, n, n, n, 1.F, a.raw(), b.raw(), 0.F, c.raw());
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

void BM_GemmS8(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(6);
  std::vector<std::int8_t> a(static_cast<std::size_t>(n * n)), b(static_cast<std::size_t>(n * n));
  for (auto& v : a) v = static_cast<std::int8_t>(rng.randint(-100, 100));
  for (auto& v : b) v = static_cast<std::int8_t>(rng.randint(-100, 100));
  std::vector<std::int32_t> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    backend::gemm_s8_s32(n, n, n, a.data(), b.data(), c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

}  // namespace

// Input layer (3->32) vs deep layers (Fig. 7's columns, scaled).
BENCHMARK(BM_Im2RowConv)->Args({3, 32, 32})->Args({64, 64, 16})->Args({128, 128, 8})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Im2ColConv)->Args({64, 64, 16})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WinogradConv)
    ->Args({3, 32, 32, 2})->Args({3, 32, 32, 4})
    ->Args({64, 64, 16, 2})->Args({64, 64, 16, 4})->Args({64, 64, 16, 6})
    ->Args({128, 128, 8, 2})->Args({128, 128, 8, 4})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Im2RowConvS8)->Args({64, 64, 16})->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WinogradConvS8)->Args({64, 64, 16, 2})->Args({64, 64, 16, 4})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmF32)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_GemmS8)->Arg(64)->Arg(128)->Arg(256)->Unit(benchmark::kMicrosecond);

BENCHMARK_MAIN();
