// Model-zoo deployment bench: per-stage latency of the zoo stage shapes
// (grouped conv, stride-2 polyphase Winograd, whole-tap-sparse Winograd,
// channel concat) plus end-to-end serving latency of the compiled SqueezeNet
// and ResNeXt pipelines. Merged into BENCH_engine.json under "zoo_deploy".
//
// The structural claims measured here:
//   - a grouped conv exploits its block-diagonal weights: close to g-times
//     less work than the dense conv of the same channel counts;
//   - a whole-tap sparse Winograd stage skips the pruned tap GEMMs: faster
//     than its dense twin in proportion to the surviving taps;
//   - the stride-2 polyphase lowering is tracked against the im2row
//     fallback it replaced (the phase decomposition trades GEMM shape for
//     transform reuse, so the ratio is size-dependent — watch it, don't
//     assume it).
//
// Usage: build/bench/zoo_deploy [json=BENCH_engine.json]
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "deploy/pipeline.hpp"
#include "models/resnext.hpp"
#include "models/squeezenet.hpp"
#include "winograd/cook_toom.hpp"

namespace {

using namespace wa;
using deploy::ConcatStage;
using deploy::ConvStage;
using deploy::Int8Pipeline;
using deploy::StageIO;

StageIO make_io(const char* in, const char* in2, const char* out, const char* label) {
  StageIO io;
  io.input = in;
  io.input2 = in2;
  io.output = out;
  io.label = label;
  return io;
}

double time_ms(const Int8Pipeline& pipe, const Tensor& x, int reps) {
  pipe.run(x);  // warm-up: caches are pre-built, this settles allocators
  double total = 0;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    pipe.run(x);
    const auto t1 = std::chrono::steady_clock::now();
    total += std::chrono::duration<double, std::milli>(t1 - t0).count();
  }
  return total / reps;
}

ConvStage im2row_conv(Rng& rng, std::int64_t in_ch, std::int64_t out_ch, std::int64_t groups,
                      std::int64_t stride = 1) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = 3;
  st.pad = 1;
  st.groups = groups;
  st.stride = stride;
  st.input_scale = 0.05F;
  st.output_scale = 0.08F;
  st.weights_q = backend::quantize_s8(Tensor::randn({out_ch, in_ch / groups, 3, 3}, rng, 0.3F));
  return st;
}

ConvStage wino_conv(Rng& rng, std::int64_t in_ch, std::int64_t out_ch, std::int64_t groups,
                    std::int64_t stride = 1, Tensor sparse_mask = Tensor()) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = 3;
  st.pad = 1;
  st.groups = groups;
  st.stride = stride;
  st.input_scale = 0.05F;
  st.output_scale = 0.08F;
  st.weights_f = Tensor::randn({out_ch, in_ch / groups, 3, 3}, rng, 0.3F);
  st.transforms = wino::make_transforms(2, 3);
  st.stage_scales.weights_transformed = 0.02F;
  st.stage_scales.input_transformed = 0.05F;
  st.stage_scales.hadamard = 0.1F;
  st.stage_scales.output = 0.08F;
  st.sparse_mask = std::move(sparse_mask);
  return st;
}

double single_stage_ms(ConvStage st, const Tensor& x, int reps) {
  Int8Pipeline pipe;
  pipe.push(std::move(st), make_io("", "", "", "stage"));
  return time_ms(pipe, x, reps);
}

/// Compile one calibrated (not trained — latency is the subject) zoo model.
template <typename Model, typename Config, typename Compile>
Int8Pipeline compiled_zoo(Config cfg, Compile&& compile, std::uint64_t seed) {
  Rng rng(seed);
  Model net(cfg, rng);
  net.set_training(true);
  for (int i = 0; i < 2; ++i) {
    net.forward(ag::Variable(Tensor::randn({8, 3, 32, 32}, rng), false));
  }
  Int8Pipeline pipe = compile(net);
  pipe.freeze_scales(Tensor::randn({8, 3, 32, 32}, rng));
  return pipe;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_engine.json";
  const int reps = static_cast<int>(bench::env_int("WINO_REPS", 30));
  bench::banner("Model-zoo deployment: grouped / strided / sparse / concat stages");

  Rng rng(42);
  const std::int64_t ch = 64, groups = 4, h = 16;
  const Tensor x = Tensor::randn({4, ch, h, h}, rng, 1.2F);

  // Grouped vs dense, both executors.
  const double gemm_dense = single_stage_ms(im2row_conv(rng, ch, ch, 1), x, reps);
  const double gemm_grouped = single_stage_ms(im2row_conv(rng, ch, ch, groups), x, reps);
  const double wino_dense = single_stage_ms(wino_conv(rng, ch, ch, 1), x, reps);
  const double wino_grouped = single_stage_ms(wino_conv(rng, ch, ch, groups), x, reps);

  // Whole-tap sparse vs dense: kill half the 16 F(2,3) taps outright.
  Tensor mask(Shape{1, 16, ch, ch});
  for (std::int64_t i = 0; i < mask.numel(); ++i) {
    mask.at(i) = (i / (ch * ch)) % 2 == 0 ? 1.F : 0.F;
  }
  const double wino_sparse = single_stage_ms(wino_conv(rng, ch, ch, 1, 1, mask), x, reps);

  // Stride-2: the polyphase Winograd lowering vs the im2row fallback, each
  // stage's cache built before push() so the bar tracks the real kernels —
  // then the prepare-time cost model's pick, which is what a compiled stage
  // actually runs. The selected path must be the faster one (>= 1.0x vs the
  // alternative) or the selection bugfix has regressed.
  ConvStage polyphase = wino_conv(rng, ch, ch, 1, 2);
  polyphase.prepare_polyphase();
  const double strided_wino = single_stage_ms(std::move(polyphase), x, reps);
  ConvStage strided_im2row = wino_conv(rng, ch, ch, 1, 2);
  strided_im2row.prepare_strided_im2row();
  const double strided_gemm = single_stage_ms(std::move(strided_im2row), x, reps);
  const bool poly_selected = backend::strided_polyphase_profitable(ch, ch);
  const char* strided_selected = poly_selected ? "polyphase" : "im2row";
  const double strided_sel_ms = poly_selected ? strided_wino : strided_gemm;
  const double strided_alt_ms = poly_selected ? strided_gemm : strided_wino;

  // Concat join (fire-module shape): stem fans out into two published
  // branches joined by a requantizing ConcatStage.
  double concat_ms = 0;
  {
    Int8Pipeline pipe;
    pipe.push(im2row_conv(rng, ch, ch, 1), make_io("", "", "s", "stem"));
    pipe.push(im2row_conv(rng, ch, ch / 2, 1), make_io("s", "", "e1", "e1"));
    pipe.push(im2row_conv(rng, ch, ch / 2, 1), make_io("s", "", "", "e3"));
    ConcatStage cat;
    cat.lhs_scale = 0.08F;
    cat.rhs_scale = 0.08F;
    cat.output_scale = 0.06F;  // requantizing join, the expensive shape
    pipe.push(std::move(cat), make_io("", "e1", "", "cat"));
    concat_ms = time_ms(pipe, x, reps);
  }

  std::printf("  %-28s %10s\n", "stage", "ms");
  std::printf("  %-28s %10.4f\n", "im2row dense", gemm_dense);
  std::printf("  %-28s %10.4f  (%.2fx vs dense)\n", "im2row grouped(4)", gemm_grouped,
              gemm_dense / gemm_grouped);
  std::printf("  %-28s %10.4f\n", "winograd dense", wino_dense);
  std::printf("  %-28s %10.4f  (%.2fx vs dense)\n", "winograd grouped(4)", wino_grouped,
              wino_dense / wino_grouped);
  std::printf("  %-28s %10.4f  (%.2fx vs dense)\n", "winograd sparse(8/16 taps)", wino_sparse,
              wino_dense / wino_sparse);
  std::printf("  %-28s %10.4f\n", "strided polyphase winograd", strided_wino);
  std::printf("  %-28s %10.4f\n", "strided im2row fallback", strided_gemm);
  std::printf("  %-28s %10s  (%.2fx vs %s)\n", "strided selected path", strided_selected,
              strided_alt_ms / strided_sel_ms, poly_selected ? "im2row" : "polyphase");
  std::printf("  %-28s %10.4f\n", "fire fan-out + concat", concat_ms);

  // End-to-end compiled zoo pipelines (calibrated, width 0.25, F2).
  bench::banner("End-to-end compiled zoo pipelines (batch 8, 32x32)");
  models::SqueezeNetConfig scfg;
  scfg.width_mult = 0.25F;
  scfg.algo = nn::ConvAlgo::kWinograd2;
  scfg.qspec = quant::QuantSpec{8};
  const Int8Pipeline squeeze = compiled_zoo<models::SqueezeNet>(
      scfg, [](models::SqueezeNet& m) { return deploy::compile_squeezenet(m); }, 7);
  models::ResNeXtConfig rcfg;
  rcfg.width_mult = 0.25F;
  rcfg.algo = nn::ConvAlgo::kWinograd2;
  rcfg.qspec = quant::QuantSpec{8};
  const Int8Pipeline resnext = compiled_zoo<models::ResNeXt20>(
      rcfg, [](models::ResNeXt20& m) { return deploy::compile_resnext(m); }, 9);

  Rng drng(11);
  const Tensor images = Tensor::randn({8, 3, 32, 32}, drng, 1.2F);
  const double squeezenet_ms = time_ms(squeeze, images, reps);
  const double resnext_ms = time_ms(resnext, images, reps);
  std::printf("  %-28s %10.4f  (%zu stages)\n", "squeezenet F2", squeezenet_ms, squeeze.size());
  std::printf("  %-28s %10.4f  (%zu stages)\n", "resnext F2", resnext_ms, resnext.size());

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\"batch\": 4, \"channels\": %lld, \"spatial\": %lld, "
      "\"im2row_dense_ms\": %.4f, \"im2row_grouped_ms\": %.4f, \"grouped_gemm_speedup\": %.2f, "
      "\"wino_dense_ms\": %.4f, \"wino_grouped_ms\": %.4f, \"grouped_wino_speedup\": %.2f, "
      "\"wino_sparse_ms\": %.4f, \"sparse_speedup\": %.2f, "
      "\"strided_wino_ms\": %.4f, \"strided_im2row_ms\": %.4f, "
      "\"strided_selected\": \"%s\", \"strided_speedup\": %.2f, "
      "\"concat_graph_ms\": %.4f, \"squeezenet_ms\": %.4f, \"resnext_ms\": %.4f}",
      static_cast<long long>(ch), static_cast<long long>(h), gemm_dense, gemm_grouped,
      gemm_dense / gemm_grouped, wino_dense, wino_grouped, wino_dense / wino_grouped, wino_sparse,
      wino_dense / wino_sparse, strided_wino, strided_gemm, strided_selected,
      strided_alt_ms / strided_sel_ms, concat_ms, squeezenet_ms, resnext_ms);
  if (bench::merge_json_section(json_path, "zoo_deploy", json)) {
    std::printf("  merged section \"zoo_deploy\" into %s\n", json_path.c_str());
  } else {
    std::printf("  WARNING: could not merge section into %s\n", json_path.c_str());
  }
  return 0;
}
