// Model-zoo deployment lockdown: SqueezeNet (fire-module concat joins) and
// ResNeXt-20 (grouped bottleneck convs) must compile to pure-int8 pipelines
// that classify like their QAT eval forwards, the new stage shapes must be
// bit-exact against hand-wired compositions of the underlying int8 ops
// (concat vs concat_s8, grouped conv vs per-group dense convs, strided
// Winograd vs the polyphase kernel), and every prepared cache must keep the
// weight_transforms / weight_repacks counters flat across forwards — the
// compiled-once contract extended to the whole zoo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>

#include "backend/perf_counters.hpp"
#include "data/synthetic.hpp"
#include "deploy/pipeline.hpp"
#include "serve/artifact.hpp"
#include "train/trainer.hpp"
#include "winograd/cook_toom.hpp"

namespace wa::deploy {
namespace {

using backend::PerfSnapshot;
using backend::QTensor;
using backend::snapshot_counters;

data::Dataset zoo_set(bool train) {
  auto spec = data::cifar10_like();
  spec.train_size = 192;
  spec.test_size = 96;
  spec.noise = 0.1F;
  spec.jitter = 1.F;
  return data::generate(spec, train);
}

struct AgreementReport {
  float agreement = 0.F;
  float deployed_acc = 0.F;
  float qat_acc = 0.F;
  std::int64_t samples = 0;
};

template <typename Model>
AgreementReport compare_deployed(Model& net, const Int8Pipeline& pipe, const data::Dataset& ds) {
  net.set_training(false);
  data::DataLoader loader(ds, 16, false);
  std::int64_t agree = 0, correct = 0, qat_correct = 0, total = 0;
  for (std::int64_t bi = 0; bi < loader.batches(); ++bi) {
    const auto batch = loader.get(bi);
    const auto deployed = pipe.classify(batch.images);
    const Tensor logits = net.forward(ag::Variable(batch.images, false)).value();
    const std::int64_t classes = logits.numel() / logits.size(0);
    for (std::size_t i = 0; i < deployed.size(); ++i) {
      std::int64_t qat_pred = 0;
      for (std::int64_t c = 1; c < classes; ++c) {
        if (logits.at(static_cast<std::int64_t>(i) * classes + c) >
            logits.at(static_cast<std::int64_t>(i) * classes + qat_pred))
          qat_pred = c;
      }
      agree += deployed[i] == qat_pred;
      correct += deployed[i] == batch.labels[i];
      qat_correct += qat_pred == batch.labels[i];
      ++total;
    }
  }
  AgreementReport r;
  r.samples = total;
  r.agreement = static_cast<float>(agree) / static_cast<float>(total);
  r.deployed_acc = static_cast<float>(correct) / static_cast<float>(total);
  r.qat_acc = static_cast<float>(qat_correct) / static_cast<float>(total);
  return r;
}

template <typename Model, typename Compile>
AgreementReport train_compile_compare(Model& net, Compile&& compile, Int8Pipeline* out_pipe,
                                      int epochs) {
  const auto train_set = zoo_set(true);
  const auto val_set = zoo_set(false);
  train::TrainerOptions opts;
  opts.batch_size = 16;
  opts.epochs = epochs;
  opts.lr = 3e-3F;
  train::Trainer t(net, train_set, val_set, opts);
  t.fit();
  Int8Pipeline pipe = compile(net);
  AgreementReport r = compare_deployed(net, pipe, val_set);
  if (out_pipe != nullptr) *out_pipe = std::move(pipe);
  return r;
}

// ---- QAT -> integer-inference agreement over the zoo ------------------------

TEST(ZooDeploy, SqueezeNetCompileRejectsUncalibratedModel) {
  Rng rng(50);
  models::SqueezeNetConfig cfg;
  cfg.width_mult = 0.25F;
  cfg.qspec = quant::QuantSpec{8};
  models::SqueezeNet net(cfg, rng);  // observers never warmed
  EXPECT_THROW(compile_squeezenet(net), std::invalid_argument);
}

TEST(ZooDeploy, ResNeXtCompileRejectsUncalibratedModel) {
  Rng rng(51);
  models::ResNeXtConfig cfg;
  cfg.width_mult = 0.25F;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNeXt20 net(cfg, rng);
  EXPECT_THROW(compile_resnext(net), std::invalid_argument);
}

TEST(ZooDeploy, SqueezeNetIm2rowPipelineAgreesWithQatModel) {
  // Fire modules deploy as squeeze -> two parallel expands -> ConcatStage ->
  // integer bn+relu; the whole-graph contract is the same as ResNet-18's:
  // the int8 pipeline classifies like the QAT eval forward.
  Rng rng(52);
  models::SqueezeNetConfig cfg;
  cfg.width_mult = 0.5F;  // the 0.25 squeeze bottleneck (4ch) undertrains
  cfg.qspec = quant::QuantSpec{8};
  models::SqueezeNet net(cfg, rng);
  const AgreementReport r = train_compile_compare(
      net, [](models::SqueezeNet& m) { return compile_squeezenet(m); }, nullptr, 6);
  std::printf("[          ] squeezenet im2row agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GE(r.agreement, 0.99F);
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.05F) << "deployment lost too much accuracy";
}

TEST(ZooDeploy, SqueezeNetWinogradF2PipelineAgreesWithQatModel) {
  // Expand-3x3 convs deploy through the Winograd path with frozen Qx scales
  // (±1-level tile rounding, hence the lower bar — the Table 1 mechanism).
  Rng rng(53);
  models::SqueezeNetConfig cfg;
  cfg.width_mult = 0.5F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::SqueezeNet net(cfg, rng);
  const AgreementReport r = train_compile_compare(
      net, [](models::SqueezeNet& m) { return compile_squeezenet(m); }, nullptr, 4);
  std::printf("[          ] squeezenet F2 agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GT(r.agreement, 0.9F) << "deployed disagrees with QAT model";
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.1F);
}

TEST(ZooDeploy, ResNeXtIm2rowPipelineAgreesWithQatModel) {
  // Grouped 3x3 bottleneck convs deploy group-wise through the im2row
  // executor; residual joins and projection shortcuts follow the ResNet-18
  // pattern.
  Rng rng(54);
  models::ResNeXtConfig cfg;
  cfg.width_mult = 0.25F;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNeXt20 net(cfg, rng);
  const AgreementReport r = train_compile_compare(
      net, [](models::ResNeXt20& m) { return compile_resnext(m); }, nullptr, 4);
  std::printf("[          ] resnext im2row agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GE(r.agreement, 0.99F);
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.05F) << "deployment lost too much accuracy";
}

TEST(ZooDeploy, ResNeXtWinogradF2PipelineAgreesWithQatModel) {
  Rng rng(55);
  models::ResNeXtConfig cfg;
  cfg.width_mult = 0.25F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  models::ResNeXt20 net(cfg, rng);
  const AgreementReport r = train_compile_compare(
      net, [](models::ResNeXt20& m) { return compile_resnext(m); }, nullptr, 3);
  std::printf("[          ] resnext F2 agreement %.4f, deployed acc %.3f, qat acc %.3f\n",
              static_cast<double>(r.agreement), static_cast<double>(r.deployed_acc),
              static_cast<double>(r.qat_acc));
  EXPECT_GT(r.agreement, 0.9F) << "deployed disagrees with QAT model";
  EXPECT_GT(r.deployed_acc, r.qat_acc - 0.1F);
}

// ---- bit-exactness of the new stage shapes vs hand-wired ops ----------------

StageIO zio(std::string in, std::string in2, std::string out, std::string label) {
  StageIO o;
  o.input = std::move(in);
  o.input2 = std::move(in2);
  o.output = std::move(out);
  o.label = std::move(label);
  return o;
}

ConvStage dense_conv(Rng& rng, std::int64_t in_ch, std::int64_t out_ch, std::int64_t kernel,
                     std::int64_t pad, float in_s, float out_s) {
  ConvStage st;
  st.algo = nn::ConvAlgo::kIm2row;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = kernel;
  st.pad = pad;
  st.input_scale = in_s;
  st.output_scale = out_s;
  st.weights_q = backend::quantize_s8(Tensor::randn({out_ch, in_ch, kernel, kernel}, rng, 0.3F));
  return st;
}

TEST(ZooDeploy, ConcatStageMatchesHandWiredConcatS8) {
  // A stem fanning out into two convs joined by a ConcatStage must produce
  // exactly the bytes of running the branches through single-branch pipelines
  // and calling concat_s8 on their recovered levels — at identity scales AND
  // through genuine requantization.
  Rng rng(56);
  const float stem_out = 0.08F, e1_out = 0.11F, e3_out = 0.07F;
  // Fixed weight tensors so every pipeline below carries identical stages.
  const ConvStage stem_proto = dense_conv(rng, 3, 4, 3, 1, 0.05F, stem_out);
  const ConvStage e1_proto = dense_conv(rng, 4, 5, 1, 0, stem_out, e1_out);
  const ConvStage e3_proto = dense_conv(rng, 4, 6, 3, 1, stem_out, e3_out);

  const Tensor x = Tensor::randn({2, 3, 9, 9}, rng, 1.2F);
  for (const float cat_scale : {e3_out /* identity on lhs */, 0.09F /* both requantize */}) {
    SCOPED_TRACE("cat_scale=" + std::to_string(cat_scale));
    Int8Pipeline full;
    full.push(ConvStage(stem_proto), zio("", "", "s", "stem"));
    full.push(ConvStage(e1_proto), zio("s", "", "e1", "e1"));
    full.push(ConvStage(e3_proto), zio("s", "", "", "e3"));
    ConcatStage cat;
    cat.lhs_scale = e3_out;  // lhs = the chained e3 output
    cat.rhs_scale = e1_out;  // rhs = the published e1 slot
    cat.output_scale = cat_scale;
    full.push(std::move(cat), zio("", "e1", "", "cat"));
    const Tensor got = full.run(x);

    Int8Pipeline lhs_pipe, rhs_pipe;
    lhs_pipe.push(ConvStage(stem_proto), zio("", "", "", "stem"));
    lhs_pipe.push(ConvStage(e3_proto), zio("", "", "", "e3"));
    rhs_pipe.push(ConvStage(stem_proto), zio("", "", "", "stem"));
    rhs_pipe.push(ConvStage(e1_proto), zio("", "", "", "e1"));
    const Tensor a = lhs_pipe.run(x);
    const Tensor b = rhs_pipe.run(x);

    // Recover the exact int8 levels from the dequantized branch outputs and
    // join them with the raw kernel.
    const auto to_levels = [](const Tensor& t, float scale) {
      QTensor q;
      q.shape = t.shape();
      q.scale = scale;
      q.data.resize(static_cast<std::size_t>(t.numel()));
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        q.data[static_cast<std::size_t>(i)] =
            static_cast<std::int8_t>(std::lround(t.at(i) / scale));
      }
      return q;
    };
    const QTensor want_q =
        concat_s8(to_levels(a, e3_out), to_levels(b, e1_out), make_requant_ratio(e3_out, cat_scale),
                  make_requant_ratio(e1_out, cat_scale), cat_scale, /*relu=*/false);
    ASSERT_EQ(got.shape(), want_q.shape);
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      ASSERT_EQ(got.at(i), static_cast<float>(want_q.data[static_cast<std::size_t>(i)]) * cat_scale)
          << "element " << i;
    }
  }
}

/// Copy channel range [c0, c0+cn) of a [N, C, H, W] tensor.
Tensor slice_channels(const Tensor& t, std::int64_t c0, std::int64_t cn) {
  const std::int64_t n = t.size(0), c = t.size(1), hw = t.size(2) * t.size(3);
  Tensor out(Shape{n, cn, t.size(2), t.size(3)});
  for (std::int64_t ni = 0; ni < n; ++ni) {
    for (std::int64_t ci = 0; ci < cn; ++ci) {
      for (std::int64_t i = 0; i < hw; ++i) {
        out.at((ni * cn + ci) * hw + i) = t.at((ni * c + c0 + ci) * hw + i);
      }
    }
  }
  return out;
}

TEST(ZooDeploy, GroupedIm2rowConvMatchesPerGroupDenseConvs) {
  // A grouped conv stage must be exactly the per-group dense convs run on the
  // channel slices: same weights, same scales, bit-identical output bytes.
  Rng rng(57);
  const std::int64_t groups = 2, in_ch = 6, out_ch = 8, k = 3;
  const float in_s = 0.06F, out_s = 0.09F;
  const Tensor w_f = Tensor::randn({out_ch, in_ch / groups, k, k}, rng, 0.3F);
  const QTensor w_q = backend::quantize_s8(w_f);

  ConvStage grouped;
  grouped.algo = nn::ConvAlgo::kIm2row;
  grouped.in_channels = in_ch;
  grouped.out_channels = out_ch;
  grouped.kernel = k;
  grouped.pad = 1;
  grouped.groups = groups;
  grouped.input_scale = in_s;
  grouped.output_scale = out_s;
  grouped.weights_q = w_q;
  Int8Pipeline gp;
  gp.push(std::move(grouped), zio("", "", "", "grouped"));

  const Tensor x = Tensor::randn({2, in_ch, 10, 10}, rng, 1.1F);
  const Tensor got = gp.run(x);

  const std::int64_t kg = out_ch / groups, cg = in_ch / groups;
  std::vector<Tensor> parts;
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    ConvStage dense;
    dense.algo = nn::ConvAlgo::kIm2row;
    dense.in_channels = cg;
    dense.out_channels = kg;
    dense.kernel = k;
    dense.pad = 1;
    dense.input_scale = in_s;
    dense.output_scale = out_s;
    QTensor wq;
    wq.shape = Shape{kg, cg, k, k};
    wq.scale = w_q.scale;  // one shared weight scale, exactly as the grouped cache
    const std::size_t chunk = static_cast<std::size_t>(kg * cg * k * k);
    wq.data.assign(w_q.data.begin() + static_cast<std::ptrdiff_t>(gi) * chunk,
                   w_q.data.begin() + static_cast<std::ptrdiff_t>(gi + 1) * chunk);
    dense.weights_q = std::move(wq);
    Int8Pipeline dp;
    dp.push(std::move(dense), zio("", "", "", "dense"));
    parts.push_back(dp.run(slice_channels(x, gi * cg, cg)));
  }

  ASSERT_EQ(got.shape(), (Shape{2, out_ch, 10, 10}));
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    const Tensor want = slice_channels(got, gi * kg, kg);
    EXPECT_EQ(Tensor::max_abs_diff(want, parts[static_cast<std::size_t>(gi)]), 0.F)
        << "group " << gi << " diverged from its dense twin";
  }
}

TEST(ZooDeploy, GroupedWinogradConvMatchesPerGroupDenseConvs) {
  // Same twin-check through the Winograd executor: every internal scale is
  // pinned so the grouped cache and the per-group dense caches quantize U at
  // identical scales — the group loop must then be bit-exact.
  Rng rng(58);
  const std::int64_t groups = 2, in_ch = 6, out_ch = 4, k = 3;
  const float in_s = 0.06F, out_s = 0.09F;
  const float u_s = 0.02F, v_s = 0.05F, m_s = 0.1F;
  const Tensor w_f = Tensor::randn({out_ch, in_ch / groups, k, k}, rng, 0.3F);

  const auto wino_stage = [&](std::int64_t g_count, std::int64_t ic, std::int64_t oc,
                              Tensor weights) {
    ConvStage st;
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = ic;
    st.out_channels = oc;
    st.kernel = k;
    st.pad = 1;
    st.groups = g_count;
    st.input_scale = in_s;
    st.output_scale = out_s;
    st.weights_f = std::move(weights);
    st.transforms = wino::make_transforms(2, 3);
    st.stage_scales.weights_transformed = u_s;
    st.stage_scales.input_transformed = v_s;
    st.stage_scales.hadamard = m_s;
    st.stage_scales.output = out_s;
    return st;
  };

  Int8Pipeline gp;
  gp.push(wino_stage(groups, in_ch, out_ch, w_f), zio("", "", "", "grouped"));
  const Tensor x = Tensor::randn({2, in_ch, 12, 12}, rng, 1.1F);
  const Tensor got = gp.run(x);

  const std::int64_t kg = out_ch / groups, cg = in_ch / groups;
  for (std::int64_t gi = 0; gi < groups; ++gi) {
    Tensor wg(Shape{kg, cg, k, k});
    for (std::int64_t i = 0; i < wg.numel(); ++i) {
      wg.at(i) = w_f.at(gi * wg.numel() + i);
    }
    Int8Pipeline dp;
    dp.push(wino_stage(1, cg, kg, std::move(wg)), zio("", "", "", "dense"));
    const Tensor part = dp.run(slice_channels(x, gi * cg, cg));
    const Tensor want = slice_channels(got, gi * kg, kg);
    EXPECT_EQ(Tensor::max_abs_diff(want, part), 0.F)
        << "group " << gi << " diverged from its dense twin";
  }
}

TEST(ZooDeploy, StridedWinogradStageMatchesHandWiredKernel) {
  // A stride-2 Winograd conv stage must run the polyphase kernel the stage
  // prepared — identical bytes to calling strided_winograd_conv_s8_prepared
  // on the same quantized input with the same cache. The channel counts here
  // sit below the cost model's crossover, so the stage builds its polyphase
  // cache before push(), as a loaded .wam stage arrives — the subject is the
  // kernel agreement, not the prepare-time selection.
  Rng rng(59);
  const std::int64_t in_ch = 3, out_ch = 5;
  const float in_s = 0.05F, out_s = 0.08F;
  ConvStage st;
  st.algo = nn::ConvAlgo::kWinograd2;
  st.in_channels = in_ch;
  st.out_channels = out_ch;
  st.kernel = 3;
  st.pad = 1;
  st.stride = 2;
  st.input_scale = in_s;
  st.output_scale = out_s;
  st.weights_f = Tensor::randn({out_ch, in_ch, 3, 3}, rng, 0.3F);
  st.transforms = wino::make_transforms(2, 3);
  st.stage_scales.weights_transformed = 0.02F;
  st.stage_scales.output = out_s;
  st.bias = Tensor::randn({out_ch}, rng, 0.1F);
  const Tensor w_f = st.weights_f;
  const Tensor bias = st.bias;
  const auto scales = st.stage_scales;
  // prepare_polyphase() swaps the stage's F(2,3) set for the canonical F(2,2) one the
  // polyphase kernel requires; the hand-wired call must do the same.
  const auto tr = wino::make_transforms(2, 2);

  st.prepare_polyphase();
  Int8Pipeline pipe;
  pipe.push(std::move(st), zio("", "", "", "strided"));
  // The stage must have kept the polyphase cache, not the im2row fallback.
  const auto* pushed = std::get_if<ConvStage>(&pipe.nodes().front().op);
  ASSERT_NE(pushed, nullptr);
  ASSERT_FALSE(pushed->strided_cache.empty()) << "stride-2 Winograd fell back to im2row";
  ASSERT_TRUE(pushed->im2row_cache.empty());

  const Tensor x = Tensor::randn({2, in_ch, 11, 11}, rng, 1.3F);
  const Tensor got = pipe.run(x);

  const auto cache =
      backend::prepare_strided_winograd_weights_s8(w_f, tr, scales.weights_transformed);
  backend::ConvGeometry g;
  g.batch = 2;
  g.in_channels = in_ch;
  g.height = 11;
  g.width = 11;
  g.out_channels = out_ch;
  g.kernel = 3;
  g.pad = 1;
  g.stride = 2;
  const QTensor qx = backend::quantize_s8(x, in_s);
  const QTensor want_q = backend::strided_winograd_conv_s8_prepared(qx, cache, g, tr, scales, &bias);
  ASSERT_EQ(got.shape(), want_q.shape);
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(got.at(i),
              static_cast<float>(want_q.data[static_cast<std::size_t>(i)]) * want_q.scale)
        << "element " << i;
  }
}

TEST(ZooDeploy, StridedLoweringFollowsTheShape) {
  // A stride-2 Winograd stage lowers to polyphase exactly when it is 3x3,
  // ungrouped and the cost model favours it — a function of the stage's
  // shape alone. 287/288 straddle the model's crossover; the grouped and
  // the 5x5 stage cannot run polyphase at any size. Each lowered stage then
  // runs one forward.
  Rng rng(63);
  const auto stage = [&rng](std::int64_t kernel, std::int64_t channels, std::int64_t groups) {
    ConvStage st;
    st.algo = nn::ConvAlgo::kWinograd2;
    st.in_channels = channels;
    st.out_channels = channels;
    st.kernel = kernel;
    st.pad = kernel / 2;
    st.groups = groups;
    st.stride = 2;
    st.input_scale = 0.05F;
    st.output_scale = 0.08F;
    st.weights_f = Tensor::randn({channels, channels / groups, kernel, kernel}, rng, 0.05F);
    st.transforms = wino::make_transforms(2, kernel);
    st.stage_scales.weights_transformed = 0.02F;
    st.stage_scales.output = 0.08F;
    return st;
  };
  struct Case {
    std::int64_t kernel, channels, groups;
    bool polyphase;
  };
  for (const Case c : {Case{3, 287, 1, false}, Case{3, 288, 1, true}, Case{3, 320, 2, false},
                       Case{5, 320, 1, false}}) {
    SCOPED_TRACE("kernel " + std::to_string(c.kernel) + ", C = K = " +
                 std::to_string(c.channels) + ", groups " + std::to_string(c.groups));
    EXPECT_EQ(backend::strided_polyphase_profitable(c.channels, c.channels),
              c.channels >= 288);
    Int8Pipeline pipe;
    pipe.push(stage(c.kernel, c.channels, c.groups), zio("", "", "", "strided"));
    const auto& pushed = std::get<ConvStage>(pipe.nodes().front().op);
    EXPECT_EQ(!pushed.strided_cache.empty(), c.polyphase);
    EXPECT_EQ(!pushed.im2row_cache.empty(), !c.polyphase);
    EXPECT_TRUE(pushed.wino_cache.empty());
    EXPECT_EQ(nn::is_winograd(pushed.algo), c.polyphase);

    const Tensor y = pipe.run(Tensor::randn({1, c.channels, 8, 8}, rng));
    EXPECT_EQ(y.shape(), (Shape{1, c.channels, 4, 4}));
  }
  // Building the polyphase cache by hand is refused where it cannot run.
  for (ConvStage st : {stage(3, 8, 2), stage(5, 8, 1)}) {
    EXPECT_THROW(st.prepare_polyphase(), std::invalid_argument);
  }
}

// ---- counter-flatness: the compiled-once contract over the zoo --------------

TEST(ZooDeploy, PreparedZooStagesKeepCountersFlatAcrossForwards) {
  // Grouped, strided and concat stages pay their weight transforms/repacks
  // exactly once, at push(); forwards after that must never recompute.
  Rng rng(60);
  Int8Pipeline pipe;
  {
    ConvStage stem;
    stem.algo = nn::ConvAlgo::kWinograd2;
    stem.in_channels = 3;
    stem.out_channels = 4;
    stem.kernel = 3;
    stem.pad = 1;
    stem.stride = 2;  // 3 -> 4 channels: the cost model lowers it to strided im2row
    stem.input_scale = 0.05F;
    stem.output_scale = 0.1F;
    stem.weights_f = Tensor::randn({4, 3, 3, 3}, rng, 0.3F);
    stem.transforms = wino::make_transforms(2, 3);
    stem.stage_scales.weights_transformed = 0.02F;
    stem.stage_scales.output = 0.1F;
    pipe.push(std::move(stem), zio("", "", "s", "stem"));
    ASSERT_FALSE(std::get<ConvStage>(pipe.nodes()[0].op).im2row_cache.empty())
        << "the stem was expected to lower to strided im2row";
  }
  {
    ConvStage grouped = dense_conv(rng, 4, 6, 3, 1, 0.1F, 0.12F);
    grouped.groups = 2;
    grouped.weights_q = backend::quantize_s8(Tensor::randn({6, 2, 3, 3}, rng, 0.3F));
    pipe.push(std::move(grouped), zio("s", "", "e1", "grouped"));
  }
  pipe.push(dense_conv(rng, 4, 5, 3, 1, 0.1F, 0.12F), zio("s", "", "", "e3"));
  {
    ConcatStage cat;
    cat.lhs_scale = 0.12F;  // lhs = the chained e3 output
    cat.rhs_scale = 0.12F;  // rhs = the published grouped-conv slot
    cat.output_scale = 0.11F;
    pipe.push(std::move(cat), zio("", "e1", "", "cat"));
  }

  const Tensor x = Tensor::randn({2, 3, 12, 12}, rng, 1.2F);
  pipe.run(x);  // warm any lazy path once
  const PerfSnapshot before = snapshot_counters();
  for (int i = 0; i < 3; ++i) pipe.run(x);
  EXPECT_EQ(snapshot_counters(), before)
      << "a prepared zoo pipeline recomputed weight caches at run time";
}

TEST(ZooDeploy, CompiledZooModelsRoundTripThroughWamAndStayCached) {
  // The end-to-end serve contract for both new models: compile -> save ->
  // load -> forward is bit-exact vs the compiled pipeline, and the load pays
  // zero weight transforms/repacks (the artifact carries every cache,
  // grouped and concat stages included).
  Rng rng(61);
  const Tensor x = Tensor::randn({2, 3, 32, 32}, rng, 1.0F);

  const auto round_trip = [&x](Int8Pipeline pipe, const char* what) {
    pipe.freeze_scales(x);
    std::ostringstream os(std::ios::binary);
    serve::save_pipeline(os, pipe);
    const PerfSnapshot before = snapshot_counters();
    std::istringstream is(os.str(), std::ios::binary);
    const Int8Pipeline loaded = serve::load_pipeline(is);
    EXPECT_EQ(snapshot_counters(), before) << what << ": load must not rebuild caches";
    const Tensor want = pipe.run(x);
    const Tensor got = loaded.run(x);
    ASSERT_EQ(got.shape(), want.shape()) << what;
    EXPECT_EQ(Tensor::max_abs_diff(got, want), 0.F) << what << ": loaded pipeline diverged";
    EXPECT_EQ(snapshot_counters(), before) << what << ": forwards left the cached path";
  };

  {
    models::SqueezeNetConfig cfg;
    cfg.width_mult = 0.25F;
    cfg.algo = nn::ConvAlgo::kWinograd2;
    cfg.qspec = quant::QuantSpec{8};
    models::SqueezeNet net(cfg, rng);
    net.set_training(true);
    for (int i = 0; i < 2; ++i) {
      net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, rng), false));
    }
    round_trip(compile_squeezenet(net), "squeezenet");
  }
  {
    models::ResNeXtConfig cfg;
    cfg.width_mult = 0.25F;
    cfg.algo = nn::ConvAlgo::kWinograd2;
    cfg.qspec = quant::QuantSpec{8};
    models::ResNeXt20 net(cfg, rng);
    net.set_training(true);
    for (int i = 0; i < 2; ++i) {
      net.forward(ag::Variable(Tensor::randn({4, 3, 32, 32}, rng), false));
    }
    round_trip(compile_resnext(net), "resnext");
  }
}

}  // namespace
}  // namespace wa::deploy
