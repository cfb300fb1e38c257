// Shape, parameter and configuration tests for the four model families.
#include <gtest/gtest.h>

#include "core/wa_conv2d.hpp"
#include "models/lenet.hpp"
#include "models/resnet.hpp"
#include "models/resnext.hpp"
#include "models/squeezenet.hpp"

namespace wa::models {
namespace {

TEST(ScaledChannels, RoundsAndClamps) {
  EXPECT_EQ(scaled_channels(64, 1.0F), 64);
  EXPECT_EQ(scaled_channels(64, 0.125F), 8);
  EXPECT_EQ(scaled_channels(3, 0.125F), 1);  // never 0
}

TEST(ResNet18, ForwardShape) {
  Rng rng(1);
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  ResNet18 net(cfg, rng);
  ag::Variable x(Tensor::randn({2, 3, 32, 32}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 10}));
}

TEST(ResNet18, ParameterCountMatchesPaperRange) {
  // Paper §5.1: width multipliers 0.125..1.0 span ~215K..11M parameters.
  Rng rng(2);
  ResNetConfig small;
  small.width_mult = 0.125F;
  ResNetConfig full;
  full.width_mult = 1.0F;
  const auto small_n = ResNet18(small, rng).parameter_count();
  const auto full_n = ResNet18(full, rng).parameter_count();
  EXPECT_GT(small_n, 120'000);
  EXPECT_LT(small_n, 400'000);
  EXPECT_GT(full_n, 9'000'000);
  EXPECT_LT(full_n, 13'000'000);
}

TEST(ResNet18, SearchableLayerNames) {
  const auto names = ResNet18::searchable_layer_names();
  EXPECT_EQ(names.size(), 16u);
  EXPECT_EQ(names.front(), "stage1.block0.conv1");
  EXPECT_EQ(names.back(), "stage4.block1.conv2");
}

TEST(ResNet18, BuilderReceivesAllSearchableLayers) {
  Rng rng(3);
  std::vector<std::string> seen;
  ConvBuilder spy = [&](const nn::Conv2dOptions& opts, const std::string& name) {
    seen.push_back(name);
    return core::make_conv(opts, rng);
  };
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  ResNet18 net(cfg, spy, rng);
  EXPECT_EQ(seen, ResNet18::searchable_layer_names());
}

TEST(ResNet18, LastStagePinnedToF2WhenWinograd) {
  Rng rng(4);
  std::map<std::string, nn::ConvAlgo> algos;
  ConvBuilder spy = [&](const nn::Conv2dOptions& opts, const std::string& name) {
    algos[name] = opts.algo;
    return core::make_conv(opts, rng);
  };
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  ResNet18 net(cfg, spy, rng);
  EXPECT_EQ(algos.at("stage1.block0.conv1"), nn::ConvAlgo::kWinograd4);
  EXPECT_EQ(algos.at("stage4.block0.conv1"), nn::ConvAlgo::kWinograd2);  // §5.1 constraint
  EXPECT_EQ(algos.at("stage4.block1.conv2"), nn::ConvAlgo::kWinograd2);
}

TEST(ResNet18, WinogradAwareVariantRuns) {
  Rng rng(5);
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = true;
  ResNet18 net(cfg, rng);
  ag::Variable x(Tensor::randn({1, 3, 32, 32}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{1, 10}));
}

TEST(ResNet18, StateDictTransfersToWinogradVariant) {
  // The Fig. 6 adaptation path: direct-conv weights seed the WA model.
  Rng rng(6);
  ResNetConfig direct;
  direct.width_mult = 0.125F;
  ResNet18 src(direct, rng);

  ResNetConfig wa = direct;
  wa.algo = nn::ConvAlgo::kWinograd4;
  wa.flex_transforms = true;
  Rng rng2(7);
  ResNet18 dst(wa, rng2);
  const auto loaded = dst.load_state_intersect(src.state_dict());
  // Everything except the Winograd transform matrices matches by name/shape.
  const auto dst_names = dst.named_parameters();
  std::size_t transforms = 0;
  for (const auto& [name, v] : dst_names) {
    if (name.ends_with("g_mat") || name.ends_with("bt_mat") || name.ends_with("at_mat")) {
      ++transforms;
    }
  }
  EXPECT_EQ(loaded + transforms, dst_names.size());
}

TEST(LeNet5, ForwardShapeOnMnistGeometry) {
  Rng rng(8);
  LeNetConfig cfg;
  LeNet5 net(cfg, rng);
  ag::Variable x(Tensor::randn({2, 1, 28, 28}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{2, 10}));
}

TEST(LeNet5, WinogradFiveByFiveVariantRuns) {
  Rng rng(9);
  LeNetConfig cfg;
  cfg.algo = nn::ConvAlgo::kWinograd2;  // F(2x2, 5x5): 6x6 tiles
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = true;
  LeNet5 net(cfg, rng);
  ag::Variable x(Tensor::randn({1, 1, 28, 28}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{1, 10}));
}

TEST(SqueezeNet, ForwardShapeAndFireCount) {
  Rng rng(10);
  SqueezeNetConfig cfg;
  cfg.width_mult = 0.25F;
  SqueezeNet net(cfg, rng);
  ag::Variable x(Tensor::randn({1, 3, 32, 32}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{1, 10}));
  EXPECT_EQ(SqueezeNet::searchable_layer_names().size(), 8u);  // paper: 8 3x3 layers
}

TEST(SqueezeNet, BuilderSeesEightExpandLayers) {
  Rng rng(11);
  int count = 0;
  ConvBuilder spy = [&](const nn::Conv2dOptions& opts, const std::string&) {
    ++count;
    EXPECT_EQ(opts.kernel, 3);
    return core::make_conv(opts, rng);
  };
  SqueezeNetConfig cfg;
  cfg.width_mult = 0.25F;
  SqueezeNet net(cfg, spy, rng);
  EXPECT_EQ(count, 8);
}

TEST(ResNeXt20, ForwardShapeAndGroupedSearchables) {
  Rng rng(12);
  ResNeXtConfig cfg;
  cfg.width_mult = 0.125F;
  int grouped = 0;
  ConvBuilder spy = [&](const nn::Conv2dOptions& opts, const std::string&) {
    if (opts.groups > 1) ++grouped;
    EXPECT_EQ(opts.groups, cfg.cardinality);
    return core::make_conv(opts, rng);
  };
  ResNeXt20 net(cfg, spy, rng);
  EXPECT_EQ(grouped, 6);  // paper: ResNeXt has 6 searchable 3x3 layers
  ag::Variable x(Tensor::randn({1, 3, 32, 32}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{1, 10}));
}

TEST(ResNeXt20, WinogradGroupedVariantRuns) {
  Rng rng(13);
  ResNeXtConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd2;
  cfg.qspec = quant::QuantSpec{8};
  cfg.flex_transforms = true;
  ResNeXt20 net(cfg, rng);
  ag::Variable x(Tensor::randn({1, 3, 32, 32}, rng), false);
  EXPECT_EQ(net.forward(x).shape(), (Shape{1, 10}));
}

TEST(ResNet18, ExtensionKnobsPropagateToBlockConvs) {
  // per_channel_weights and the per-stage overrides must reach every
  // searchable block convolution (not the im2row stem).
  Rng rng(21);
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.algo = nn::ConvAlgo::kWinograd4;
  cfg.qspec = quant::QuantSpec{8};
  cfg.per_channel_weights = true;
  cfg.qspec_m = quant::QuantSpec{16};
  int seen = 0;
  ConvBuilder builder = [&](const nn::Conv2dOptions& opts,
                            const std::string& name) -> std::shared_ptr<nn::Module> {
    EXPECT_TRUE(opts.per_channel_weights) << name;
    EXPECT_TRUE(opts.qspec_m.has_value()) << name;
    if (opts.qspec_m) {
      EXPECT_EQ(opts.qspec_m->bits, 16) << name;
    }
    ++seen;
    return core::make_conv(opts, rng);
  };
  ResNet18 net(cfg, builder, rng);
  EXPECT_EQ(seen, 16);
}

TEST(ResNet18, GradCheckpointVariantTrainsAndEvaluates) {
  Rng rng(22);
  ResNetConfig cfg;
  cfg.width_mult = 0.125F;
  cfg.grad_checkpoint = true;
  ResNet18 net(cfg, rng);
  ag::Variable x(Tensor::randn({2, 3, 32, 32}, rng), false);
  const auto has_checkpoint_node = [](const ag::Variable& out) {
    for (const ag::Node* n : ag::reverse_topo_order(out)) {
      if (n->name == "checkpoint") return true;
    }
    return false;
  };
  net.set_training(true);
  const auto train_out = net.forward(x);
  EXPECT_EQ(train_out.shape(), (Shape{2, 10}));
  EXPECT_TRUE(has_checkpoint_node(train_out));
  // Eval skips the checkpoint wrapper (blocks run inline, no recompute).
  net.set_training(false);
  EXPECT_FALSE(has_checkpoint_node(net.forward(x)));
}

TEST(LeNet5, NamedChildrenExposeDeployableStructure) {
  // The deployment compiler keys off these names; a rename must fail tests
  // here before it fails in compile_lenet.
  Rng rng(23);
  LeNetConfig cfg;
  LeNet5 net(cfg, rng);
  std::vector<std::string> names;
  for (const auto& [name, child] : net.named_children()) names.push_back(name);
  const std::vector<std::string> expect{"conv1", "pool1", "conv2", "pool2",
                                        "flatten", "fc1", "fc2", "fc3"};
  EXPECT_EQ(names, expect);
}

TEST(OverrideBuilder, AppliesPerLayerTable) {
  Rng rng(14);
  std::map<std::string, LayerOverride> table;
  table["stage1.block0.conv1"] = {nn::ConvAlgo::kWinograd4, quant::QuantSpec{8}, true};
  auto build = override_builder(table, rng);
  nn::Conv2dOptions opts;
  opts.in_channels = 4;
  opts.out_channels = 4;
  auto overridden = build(opts, "stage1.block0.conv1");
  auto untouched = build(opts, "stage1.block0.conv2");
  EXPECT_NE(std::dynamic_pointer_cast<core::WinogradAwareConv2d>(overridden), nullptr);
  EXPECT_NE(std::dynamic_pointer_cast<nn::Conv2d>(untouched), nullptr);
}

}  // namespace
}  // namespace wa::models
