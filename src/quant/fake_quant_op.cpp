#include "quant/fake_quant_op.hpp"

#include <memory>

namespace wa::quant {

namespace {

/// Shared STE backward: pass gradient where the clip mask is 1, zero it
/// where the forward pass saturated.
wa::ag::Variable make_ste_node(const wa::ag::Variable& x, std::string name, Tensor out,
                               std::shared_ptr<std::vector<std::uint8_t>> mask) {
  auto xn = x.node();
  return wa::ag::apply_op(std::move(name), {x}, std::move(out),
                          [xn, mask](wa::ag::Node& n) {
                            if (!xn->requires_grad) return;
                            Tensor g = n.grad;
                            apply_ste_mask(g, *mask);
                            xn->accum_grad(g);
                          });
}

}  // namespace

wa::ag::Variable fake_quant_ste(const wa::ag::Variable& x, RangeObserver& observer,
                                const QuantSpec& spec, bool training) {
  if (spec.is_float()) return x;
  if (training) observer.observe(x.value());

  Tensor out = x.value();
  auto mask = std::make_shared<std::vector<std::uint8_t>>();
  if (spec.is_affine()) {
    fake_quant_qparams_(out, observer.qparams(spec), spec, mask.get());
  } else {
    fake_quant_(out, observer.scale(spec), spec, mask.get());
  }
  return make_ste_node(x, "fake_quant[" + spec.to_string() + "]", std::move(out),
                       std::move(mask));
}

wa::ag::Variable fake_quant_qparams_ste(const wa::ag::Variable& x, const QParams& params,
                                        const QuantSpec& spec) {
  if (spec.is_float()) return x;
  Tensor out = x.value();
  auto mask = std::make_shared<std::vector<std::uint8_t>>();
  fake_quant_qparams_(out, params, spec, mask.get());
  const std::string tag = params.per_channel() ? "pc" : "pt";
  return make_ste_node(x, "fake_quant_qp[" + spec.to_string() + "," + tag + "]",
                       std::move(out), std::move(mask));
}

wa::ag::Variable fake_quant_weights_ste(const wa::ag::Variable& w, const QuantSpec& spec,
                                        bool per_channel) {
  if (spec.is_float()) return w;
  QuantSpec sym = spec;
  sym.scheme = QuantScheme::kSymmetric;
  const QParams params = choose_qparams(w.value(), sym, per_channel ? 0 : -1);
  Tensor out = w.value();
  auto mask = std::make_shared<std::vector<std::uint8_t>>();
  fake_quant_qparams_(out, params, sym, mask.get());
  return make_ste_node(w,
                       std::string("fake_quant_w[") + sym.to_string() +
                           (per_channel ? ",per_channel]" : "]"),
                       std::move(out), std::move(mask));
}

}  // namespace wa::quant
