#include "autograd/ops.hpp"

#include <cmath>
#include <stdexcept>

namespace wa::ag {

Variable add(const Variable& a, const Variable& b) {
  check_same_shape(a.shape(), b.shape(), "ag::add");
  Tensor out = a.value() + b.value();
  auto an = a.node();
  auto bn = b.node();
  return apply_op("add", {a, b}, std::move(out), [an, bn](Node& n) {
    if (an->requires_grad) an->accum_grad(n.grad);
    if (bn->requires_grad) bn->accum_grad(n.grad);
  });
}

Variable sub(const Variable& a, const Variable& b) {
  check_same_shape(a.shape(), b.shape(), "ag::sub");
  Tensor out = a.value() - b.value();
  auto an = a.node();
  auto bn = b.node();
  return apply_op("sub", {a, b}, std::move(out), [an, bn](Node& n) {
    if (an->requires_grad) an->accum_grad(n.grad);
    if (bn->requires_grad) bn->accum_grad(n.grad * -1.F);
  });
}

Variable mul(const Variable& a, const Variable& b) {
  check_same_shape(a.shape(), b.shape(), "ag::mul");
  Tensor out = a.value() * b.value();
  auto an = a.node();
  auto bn = b.node();
  return apply_op("mul", {a, b}, std::move(out), [an, bn](Node& n) {
    if (an->requires_grad) an->accum_grad(n.grad * bn->value);
    if (bn->requires_grad) bn->accum_grad(n.grad * an->value);
  });
}

Variable scale(const Variable& a, float s) {
  Tensor out = a.value() * s;
  auto an = a.node();
  return apply_op("scale", {a}, std::move(out), [an, s](Node& n) {
    if (an->requires_grad) an->accum_grad(n.grad * s);
  });
}

Variable matmul(const Variable& a, const Variable& b) {
  Tensor out = wa::matmul(a.value(), b.value());
  auto an = a.node();
  auto bn = b.node();
  return apply_op("matmul", {a, b}, std::move(out), [an, bn](Node& n) {
    if (an->requires_grad) an->accum_grad(wa::matmul_nt(n.grad, bn->value));
    if (bn->requires_grad) bn->accum_grad(wa::matmul_tn(an->value, n.grad));
  });
}

Variable linear(const Variable& x, const Variable& weight, const Variable& bias) {
  if (x.shape().size() != 2 || weight.shape().size() != 2 || bias.shape().size() != 1 ||
      x.shape()[1] != weight.shape()[1] || weight.shape()[0] != bias.shape()[0]) {
    throw std::invalid_argument("ag::linear: incompatible shapes x=" + to_string(x.shape()) +
                                " w=" + to_string(weight.shape()) +
                                " b=" + to_string(bias.shape()));
  }
  const std::int64_t batch = x.shape()[0], out_f = weight.shape()[0];
  Tensor out = wa::matmul_nt(x.value(), weight.value());
  for (std::int64_t i = 0; i < batch; ++i)
    for (std::int64_t j = 0; j < out_f; ++j) out(i, j) += bias.value().at(j);

  auto xn = x.node();
  auto wn = weight.node();
  auto bn = bias.node();
  return apply_op("linear", {x, weight, bias}, std::move(out), [xn, wn, bn, batch, out_f](Node& n) {
    if (xn->requires_grad) xn->accum_grad(wa::matmul(n.grad, wn->value));
    if (wn->requires_grad) wn->accum_grad(wa::matmul_tn(n.grad, xn->value));
    if (bn->requires_grad) {
      Tensor db(Shape{out_f});
      for (std::int64_t i = 0; i < batch; ++i)
        for (std::int64_t j = 0; j < out_f; ++j) db.at(j) += n.grad(i, j);
      bn->accum_grad(db);
    }
  });
}

Variable relu(const Variable& x) {
  Tensor out = x.value();
  const std::int64_t count = out.numel();
  float* o = out.raw();
#pragma omp parallel for schedule(static) if (count >= kParallelSweepMin)
  for (std::int64_t i = 0; i < count; ++i) o[i] = o[i] > 0.F ? o[i] : 0.F;
  auto xn = x.node();
  return apply_op("relu", {x}, std::move(out), [xn](Node& n) {
    if (!xn->requires_grad) return;
    Tensor dx = n.grad;
    const float* xv = xn->value.raw();
    float* dxv = dx.raw();
    const std::int64_t len = dx.numel();
#pragma omp parallel for schedule(static) if (len >= kParallelSweepMin)
    for (std::int64_t i = 0; i < len; ++i) {
      if (xv[i] <= 0.F) dxv[i] = 0.F;
    }
    xn->accum_grad(dx);
  });
}

Variable reshape(const Variable& x, Shape shape) {
  Tensor out = x.value().reshape(shape);
  auto xn = x.node();
  return apply_op("reshape", {x}, std::move(out), [xn](Node& n) {
    if (xn->requires_grad) xn->accum_grad(n.grad.reshape(xn->value.shape()));
  });
}

Variable concat(const std::vector<Variable>& parts, std::int64_t axis) {
  if (parts.empty()) throw std::invalid_argument("ag::concat: no inputs");
  std::vector<Tensor> values;
  values.reserve(parts.size());
  for (const auto& p : parts) values.push_back(p.value());
  Tensor out = Tensor::concat(values, axis);

  std::vector<std::shared_ptr<Node>> nodes;
  nodes.reserve(parts.size());
  for (const auto& p : parts) nodes.push_back(p.node());

  return apply_op("concat", parts, std::move(out), [nodes, axis](Node& n) {
    // Split n.grad back along `axis` in the same order.
    std::int64_t outer = 1, inner = 1, total = n.value.shape()[static_cast<std::size_t>(axis)];
    for (std::int64_t d = 0; d < axis; ++d) outer *= n.value.shape()[static_cast<std::size_t>(d)];
    for (std::size_t d = static_cast<std::size_t>(axis) + 1; d < n.value.shape().size(); ++d) {
      inner *= n.value.shape()[d];
    }
    std::int64_t off = 0;
    for (const auto& pn : nodes) {
      const std::int64_t a = pn->value.shape()[static_cast<std::size_t>(axis)];
      if (pn->requires_grad) {
        Tensor g(pn->value.shape());
        for (std::int64_t o = 0; o < outer; ++o) {
          const float* src = n.grad.raw() + (o * total + off) * inner;
          std::copy(src, src + a * inner, g.raw() + o * a * inner);
        }
        pn->accum_grad(g);
      }
      off += a;
    }
  });
}

Variable sum(const Variable& x) {
  Tensor out(Shape{1});
  out.at(0) = x.value().sum();
  auto xn = x.node();
  return apply_op("sum", {x}, std::move(out), [xn](Node& n) {
    if (!xn->requires_grad) return;
    Tensor g(xn->value.shape(), n.grad.at(0));
    xn->accum_grad(g);
  });
}

Variable mean(const Variable& x) {
  const float inv = 1.F / static_cast<float>(std::max<std::int64_t>(x.numel(), 1));
  Tensor out(Shape{1});
  out.at(0) = x.value().mean();
  auto xn = x.node();
  return apply_op("mean", {x}, std::move(out), [xn, inv](Node& n) {
    if (!xn->requires_grad) return;
    Tensor g(xn->value.shape(), n.grad.at(0) * inv);
    xn->accum_grad(g);
  });
}

Variable softmax_cross_entropy(const Variable& logits, const std::vector<std::int64_t>& labels) {
  const auto& lv = logits.value();
  if (lv.dim() != 2 || static_cast<std::size_t>(lv.size(0)) != labels.size()) {
    throw std::invalid_argument("softmax_cross_entropy: logits " + to_string(lv.shape()) +
                                " vs " + std::to_string(labels.size()) + " labels");
  }
  const std::int64_t n = lv.size(0), c = lv.size(1);

  // Stable log-softmax; remember probabilities for the backward pass.
  auto probs = std::make_shared<Tensor>(Shape{n, c});
  double loss_acc = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    float row_max = lv(i, 0);
    for (std::int64_t j = 1; j < c; ++j) row_max = std::max(row_max, lv(i, j));
    double denom = 0;
    for (std::int64_t j = 0; j < c; ++j) denom += std::exp(static_cast<double>(lv(i, j) - row_max));
    const double log_denom = std::log(denom);
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    if (y < 0 || y >= c) throw std::out_of_range("softmax_cross_entropy: label out of range");
    loss_acc -= static_cast<double>(lv(i, y) - row_max) - log_denom;
    for (std::int64_t j = 0; j < c; ++j) {
      (*probs)(i, j) =
          static_cast<float>(std::exp(static_cast<double>(lv(i, j) - row_max) - log_denom));
    }
  }
  Tensor out(Shape{1});
  out.at(0) = static_cast<float>(loss_acc / static_cast<double>(n));

  auto ln = logits.node();
  auto labels_copy = labels;
  return apply_op("softmax_ce", {logits}, std::move(out),
                  [ln, probs, labels_copy, n, c](Node& node) {
                    if (!ln->requires_grad) return;
                    const float s = node.grad.at(0) / static_cast<float>(n);
                    Tensor g = *probs;
                    for (std::int64_t i = 0; i < n; ++i) {
                      g(i, labels_copy[static_cast<std::size_t>(i)]) -= 1.F;
                    }
                    g *= s;
                    ln->accum_grad(g);
                  });
}

float accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels) {
  if (logits.dim() != 2 || static_cast<std::size_t>(logits.size(0)) != labels.size()) {
    throw std::invalid_argument("accuracy: shape mismatch");
  }
  const std::int64_t n = logits.size(0), c = logits.size(1);
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    std::int64_t best = 0;
    for (std::int64_t j = 1; j < c; ++j) {
      if (logits(i, j) > logits(i, best)) best = j;
    }
    if (best == labels[static_cast<std::size_t>(i)]) ++correct;
  }
  return n > 0 ? static_cast<float>(correct) / static_cast<float>(n) : 0.F;
}

}  // namespace wa::ag
