#include "backend/bn_fold.hpp"

#include <cmath>
#include <stdexcept>

namespace wa::backend {

void check_batchnorm_stats(const Tensor& gamma, const Tensor& beta, const Tensor& running_mean,
                           const Tensor& running_var, float eps, const std::string& layer) {
  for (std::int64_t k = 0; k < running_var.numel(); ++k) {
    const auto bad = [&](const std::string& why) {
      throw std::invalid_argument(layer + ": batch-norm channel " + std::to_string(k) + " " +
                                  why);
    };
    if (!std::isfinite(gamma.at(k)) || !std::isfinite(beta.at(k)) ||
        !std::isfinite(running_mean.at(k)) || !std::isfinite(running_var.at(k))) {
      bad("has a non-finite gamma, beta, running mean or running var");
    }
    if (!(running_var.at(k) + eps > 0.F)) {
      bad("has running_var + eps = " + std::to_string(running_var.at(k) + eps) +
          ", not positive");
    }
  }
}

FoldedConv fold_batchnorm(const Tensor& weights, const Tensor& bias, const Tensor& gamma,
                          const Tensor& beta, const Tensor& running_mean,
                          const Tensor& running_var, float eps, const std::string& layer) {
  if (weights.dim() != 4) throw std::invalid_argument("fold_batchnorm: weights must be 4-d");
  const std::int64_t k = weights.size(0);
  for (const Tensor* t : {&gamma, &beta, &running_mean, &running_var}) {
    if (t->numel() != k) {
      throw std::invalid_argument("fold_batchnorm: statistics must have one entry per output "
                                  "channel (" +
                                  std::to_string(k) + ")");
    }
  }
  if (!bias.empty() && bias.numel() != k) {
    throw std::invalid_argument("fold_batchnorm: bias/channel mismatch");
  }
  check_batchnorm_stats(gamma, beta, running_mean, running_var, eps, layer);

  FoldedConv out;
  out.weights = weights;
  out.bias = Tensor(Shape{k});
  const std::int64_t per_filter = weights.numel() / k;
  auto w = out.weights.data();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const float inv_std = 1.F / std::sqrt(running_var.at(kk) + eps);
    const float s = gamma.at(kk) * inv_std;
    for (std::int64_t i = 0; i < per_filter; ++i) {
      w[static_cast<std::size_t>(kk * per_filter + i)] *= s;
    }
    const float b_in = bias.empty() ? 0.F : bias.at(kk);
    out.bias.at(kk) = beta.at(kk) + s * (b_in - running_mean.at(kk));
  }
  return out;
}

}  // namespace wa::backend
