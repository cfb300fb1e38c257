// Batch-norm folding for deployment.
//
// Every convolution in the evaluated networks is followed by a batch-norm
// (the layers carry no bias for that reason). At deployment the affine
// normalization folds into the convolution weights:
//
//   y = gamma * (conv(x, W) - mean) / sqrt(var + eps) + beta
//     = conv(x, W') + b',   W'_k = W_k * gamma_k / sqrt(var_k + eps)
//                           b'_k = beta_k - gamma_k * mean_k / sqrt(var_k + eps)
//
// Folding happens before weight quantization, so the quantizer sees the
// effective deployed weights — the standard order in integer-only inference
// pipelines (Jacob et al. 2018 §3.2).
#pragma once

#include <string>

#include "tensor/tensor.hpp"

namespace wa::backend {

struct FoldedConv {
  Tensor weights;  // [K, C, r, r], scaled per output channel
  Tensor bias;     // [K]
};

/// Throws std::invalid_argument naming `layer` unless every gamma, beta,
/// running mean and running variance entry is finite and every
/// running_var + eps is positive. Both deployed forms of a batch-norm (the
/// fold below and the integer affine) take 1/sqrt(var + eps), which is
/// otherwise NaN or infinite. The statistics must have equal lengths.
void check_batchnorm_stats(const Tensor& gamma, const Tensor& beta, const Tensor& running_mean,
                           const Tensor& running_var, float eps, const std::string& layer);

/// Fold batch-norm statistics into convolution weights. `bias` may be empty
/// (the usual conv-without-bias case); gamma/beta/mean/var are all [K].
/// Throws std::invalid_argument on shape mismatches and, naming `layer`, on
/// statistics check_batchnorm_stats rejects.
FoldedConv fold_batchnorm(const Tensor& weights, const Tensor& bias, const Tensor& gamma,
                          const Tensor& beta, const Tensor& running_mean,
                          const Tensor& running_var, float eps = 1e-5F,
                          const std::string& layer = "fold_batchnorm");

}  // namespace wa::backend
