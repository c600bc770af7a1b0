// Module/Parameter machinery.
//
// geofm uses hand-written forward/backward per layer instead of a dynamic
// autograd tape: the ViT/MAE graph is static, which keeps the backward
// pass explicit (and auditable against finite differences) and lets the
// FSDP runtime interleave communication between block-level forward and
// backward calls exactly where PyTorch's FSDP hooks would fire.
//
// Contract for every layer:
//   * forward(x) caches whatever backward needs: inputs and per-row
//     statistics (layernorm mean/rstd, attention log-sum-exp); values
//     cheaper to recompute than to keep, such as attention weights, are
//     recomputed in backward.
//   * backward(dy) ACCUMULATES into parameter .grad tensors and returns
//     dL/dx. Callers zero grads at step start (Optimizer/zero_grad()).
//   * backward must be called after the matching forward; layers are not
//     reentrant (one in-flight activation set), matching the training loop.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace geofm::nn {

/// A learnable tensor plus its gradient accumulator. FSDP may re-point
/// `value`/`grad` at views into a flat per-unit buffer; layers must always
/// read weights through the Parameter, never through cached copies.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;
  bool requires_grad = true;

  i64 numel() const { return value.numel(); }

  /// Allocates grad (zeroed) matching value's shape if missing.
  void ensure_grad() {
    if (!grad.defined()) grad = Tensor::zeros(value.shape());
  }
};

/// Base class providing parameter traversal; layers register parameters
/// by overriding `parameters()`.
class Module {
 public:
  virtual ~Module() = default;

  /// All parameters owned (transitively) by this module, in a stable order.
  virtual std::vector<Parameter*> parameters() = 0;

  /// Total learnable element count.
  i64 num_params() {
    i64 n = 0;
    for (Parameter* p : parameters()) n += p->numel();
    return n;
  }

  /// Zeroes all gradients (allocating them on first use).
  void zero_grad() {
    for (Parameter* p : parameters()) {
      p->ensure_grad();
      p->grad.zero_();
    }
  }
};

/// Truncated-normal initialization (std 0.02, clipped to ±2 std), the ViT
/// reference initialization for projection weights.
void trunc_normal_(Tensor& t, Rng& rng, float stddev = 0.02f);

}  // namespace geofm::nn
