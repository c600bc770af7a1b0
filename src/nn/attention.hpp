// Multi-head self-attention (the ViT encoder flavour: fused QKV projection,
// scaled dot-product, output projection; no attention dropout — the paper's
// MAE recipe trains without it). The scaled dot-product core is one fused
// kernel (kernels::attention_fwd/bwd) that reads Q/K/V straight from the
// QKV projection's output and writes the head-concatenated context.
#pragma once

#include "nn/linear.hpp"
#include "nn/module.hpp"

namespace geofm::nn {

class MultiHeadSelfAttention : public Module {
 public:
  MultiHeadSelfAttention(std::string name, i64 dim, i64 n_heads, Rng& rng);

  /// x: [B, T, C] -> [B, T, C].
  Tensor forward(const Tensor& x);
  Tensor backward(const Tensor& dy);

  std::vector<Parameter*> parameters() override;

  i64 dim() const { return dim_; }
  i64 n_heads() const { return heads_; }

  Linear qkv;   // C -> 3C
  Linear proj;  // C -> C

 private:
  i64 dim_;
  i64 heads_;
  i64 head_dim_;
  float scale_;

  // Forward cache (one in-flight activation set): the fused QKV output and
  // each attention row's log-sum-exp, from which the backward recomputes
  // the attention weights. The context is proj's cached input.
  Tensor fused_;  // [B, T, 3C]
  Tensor lse_;    // [B*H, T]
};

}  // namespace geofm::nn
