#include "nn/attention.hpp"

#include <cmath>

#include "tensor/kernels/kernels.hpp"

namespace geofm::nn {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::string name, i64 dim,
                                               i64 n_heads, Rng& rng)
    : qkv(name + ".qkv", dim, 3 * dim, rng),
      proj(name + ".proj", dim, dim, rng),
      dim_(dim),
      heads_(n_heads),
      head_dim_(dim / n_heads),
      scale_(1.f / std::sqrt(static_cast<float>(dim / n_heads))) {
  GEOFM_CHECK(dim % n_heads == 0, "attention dim " << dim
                                  << " not divisible by heads " << n_heads);
}

Tensor MultiHeadSelfAttention::forward(const Tensor& x) {
  GEOFM_CHECK(x.rank() == 3 && x.dim(2) == dim_,
              "attention expects [B,T," << dim_ << "], got " << x.shape_str());
  const i64 b = x.dim(0), t = x.dim(1);
  fused_ = qkv.forward(x);  // [B,T,3C]
  lse_ = Tensor({b * heads_, t});
  Tensor ctx({b, t, dim_});
  kernels::attention_fwd(b, t, heads_, head_dim_, scale_, fused_.data(),
                         ctx.data(), lse_.data());
  return proj.forward(ctx);
}

Tensor MultiHeadSelfAttention::backward(const Tensor& dy) {
  GEOFM_CHECK(lse_.defined(), "attention backward before forward");
  const i64 b = fused_.dim(0), t = fused_.dim(1);
  Tensor dctx = proj.backward(dy);
  Tensor dfused(fused_.shape());
  kernels::attention_bwd(b, t, heads_, head_dim_, scale_, fused_.data(),
                         lse_.data(), dctx.data(), dfused.data());
  return qkv.backward(dfused);
}

std::vector<Parameter*> MultiHeadSelfAttention::parameters() {
  std::vector<Parameter*> out;
  for (Parameter* p : qkv.parameters()) out.push_back(p);
  for (Parameter* p : proj.parameters()) out.push_back(p);
  return out;
}

}  // namespace geofm::nn
