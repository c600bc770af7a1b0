#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels/kernels.hpp"
#include "util/thread_pool.hpp"

// The hot kernels (GEMM, layernorm, softmax, GELU, patchify) live in
// tensor/kernels/ behind the GEOFM_KERNELS dispatch seam; this file keeps
// the Tensor-level shape handling plus the cheap ops that don't warrant a
// kernel entry.

namespace geofm::ops {
namespace {

struct Dims2 {
  i64 rows;
  i64 cols;
};

// Views an arbitrary-rank tensor as [rows, lastdim].
Dims2 as_2d(const Tensor& x) {
  GEOFM_CHECK(x.rank() >= 1);
  const i64 cols = x.dim(-1);
  return {x.numel() / cols, cols};
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  GEOFM_CHECK(a.rank() == 2 && b.rank() == 2, "matmul expects 2-D operands");
  GEOFM_CHECK(a.dim(1) == b.dim(0), "matmul inner dims: " << a.shape_str()
                                     << " x " << b.shape_str());
  Tensor c({a.dim(0), b.dim(1)});
  kernels::gemm_nn(1, a.dim(0), a.dim(1), b.dim(1), a.data(), b.data(),
                   c.data());
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  GEOFM_CHECK(a.rank() == 2 && b.rank() == 2);
  GEOFM_CHECK(a.dim(1) == b.dim(1), "matmul_nt inner dims: " << a.shape_str()
                                     << " x " << b.shape_str());
  Tensor c({a.dim(0), b.dim(0)});
  kernels::gemm_nt(1, a.dim(0), a.dim(1), b.dim(0), a.data(), b.data(),
                   c.data());
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  GEOFM_CHECK(a.rank() == 2 && b.rank() == 2);
  GEOFM_CHECK(a.dim(0) == b.dim(0), "matmul_tn outer dims: " << a.shape_str()
                                     << " x " << b.shape_str());
  Tensor c({a.dim(1), b.dim(1)});
  kernels::gemm_tn(1, a.dim(0), a.dim(1), b.dim(1), a.data(), b.data(),
                   c.data());
  return c;
}

Tensor add(const Tensor& a, const Tensor& b) {
  GEOFM_CHECK(a.shape() == b.shape(), "add shape mismatch");
  Tensor out = a.clone();
  out.add_(b);
  return out;
}

void add_bias_rows(Tensor& x, const Tensor& bias) {
  const Dims2 d = as_2d(x);
  GEOFM_CHECK(bias.numel() == d.cols, "bias size mismatch");
  float* xp = x.data();
  const float* bp = bias.data();
  parallel_for(d.rows, [&](i64 r0, i64 r1) {
    for (i64 r = r0; r < r1; ++r) {
      float* row = xp + r * d.cols;
      for (i64 c = 0; c < d.cols; ++c) row[c] += bp[c];
    }
  });
}

void accumulate_bias_grad(const Tensor& grad, Tensor& grad_bias) {
  const Dims2 d = as_2d(grad);
  GEOFM_CHECK(grad_bias.numel() == d.cols, "bias grad size mismatch");
  const float* gp = grad.data();
  float* bp = grad_bias.data();
  for (i64 r = 0; r < d.rows; ++r) {
    const float* row = gp + r * d.cols;
    for (i64 c = 0; c < d.cols; ++c) bp[c] += row[c];
  }
}

Tensor gelu(const Tensor& x) {
  Tensor y(x.shape());
  kernels::gelu_fwd(x.numel(), x.data(), y.data());
  return y;
}

Tensor gelu_backward(const Tensor& dy, const Tensor& x) {
  GEOFM_CHECK(dy.numel() == x.numel());
  Tensor dx(x.shape());
  kernels::gelu_bwd(x.numel(), dy.data(), x.data(), dx.data());
  return dx;
}

Tensor softmax_lastdim(const Tensor& x) {
  const Dims2 d = as_2d(x);
  Tensor y(x.shape());
  kernels::softmax_fwd(d.rows, d.cols, x.data(), y.data());
  return y;
}

Tensor softmax_backward_lastdim(const Tensor& dy, const Tensor& y) {
  GEOFM_CHECK(dy.shape() == y.shape());
  const Dims2 d = as_2d(y);
  Tensor dx(y.shape());
  kernels::softmax_bwd(d.rows, d.cols, dy.data(), y.data(), dx.data());
  return dx;
}

Tensor layernorm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                 float eps, LayerNormCache& cache) {
  const Dims2 d = as_2d(x);
  GEOFM_CHECK(gamma.numel() == d.cols && beta.numel() == d.cols,
              "layernorm affine size mismatch");
  Tensor y(x.shape());
  cache.mean = Tensor({d.rows});
  cache.rstd = Tensor({d.rows});
  kernels::layernorm_fwd(d.rows, d.cols, x.data(), gamma.data(), beta.data(),
                         eps, y.data(), cache.mean.data(), cache.rstd.data());
  return y;
}

Tensor layernorm_backward(const Tensor& dy, const Tensor& x,
                          const Tensor& gamma, const LayerNormCache& cache,
                          Tensor& dgamma, Tensor& dbeta) {
  const Dims2 d = as_2d(x);
  GEOFM_CHECK(dy.numel() == x.numel());
  GEOFM_CHECK(dgamma.numel() == d.cols && dbeta.numel() == d.cols);
  Tensor dx(x.shape());
  kernels::layernorm_bwd(d.rows, d.cols, dy.data(), x.data(), gamma.data(),
                         cache.mean.data(), cache.rstd.data(), dx.data(),
                         dgamma.data(), dbeta.data());
  return dx;
}

SoftmaxCrossEntropy softmax_cross_entropy(const Tensor& logits,
                                          const std::vector<i64>& labels) {
  GEOFM_CHECK(logits.rank() == 2);
  const i64 batch = logits.dim(0), classes = logits.dim(1);
  GEOFM_CHECK(static_cast<i64>(labels.size()) == batch);
  SoftmaxCrossEntropy out;
  out.probs = softmax_lastdim(logits);
  double loss = 0.0;
  const float* pp = out.probs.data();
  for (i64 r = 0; r < batch; ++r) {
    const i64 y = labels[static_cast<size_t>(r)];
    GEOFM_CHECK(y >= 0 && y < classes, "label out of range");
    loss -= std::log(std::max(pp[r * classes + y], 1e-12f));
  }
  out.loss = static_cast<float>(loss / static_cast<double>(batch));
  return out;
}

Tensor softmax_cross_entropy_backward(const SoftmaxCrossEntropy& fwd,
                                      const std::vector<i64>& labels) {
  const i64 batch = fwd.probs.dim(0), classes = fwd.probs.dim(1);
  Tensor dlogits = fwd.probs.clone();
  float* dp = dlogits.data();
  const float inv_b = 1.f / static_cast<float>(batch);
  for (i64 r = 0; r < batch; ++r) {
    dp[r * classes + labels[static_cast<size_t>(r)]] -= 1.f;
  }
  dlogits.scale_(inv_b);
  return dlogits;
}

double topk_accuracy(const Tensor& logits, const std::vector<i64>& labels,
                     int k) {
  GEOFM_CHECK(logits.rank() == 2 && k >= 1);
  const i64 batch = logits.dim(0), classes = logits.dim(1);
  GEOFM_CHECK(static_cast<i64>(labels.size()) == batch);
  const float* lp = logits.data();
  i64 hits = 0;
  for (i64 r = 0; r < batch; ++r) {
    const float* row = lp + r * classes;
    const float label_score = row[labels[static_cast<size_t>(r)]];
    // Count strictly-greater scores; the label is in the top-k iff fewer
    // than k classes beat it (ties resolved in the label's favour, which
    // is deterministic and conservative-free for distinct float logits).
    int greater = 0;
    for (i64 c = 0; c < classes; ++c) {
      if (row[c] > label_score) ++greater;
      if (greater >= k) break;
    }
    if (greater < k) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(batch);
}

float masked_mse(const Tensor& pred, const Tensor& target,
                 const std::vector<u32>& row_mask, Tensor* dpred) {
  const Dims2 d = as_2d(pred);
  GEOFM_CHECK(target.numel() == pred.numel());
  GEOFM_CHECK(static_cast<i64>(row_mask.size()) == d.rows);
  i64 active = 0;
  for (u32 m : row_mask) active += (m != 0);
  GEOFM_CHECK(active > 0, "masked_mse with empty mask");

  const float* pp = pred.data();
  const float* tp = target.data();
  double loss = 0.0;
  const double denom = static_cast<double>(active) * d.cols;
  float* dp = nullptr;
  if (dpred != nullptr) {
    *dpred = Tensor::zeros(pred.shape());
    dp = dpred->data();
  }
  for (i64 r = 0; r < d.rows; ++r) {
    if (row_mask[static_cast<size_t>(r)] == 0) continue;
    const float* pi = pp + r * d.cols;
    const float* ti = tp + r * d.cols;
    for (i64 c = 0; c < d.cols; ++c) {
      const double diff = static_cast<double>(pi[c]) - ti[c];
      loss += diff * diff;
      if (dp != nullptr) {
        dp[r * d.cols + c] = static_cast<float>(2.0 * diff / denom);
      }
    }
  }
  return static_cast<float>(loss / denom);
}

Tensor patchify(const Tensor& images, i64 patch) {
  GEOFM_CHECK(images.rank() == 4, "patchify expects [B,C,H,W]");
  const i64 b = images.dim(0), c = images.dim(1), h = images.dim(2),
            w = images.dim(3);
  GEOFM_CHECK(h % patch == 0 && w % patch == 0, "image not divisible by patch");
  const i64 n = (h / patch) * (w / patch);
  Tensor out({b, n, patch * patch * c});
  kernels::patchify(b, c, h, w, patch, images.data(), out.data());
  return out;
}

Tensor unpatchify(const Tensor& patches, i64 patch, i64 channels) {
  GEOFM_CHECK(patches.rank() == 3, "unpatchify expects [B,N,P*P*C]");
  const i64 b = patches.dim(0), n = patches.dim(1);
  GEOFM_CHECK(patches.dim(2) == patch * patch * channels);
  const i64 g = static_cast<i64>(std::llround(std::sqrt(double(n))));
  GEOFM_CHECK(g * g == n, "unpatchify expects square grid");
  const i64 hw = g * patch;
  Tensor out({b, channels, hw, hw});
  kernels::unpatchify(b, channels, g, patch, patches.data(), out.data());
  return out;
}

Tensor transpose2d(const Tensor& x) {
  GEOFM_CHECK(x.rank() == 2);
  const i64 r = x.dim(0), c = x.dim(1);
  Tensor y({c, r});
  const float* xp = x.data();
  float* yp = y.data();
  for (i64 i = 0; i < r; ++i) {
    for (i64 j = 0; j < c; ++j) yp[j * r + i] = xp[i * c + j];
  }
  return y;
}

Tensor gather_rows(const Tensor& x, const std::vector<i64>& index) {
  const Dims2 d = as_2d(x);
  Tensor out({static_cast<i64>(index.size()), d.cols});
  const float* xp = x.data();
  float* op = out.data();
  for (size_t i = 0; i < index.size(); ++i) {
    const i64 r = index[i];
    GEOFM_CHECK(r >= 0 && r < d.rows, "gather_rows index out of range");
    std::memcpy(op + static_cast<i64>(i) * d.cols, xp + r * d.cols,
                static_cast<size_t>(d.cols) * sizeof(float));
  }
  return out;
}

void scatter_rows_add(const Tensor& x, const std::vector<i64>& index,
                      Tensor& out) {
  const Dims2 dx = as_2d(x);
  const Dims2 dout = as_2d(out);
  GEOFM_CHECK(dx.cols == dout.cols, "scatter_rows_add col mismatch");
  GEOFM_CHECK(static_cast<i64>(index.size()) == dx.rows);
  const float* xp = x.data();
  float* op = out.data();
  for (size_t i = 0; i < index.size(); ++i) {
    const i64 r = index[i];
    GEOFM_CHECK(r >= 0 && r < dout.rows, "scatter_rows_add out of range");
    const float* src = xp + static_cast<i64>(i) * dx.cols;
    float* dst = op + r * dout.cols;
    for (i64 c = 0; c < dx.cols; ++c) dst[c] += src[c];
  }
}

}  // namespace geofm::ops
