// Public surface of the kernel engine: the hot raw-pointer kernels behind
// every tensor/nn/optim operation, dispatched at runtime between the
// scalar oracle and the SIMD + cache-blocked implementations
// (GEOFM_KERNELS, see dispatch.hpp).
//
// Conventions:
//  * All matrices are fp32. C outputs are row-major; GEMM transposition is
//    expressed through element strides, so one entry point serves NN/NT/TN
//    and arbitrary (lda/ldb) padded sub-views.
//  * `batch` runs equally shaped, independent GEMM slices under one
//    dispatch: one kernel.* span covers the whole batch.
//  * Every call emits a `kernel.<family>` trace span (category "kernel",
//    args flops/bytes) and bumps kernel.<family>.{calls,flops,bytes,
//    seconds} metrics.
#pragma once

#include "tensor/kernels/dispatch.hpp"
#include "util/common.hpp"

namespace geofm::kernels {

// ----- GEMM ----------------------------------------------------------------

/// For each batch slice: C[i,j] = sum_p a(i,p) * b(p,j), where
///   a(i,p) = A[batch*a_batch + i*ars + p*acs],
///   b(p,j) = B[batch*b_batch + p*brs + j*bcs],
/// and C is row-major with leading dimension ldc (c_batch between slices).
/// C is overwritten. Shapes are logical: A is [m,k], B is [k,n].
void gemm(i64 batch, i64 m, i64 k, i64 n,
          const float* a, i64 a_batch, i64 ars, i64 acs,
          const float* b, i64 b_batch, i64 brs, i64 bcs,
          float* c, i64 c_batch, i64 ldc);

/// Contiguous convenience wrappers over gemm(), physical shapes as in
/// ops::matmul (per batch slice):
///   nn: A[m,k] * B[k,n]          -> C[m,n]
///   nt: A[m,k] * B[n,k]^T        -> C[m,n]
///   tn: A[m,k]^T * B[m,n]        -> C[k,n]
void gemm_nn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);
void gemm_nt(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);
void gemm_tn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c);

// ----- row-wise normalizations ----------------------------------------------

/// y = gamma * (x - mean) / sqrt(var + eps) + beta per row; writes per-row
/// mean/rstd for the backward pass. x, y are [rows, cols] contiguous.
void layernorm_fwd(i64 rows, i64 cols, const float* x, const float* gamma,
                   const float* beta, float eps, float* y, float* mean,
                   float* rstd);

/// dx from the standard LN gradient identity; dgamma/dbeta are
/// *accumulated* (row-serial, deterministic).
void layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                   const float* gamma, const float* mean, const float* rstd,
                   float* dx, float* dgamma, float* dbeta);

/// Numerically stable row-wise softmax; x, y are [rows, cols].
void softmax_fwd(i64 rows, i64 cols, const float* x, float* y);

/// dx = y * (dy - sum(dy*y)) per row.
void softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                 float* dx);

// ----- fused multi-head self-attention ---------------------------------------

/// Scaled dot-product attention of every (batch, head) on the fused QKV
/// layout. qkv is [b, t, 3C] with C = heads * hd and the 3C axis laid out
/// [which(3)][head][hd] (torch's qkv.reshape(B,T,3,H,Dh)); ctx is [b, t, C]
/// with heads concatenated. Per head: P = softmax(scale * Q K^T),
/// ctx = P V. lse is [b*heads, t]: the log-sum-exp of each row of
/// scale * Q K^T, the only state attention_bwd needs besides qkv.
void attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                   const float* qkv, float* ctx, float* lse);

/// Backward of attention_fwd: writes dQ/dK/dV for dctx [b, t, C] into
/// dqkv [b, t, 3C] (qkv's layout, overwritten). P is recomputed from qkv
/// and lse; no [t, t] tensor is kept between the two calls.
void attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                   const float* qkv, const float* lse, const float* dctx,
                   float* dqkv);

// ----- elementwise -----------------------------------------------------------

/// GELU, tanh approximation, over n contiguous elements.
void gelu_fwd(i64 n, const float* x, float* y);

/// dx = dy * GELU'(x) over n contiguous elements.
void gelu_bwd(i64 n, const float* dy, const float* x, float* dx);

// ----- optimizer -------------------------------------------------------------

struct AdamWConfig {
  double lr = 0;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
  double weight_decay = 0;
  double bias_c1 = 1;  // 1 - beta1^t, computed once per step
  double bias_c2 = 1;  // 1 - beta2^t
};

/// One decoupled-weight-decay Adam update over n contiguous elements:
/// m/v moment update, bias-corrected step, decay applied to the pre-step
/// weights. Matches optim::AdamW semantics exactly in scalar mode.
void adamw_update(i64 n, float* w, const float* g, float* m, float* v,
                  const AdamWConfig& cfg);

// ----- image <-> patch --------------------------------------------------------

/// [B, C, H, W] -> [B, N, P*P*C], channel-major within a patch (the MAE
/// layout). h and w must be multiples of patch.
void patchify(i64 b, i64 c, i64 h, i64 w, i64 patch, const float* images,
              float* out);

/// Inverse of patchify for square g x g patch grids: [B, N, P*P*C] ->
/// [B, C, g*P, g*P].
void unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                float* out);

}  // namespace geofm::kernels
