// Internal split of the kernel engine: each public kernel in kernels.hpp
// resolves to a scalar_* (oracle) or simd_* implementation. Signatures are
// plain-pointer so this header stays free of vector types — the simd_*
// translation units are the only ones compiled with target-specific flags
// (see src/CMakeLists.txt), which keeps ODR clean.
#pragma once

#include <algorithm>

#include "tensor/kernels/kernels.hpp"
#include "util/common.hpp"

namespace geofm::kernels::detail {

void scalar_gemm(i64 batch, i64 m, i64 k, i64 n,
                 const float* a, i64 a_batch, i64 ars, i64 acs,
                 const float* b, i64 b_batch, i64 brs, i64 bcs,
                 float* c, i64 c_batch, i64 ldc);
void simd_gemm(i64 batch, i64 m, i64 k, i64 n,
               const float* a, i64 a_batch, i64 ars, i64 acs,
               const float* b, i64 b_batch, i64 brs, i64 bcs,
               float* c, i64 c_batch, i64 ldc);

void scalar_layernorm_fwd(i64 rows, i64 cols, const float* x,
                          const float* gamma, const float* beta, float eps,
                          float* y, float* mean, float* rstd);
void simd_layernorm_fwd(i64 rows, i64 cols, const float* x,
                        const float* gamma, const float* beta, float eps,
                        float* y, float* mean, float* rstd);

void scalar_layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                          const float* gamma, const float* mean,
                          const float* rstd, float* dx, float* dgamma,
                          float* dbeta);
void simd_layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                        const float* gamma, const float* mean,
                        const float* rstd, float* dx, float* dgamma,
                        float* dbeta);

void scalar_softmax_fwd(i64 rows, i64 cols, const float* x, float* y);
void simd_softmax_fwd(i64 rows, i64 cols, const float* x, float* y);

void scalar_softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                        float* dx);
void simd_softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                      float* dx);

void scalar_attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                          const float* qkv, float* ctx, float* lse);
void simd_attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                        const float* qkv, float* ctx, float* lse);

void scalar_attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                          const float* qkv, const float* lse,
                          const float* dctx, float* dqkv);
void simd_attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                        const float* qkv, const float* lse, const float* dctx,
                        float* dqkv);

void scalar_gelu_fwd(i64 n, const float* x, float* y);
void simd_gelu_fwd(i64 n, const float* x, float* y);

void scalar_gelu_bwd(i64 n, const float* dy, const float* x, float* dx);
void simd_gelu_bwd(i64 n, const float* dy, const float* x, float* dx);

void scalar_adamw(i64 n, float* w, const float* g, float* m, float* v,
                  const AdamWConfig& cfg);
void simd_adamw(i64 n, float* w, const float* g, float* m, float* v,
                const AdamWConfig& cfg);

void scalar_patchify(i64 b, i64 c, i64 h, i64 w, i64 patch,
                     const float* images, float* out);
void simd_patchify(i64 b, i64 c, i64 h, i64 w, i64 patch, const float* images,
                   float* out);

void scalar_unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                       float* out);
void simd_unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                     float* out);

/// GELU tanh-approximation constants: sqrt(2/pi) and the cubic coefficient.
inline constexpr float kGeluC = 0.7978845608028654f;
inline constexpr float kGeluA = 0.044715f;

/// Lane count baked into the simd_*.cpp translation units (they may be
/// compiled for a wider ISA than the rest of the library).
int simd_lanes_impl();

/// Row-parallel grain: chunk rows so each dispatched chunk covers at least
/// ~16K elements — small kernels take the thread pool's single-chunk
/// bypass instead of paying fan-out.
inline i64 row_grain(i64 cols) {
  return std::max<i64>(i64{1}, i64{16384} / std::max<i64>(i64{1}, cols));
}

}  // namespace geofm::kernels::detail
