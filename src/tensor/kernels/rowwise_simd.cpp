// Vectorized row-wise kernels: layernorm forward/backward and softmax
// forward/backward. Rows are independent (parallelized with a grain hint
// so small calls take the thread pool's single-chunk bypass); within a
// row, reductions run lane-parallel and the elementwise passes use fused
// multiply-adds.
//
// Numerics vs the scalar oracle:
//  * layernorm statistics accumulate in double (like the oracle) but
//    lane-striped, so mean/rstd agree to ~1 float ulp;
//  * softmax uses the polynomial vexp (relative error ~1.5e-7 vs libm);
//  * float row reductions (softmax dot, LN backward sums) reassociate
//    across lanes — covered by the parity suite's tolerances.
// All of it is deterministic: lane striping is fixed by the column index,
// never by thread count.
#include <algorithm>
#include <cmath>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

using simd::kDLanes;
using simd::kLanes;
using simd::vd;
using simd::vf;
using simd::vfh;

// Row mean and variance with lane-striped double accumulation.
void row_stats(const float* xi, i64 cols, double* out_mean, double* out_var) {
  vd sum0{}, sum1{};
  i64 c = 0;
  for (; c + 2 * kDLanes <= cols; c += 2 * kDLanes) {
    sum0 += simd::to_double(simd::load_half(xi + c));
    sum1 += simd::to_double(simd::load_half(xi + c + kDLanes));
  }
  double mean = simd::hsum(sum0) + simd::hsum(sum1);
  for (; c < cols; ++c) mean += xi[c];
  mean /= static_cast<double>(cols);

  const vd mu = vd{} + mean;
  vd var0{}, var1{};
  c = 0;
  for (; c + 2 * kDLanes <= cols; c += 2 * kDLanes) {
    const vd d0 = simd::to_double(simd::load_half(xi + c)) - mu;
    const vd d1 = simd::to_double(simd::load_half(xi + c + kDLanes)) - mu;
    var0 += d0 * d0;
    var1 += d1 * d1;
  }
  double var = simd::hsum(var0) + simd::hsum(var1);
  for (; c < cols; ++c) {
    const double diff = xi[c] - mean;
    var += diff * diff;
  }
  var /= static_cast<double>(cols);
  *out_mean = mean;
  *out_var = var;
}

}  // namespace

void simd_layernorm_fwd(i64 rows, i64 cols, const float* x, const float* gamma,
                        const float* beta, float eps, float* y, float* mean,
                        float* rstd) {
  parallel_for(
      rows,
      [&](i64 r0, i64 r1) {
        for (i64 r = r0; r < r1; ++r) {
          const float* xi = x + r * cols;
          float* yi = y + r * cols;
          double mu, var;
          row_stats(xi, cols, &mu, &var);
          const float rs = static_cast<float>(1.0 / std::sqrt(var + eps));
          mean[r] = static_cast<float>(mu);
          rstd[r] = rs;
          const vf mv = simd::splat(mean[r]);
          const vf rv = simd::splat(rs);
          i64 c = 0;
          for (; c + kLanes <= cols; c += kLanes) {
            const vf xv = simd::load(xi + c);
            const vf gv = simd::load(gamma + c);
            const vf bv = simd::load(beta + c);
            simd::store(yi + c, (xv - mv) * rv * gv + bv);
          }
          for (; c < cols; ++c) {
            yi[c] = (xi[c] - mean[r]) * rs * gamma[c] + beta[c];
          }
        }
      },
      row_grain(cols));
}

void simd_layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                        const float* gamma, const float* mean,
                        const float* rstd, float* dx, float* dgamma,
                        float* dbeta) {
  // dgamma/dbeta accumulate across rows: row-serial (deterministic, same
  // row order as the oracle), lane-parallel across columns.
  for (i64 r = 0; r < rows; ++r) {
    const float* dyi = dy + r * cols;
    const float* xi = x + r * cols;
    const vf mv = simd::splat(mean[r]);
    const vf rv = simd::splat(rstd[r]);
    i64 c = 0;
    for (; c + kLanes <= cols; c += kLanes) {
      const vf dyv = simd::load(dyi + c);
      const vf xhat = (simd::load(xi + c) - mv) * rv;
      simd::store(dgamma + c, simd::load(dgamma + c) + dyv * xhat);
      simd::store(dbeta + c, simd::load(dbeta + c) + dyv);
    }
    for (; c < cols; ++c) {
      const float xhat = (xi[c] - mean[r]) * rstd[r];
      dgamma[c] += dyi[c] * xhat;
      dbeta[c] += dyi[c];
    }
  }

  parallel_for(
      rows,
      [&](i64 r0, i64 r1) {
        for (i64 r = r0; r < r1; ++r) {
          const float* dyi = dy + r * cols;
          const float* xi = x + r * cols;
          float* dxi = dx + r * cols;
          const vf mv = simd::splat(mean[r]);
          const vf rv = simd::splat(rstd[r]);
          vf sum_gv{}, sum_gxv{};
          i64 c = 0;
          for (; c + kLanes <= cols; c += kLanes) {
            const vf g = simd::load(dyi + c) * simd::load(gamma + c);
            const vf xhat = (simd::load(xi + c) - mv) * rv;
            sum_gv += g;
            sum_gxv += g * xhat;
          }
          float sum_g = simd::hsum(sum_gv), sum_gx = simd::hsum(sum_gxv);
          for (; c < cols; ++c) {
            const float g = dyi[c] * gamma[c];
            const float xhat = (xi[c] - mean[r]) * rstd[r];
            sum_g += g;
            sum_gx += g * xhat;
          }
          const float inv_n = 1.f / static_cast<float>(cols);
          const vf t1 = simd::splat(inv_n * sum_g);
          const vf t2 = simd::splat(inv_n * sum_gx);
          c = 0;
          for (; c + kLanes <= cols; c += kLanes) {
            const vf g = simd::load(dyi + c) * simd::load(gamma + c);
            const vf xhat = (simd::load(xi + c) - mv) * rv;
            simd::store(dxi + c, rv * (g - t1 - xhat * t2));
          }
          for (; c < cols; ++c) {
            const float g = dyi[c] * gamma[c];
            const float xhat = (xi[c] - mean[r]) * rstd[r];
            dxi[c] = rstd[r] * (g - inv_n * sum_g - xhat * inv_n * sum_gx);
          }
        }
      },
      row_grain(cols));
}

void simd_softmax_fwd(i64 rows, i64 cols, const float* x, float* y) {
  if (rows <= 0 || cols <= 0) return;
  parallel_for(
      rows,
      [&](i64 r0, i64 r1) {
        for (i64 r = r0; r < r1; ++r) {
          simd::softmax_row(x + r * cols, y + r * cols, cols);
        }
      },
      row_grain(cols));
}

void simd_softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                      float* dx) {
  const i64 tail = cols % kLanes;
  const i64 main = cols - tail;
  parallel_for(
      rows,
      [&](i64 r0, i64 r1) {
        for (i64 r = r0; r < r1; ++r) {
          const float* dyi = dy + r * cols;
          const float* yi = y + r * cols;
          float* dxi = dx + r * cols;
          vf dotv{};
          for (i64 c = 0; c < main; c += kLanes) {
            dotv += simd::load(dyi + c) * simd::load(yi + c);
          }
          float dot = simd::hsum(dotv);
          for (i64 c = main; c < cols; ++c) dot += dyi[c] * yi[c];
          const vf dots = simd::splat(dot);
          for (i64 c = 0; c < main; c += kLanes) {
            simd::store(dxi + c,
                        simd::load(yi + c) * (simd::load(dyi + c) - dots));
          }
          for (i64 c = main; c < cols; ++c) {
            dxi[c] = yi[c] * (dyi[c] - dot);
          }
        }
      },
      row_grain(cols));
}

}  // namespace geofm::kernels::detail
