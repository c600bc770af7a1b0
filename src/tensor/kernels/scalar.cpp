// The scalar oracle: the original hand-written kernels, moved here from
// src/tensor/ops.cpp / src/optim when the kernel engine landed. Loop
// structure and arithmetic order are preserved bit-for-bit for the
// contiguous layouts the layers use, so this side of the dispatch seam IS
// the seed implementation; generic strided fallbacks cover padded
// sub-views for the parity suite.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

// ----- GEMM cores over one batch slice, parallel-range form -----------------

// C[m,n] = A[m,k] * B[k,n], rows [r0, r1). Saxpy loop order: B streamed
// row-wise, zero-skip on A (sparse gradients are common in masked MAE).
void gemm_rows_nn(const float* a, i64 lda, const float* b, i64 ldb, float* c,
                  i64 ldc, i64 k, i64 n, i64 r0, i64 r1) {
  for (i64 i = r0; i < r1; ++i) {
    float* crow = c + i * ldc;
    std::fill_n(crow, n, 0.f);
    const float* arow = a + i * lda;
    for (i64 p = 0; p < k; ++p) {
      const float av = arow[p];
      if (av == 0.f) continue;
      const float* brow = b + p * ldb;
      for (i64 j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// C[m,n] = A[m,k] * B[n,k]^T — dot products of rows.
void gemm_rows_nt(const float* a, i64 lda, const float* b, i64 ldb, float* c,
                  i64 ldc, i64 k, i64 n, i64 r0, i64 r1) {
  for (i64 i = r0; i < r1; ++i) {
    const float* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (i64 j = 0; j < n; ++j) {
      const float* brow = b + j * ldb;
      float acc = 0.f;
      for (i64 p = 0; p < k; ++p) acc += arow[p] * brow[p];
      crow[j] = acc;
    }
  }
}

// C[k,n] = A[m,k]^T * B[m,n] — accumulate outer products row by row.
// Parallel over output rows p (columns of A).
void gemm_rows_tn(const float* a, i64 lda, const float* b, i64 ldb, float* c,
                  i64 ldc, i64 m, i64 n, i64 r0, i64 r1) {
  for (i64 p = r0; p < r1; ++p) {
    float* crow = c + p * ldc;
    std::fill_n(crow, n, 0.f);
    for (i64 i = 0; i < m; ++i) {
      const float av = a[i * lda + p];
      if (av == 0.f) continue;
      const float* brow = b + i * ldb;
      for (i64 j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// Fully generic strided fallback (dot-product order), rows [r0, r1).
void gemm_rows_generic(const float* a, i64 ars, i64 acs, const float* b,
                       i64 brs, i64 bcs, float* c, i64 ldc, i64 k, i64 n,
                       i64 r0, i64 r1) {
  for (i64 i = r0; i < r1; ++i) {
    float* crow = c + i * ldc;
    for (i64 j = 0; j < n; ++j) {
      float acc = 0.f;
      for (i64 p = 0; p < k; ++p) {
        acc += a[i * ars + p * acs] * b[p * brs + j * bcs];
      }
      crow[j] = acc;
    }
  }
}

enum class Layout { kNN, kNT, kTN, kGeneric };

Layout classify(i64 ars, i64 acs, i64 brs, i64 bcs) {
  if (acs == 1 && bcs == 1) return Layout::kNN;
  if (acs == 1 && brs == 1) return Layout::kNT;
  if (ars == 1 && bcs == 1) return Layout::kTN;
  return Layout::kGeneric;
}

// One batch slice, rows [r0, r1) of the logical [m, n] output.
void gemm_slice(Layout layout, const float* a, i64 ars, i64 acs,
                const float* b, i64 brs, i64 bcs, float* c, i64 ldc,
                i64 k, i64 n, i64 r0, i64 r1) {
  switch (layout) {
    case Layout::kNN:
      gemm_rows_nn(a, ars, b, brs, c, ldc, k, n, r0, r1);
      break;
    case Layout::kNT:
      gemm_rows_nt(a, ars, b, bcs, c, ldc, k, n, r0, r1);
      break;
    case Layout::kTN:
      // ars==1: A is physically [k, m] with row stride acs; the
      // contraction runs over physical A rows (logical k).
      gemm_rows_tn(a, acs, b, brs, c, ldc, k, n, r0, r1);
      break;
    case Layout::kGeneric:
      gemm_rows_generic(a, ars, acs, b, brs, bcs, c, ldc, k, n, r0, r1);
      break;
  }
}

}  // namespace

void scalar_gemm(i64 batch, i64 m, i64 k, i64 n,
                 const float* a, i64 a_batch, i64 ars, i64 acs,
                 const float* b, i64 b_batch, i64 brs, i64 bcs,
                 float* c, i64 c_batch, i64 ldc) {
  if (batch <= 0 || m <= 0 || n <= 0) return;
  const Layout layout = classify(ars, acs, brs, bcs);
  if (batch == 1) {
    parallel_for(m, [&](i64 r0, i64 r1) {
      gemm_slice(layout, a, ars, acs, b, brs, bcs, c, ldc, k, n, r0, r1);
    });
    return;
  }
  parallel_for(batch, [&](i64 b0, i64 b1) {
    for (i64 i = b0; i < b1; ++i) {
      gemm_slice(layout, a + i * a_batch, ars, acs, b + i * b_batch, brs, bcs,
                 c + i * c_batch, ldc, k, n, 0, m);
    }
  });
}

// ----- layernorm -------------------------------------------------------------

void scalar_layernorm_fwd(i64 rows, i64 cols, const float* x,
                          const float* gamma, const float* beta, float eps,
                          float* y, float* mean, float* rstd) {
  parallel_for(rows, [&](i64 r0, i64 r1) {
    for (i64 r = r0; r < r1; ++r) {
      const float* xi = x + r * cols;
      float* yi = y + r * cols;
      double mu = 0.0;
      for (i64 c = 0; c < cols; ++c) mu += xi[c];
      mu /= static_cast<double>(cols);
      double var = 0.0;
      for (i64 c = 0; c < cols; ++c) {
        const double diff = xi[c] - mu;
        var += diff * diff;
      }
      var /= static_cast<double>(cols);
      const float rs = static_cast<float>(1.0 / std::sqrt(var + eps));
      mean[r] = static_cast<float>(mu);
      rstd[r] = rs;
      for (i64 c = 0; c < cols; ++c) {
        yi[c] = (xi[c] - mean[r]) * rs * gamma[c] + beta[c];
      }
    }
  });
}

void scalar_layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                          const float* gamma, const float* mean,
                          const float* rstd, float* dx, float* dgamma,
                          float* dbeta) {
  // dgamma/dbeta accumulate across rows — do serially to stay deterministic.
  for (i64 r = 0; r < rows; ++r) {
    const float* dyi = dy + r * cols;
    const float* xi = x + r * cols;
    for (i64 c = 0; c < cols; ++c) {
      const float xhat = (xi[c] - mean[r]) * rstd[r];
      dgamma[c] += dyi[c] * xhat;
      dbeta[c] += dyi[c];
    }
  }

  parallel_for(rows, [&](i64 r0, i64 r1) {
    for (i64 r = r0; r < r1; ++r) {
      const float* dyi = dy + r * cols;
      const float* xi = x + r * cols;
      float* dxi = dx + r * cols;
      // Two row reductions, then the standard LN gradient identity.
      float sum_g = 0.f, sum_gx = 0.f;
      for (i64 c = 0; c < cols; ++c) {
        const float g = dyi[c] * gamma[c];
        const float xhat = (xi[c] - mean[r]) * rstd[r];
        sum_g += g;
        sum_gx += g * xhat;
      }
      const float inv_n = 1.f / static_cast<float>(cols);
      for (i64 c = 0; c < cols; ++c) {
        const float g = dyi[c] * gamma[c];
        const float xhat = (xi[c] - mean[r]) * rstd[r];
        dxi[c] = rstd[r] * (g - inv_n * sum_g - xhat * inv_n * sum_gx);
      }
    }
  });
}

// ----- softmax ---------------------------------------------------------------

void scalar_softmax_fwd(i64 rows, i64 cols, const float* x, float* y) {
  if (rows <= 0 || cols <= 0) return;
  parallel_for(rows, [&](i64 r0, i64 r1) {
    for (i64 r = r0; r < r1; ++r) {
      const float* xi = x + r * cols;
      float* yi = y + r * cols;
      float mx = xi[0];
      for (i64 c = 1; c < cols; ++c) mx = std::max(mx, xi[c]);
      float sum = 0.f;
      for (i64 c = 0; c < cols; ++c) {
        yi[c] = std::exp(xi[c] - mx);
        sum += yi[c];
      }
      const float inv = 1.f / sum;
      for (i64 c = 0; c < cols; ++c) yi[c] *= inv;
    }
  });
}

void scalar_softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                        float* dx) {
  parallel_for(rows, [&](i64 r0, i64 r1) {
    for (i64 r = r0; r < r1; ++r) {
      const float* dyi = dy + r * cols;
      const float* yi = y + r * cols;
      float* dxi = dx + r * cols;
      float dot = 0.f;
      for (i64 c = 0; c < cols; ++c) dot += dyi[c] * yi[c];
      for (i64 c = 0; c < cols; ++c) dxi[c] = yi[c] * (dyi[c] - dot);
    }
  });
}

// ----- attention -------------------------------------------------------------
//
// The seed's unfused composition per (batch, head) — bmm_nt, scale_,
// softmax, bmm, and in the backward bmm_nt/bmm_tn, softmax backward,
// scale_, bmm/bmm_tn — with each step's scalar GEMM or softmax loop
// reading Q/K/V and writing results at their fused-layout offsets instead
// of through head split/merge copies. The arithmetic is the seed's bit for
// bit. The backward recomputes P with the same softmax row rather than
// from lse, which keeps it on those bits.

namespace {

// Row i of P = softmax(scale * Q K^T) in the seed's order: the NT GEMM
// dot products, the scale pass, then the softmax row. Returns its lse.
float seed_softmax_row(const float* qi, const float* k, i64 ld, i64 t, i64 hd,
                       float scale, float* p) {
  for (i64 j = 0; j < t; ++j) {
    const float* kj = k + j * ld;
    float acc = 0.f;
    for (i64 e = 0; e < hd; ++e) acc += qi[e] * kj[e];
    p[j] = acc;
  }
  for (i64 j = 0; j < t; ++j) p[j] *= scale;
  float mx = p[0];
  for (i64 j = 1; j < t; ++j) mx = std::max(mx, p[j]);
  float sum = 0.f;
  for (i64 j = 0; j < t; ++j) {
    p[j] = std::exp(p[j] - mx);
    sum += p[j];
  }
  const float inv = 1.f / sum;
  for (i64 j = 0; j < t; ++j) p[j] *= inv;
  return mx + std::log(sum);
}

// out[0:hd) = sum_j w[j*ws] * x[j*ldx + 0:hd), j ascending, zero weights
// skipped: the NN GEMM's saxpy loop (ws = 1) and the TN GEMM's
// outer-product loop (ws = row stride of the transposed operand).
void seed_weighted_rows(i64 n, const float* w, i64 ws, const float* x, i64 ldx,
                        i64 hd, float* out) {
  std::fill_n(out, hd, 0.f);
  for (i64 j = 0; j < n; ++j) {
    const float a = w[j * ws];
    if (a == 0.f) continue;
    const float* xj = x + j * ldx;
    for (i64 e = 0; e < hd; ++e) out[e] += a * xj[e];
  }
}

}  // namespace

void scalar_attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                          const float* qkv, float* ctx, float* lse) {
  const i64 c = heads * hd, ld = 3 * c;
  parallel_for(b * heads, [&](i64 s0, i64 s1) {
    std::vector<float> p(static_cast<size_t>(t));
    for (i64 s = s0; s < s1; ++s) {
      const i64 bi = s / heads, h = s % heads;
      const float* q = qkv + bi * t * ld + h * hd;
      float* o = ctx + bi * t * c + h * hd;
      for (i64 i = 0; i < t; ++i) {
        lse[s * t + i] =
            seed_softmax_row(q + i * ld, q + c, ld, t, hd, scale, p.data());
        seed_weighted_rows(t, p.data(), 1, q + 2 * c, ld, hd, o + i * c);
      }
    }
  }, 1);
}

void scalar_attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                          const float* qkv, const float* /*lse*/,
                          const float* dctx, float* dqkv) {
  const i64 c = heads * hd, ld = 3 * c;
  parallel_for(b * heads, [&](i64 s0, i64 s1) {
    std::vector<float> p(static_cast<size_t>(t * t));
    std::vector<float> ds(p.size());
    for (i64 s = s0; s < s1; ++s) {
      const i64 bi = s / heads, h = s % heads;
      const float* q = qkv + bi * t * ld + h * hd;
      const float* k = q + c;
      const float* v = q + 2 * c;
      const float* dout = dctx + bi * t * c + h * hd;
      float* dq = dqkv + bi * t * ld + h * hd;
      float* dk = dq + c;
      float* dv = dq + 2 * c;
      for (i64 i = 0; i < t; ++i) {
        seed_softmax_row(q + i * ld, k, ld, t, hd, scale, &p[i * t]);
      }
      // dP = dctx V^T.
      for (i64 i = 0; i < t; ++i) {
        for (i64 j = 0; j < t; ++j) {
          float acc = 0.f;
          for (i64 e = 0; e < hd; ++e) acc += dout[i * c + e] * v[j * ld + e];
          ds[i * t + j] = acc;
        }
      }
      // dV = P^T dctx.
      for (i64 j = 0; j < t; ++j) {
        seed_weighted_rows(t, &p[j], t, dout, c, hd, dv + j * ld);
      }
      // dS = scale * P ⊙ (dP - rowsum(dP ⊙ P)).
      for (i64 i = 0; i < t; ++i) {
        float* dsi = &ds[i * t];
        const float* pi = &p[i * t];
        float dot = 0.f;
        for (i64 j = 0; j < t; ++j) dot += dsi[j] * pi[j];
        for (i64 j = 0; j < t; ++j) dsi[j] = pi[j] * (dsi[j] - dot);
      }
      for (float& x : ds) x *= scale;
      // dQ = dS K, dK = dS^T Q.
      for (i64 i = 0; i < t; ++i) {
        seed_weighted_rows(t, &ds[i * t], 1, k, ld, hd, dq + i * ld);
      }
      for (i64 j = 0; j < t; ++j) {
        seed_weighted_rows(t, &ds[j], t, q, ld, hd, dk + j * ld);
      }
    }
  }, 1);
}

// ----- GELU ------------------------------------------------------------------

void scalar_gelu_fwd(i64 n, const float* x, float* y) {
  parallel_for(n, [&](i64 i0, i64 i1) {
    for (i64 i = i0; i < i1; ++i) {
      const float v = x[i];
      const float t = std::tanh(kGeluC * (v + kGeluA * v * v * v));
      y[i] = 0.5f * v * (1.f + t);
    }
  });
}

void scalar_gelu_bwd(i64 n, const float* dy, const float* x, float* dx) {
  parallel_for(n, [&](i64 i0, i64 i1) {
    for (i64 i = i0; i < i1; ++i) {
      const float v = x[i];
      const float u = kGeluC * (v + kGeluA * v * v * v);
      const float t = std::tanh(u);
      const float dudv = kGeluC * (1.f + 3.f * kGeluA * v * v);
      const float dgelu = 0.5f * (1.f + t) + 0.5f * v * (1.f - t * t) * dudv;
      dx[i] = dy[i] * dgelu;
    }
  });
}

// ----- AdamW -----------------------------------------------------------------

void scalar_adamw(i64 n, float* w, const float* g, float* m, float* v,
                  const AdamWConfig& cfg) {
  for (i64 j = 0; j < n; ++j) {
    m[j] = static_cast<float>(cfg.beta1 * m[j] + (1.0 - cfg.beta1) * g[j]);
    v[j] = static_cast<float>(cfg.beta2 * v[j] +
                              (1.0 - cfg.beta2) * static_cast<double>(g[j]) *
                                  g[j]);
    const double mhat = m[j] / cfg.bias_c1;
    const double vhat = v[j] / cfg.bias_c2;
    // Decoupled weight decay, then the Adam update.
    w[j] -= static_cast<float>(cfg.lr * cfg.weight_decay * w[j]);
    w[j] -= static_cast<float>(cfg.lr * mhat / (std::sqrt(vhat) + cfg.eps));
  }
}

// ----- image <-> patch --------------------------------------------------------

void scalar_patchify(i64 b, i64 c, i64 h, i64 w, i64 patch,
                     const float* images, float* out) {
  const i64 gw = w / patch;
  const i64 n = (h / patch) * gw;
  const i64 pdim = patch * patch * c;
  parallel_for(b * n, [&](i64 i0, i64 i1) {
    for (i64 idx = i0; idx < i1; ++idx) {
      const i64 bi = idx / n;
      const i64 pi = idx % n;
      const i64 py = pi / gw, px = pi % gw;
      float* dst = out + idx * pdim;
      for (i64 ci = 0; ci < c; ++ci) {
        for (i64 y = 0; y < patch; ++y) {
          const float* src = images +
                             ((bi * c + ci) * h + py * patch + y) * w +
                             px * patch;
          std::memcpy(dst, src, static_cast<size_t>(patch) * sizeof(float));
          dst += patch;
        }
      }
    }
  });
}

void scalar_unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                       float* out) {
  const i64 n = grid * grid;
  const i64 hw = grid * patch;
  const i64 pdim = patch * patch * c;
  parallel_for(b * n, [&](i64 i0, i64 i1) {
    for (i64 idx = i0; idx < i1; ++idx) {
      const i64 bi = idx / n;
      const i64 pi = idx % n;
      const i64 py = pi / grid, px = pi % grid;
      const float* src = patches + idx * pdim;
      for (i64 ci = 0; ci < c; ++ci) {
        for (i64 y = 0; y < patch; ++y) {
          float* dst = out +
                       ((bi * c + ci) * hw + py * patch + y) * hw + px * patch;
          std::memcpy(dst, src, static_cast<size_t>(patch) * sizeof(float));
          src += patch;
        }
      }
    }
  });
}

}  // namespace geofm::kernels::detail
