// Dispatch + instrumentation layer of the kernel engine. Each public
// kernel resolves the active mode (GEOFM_KERNELS), wraps the call in a
// `kernel.<family>` trace span, and bumps the family's
// {calls,flops,bytes,seconds} counters. Counter references are resolved
// once per family (registry lookup takes a mutex) and the span names are
// string literals, as the trace recorder requires.
//
// flops/bytes are model estimates, not measurements: GEMM counts
// 2*b*m*k*n flops and one touch of each operand; the row-wise,
// elementwise and attention kernels count transcendentals as one flop and
// assume each array is streamed once. They exist to make the spans
// self-describing (GFLOP/s at a glance) and to feed roofline-style
// summaries, so consistency matters more than exactness.
#include <algorithm>

#include "tensor/kernels/kernels.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "tensor/kernels/detail.hpp"
#include "util/thread_context.hpp"

namespace geofm::kernels {
namespace {

struct FamilyCounters {
  obs::Counter& calls;
  obs::Counter& flops;
  obs::Counter& bytes;
  obs::Counter& seconds;

  explicit FamilyCounters(const char* family) noexcept
      : calls(counter(family, "calls")),
        flops(counter(family, "flops")),
        bytes(counter(family, "bytes")),
        seconds(counter(family, "seconds")) {}

 private:
  static obs::Counter& counter(const char* family, const char* leaf) {
    return obs::MetricsRegistry::instance().counter(
        std::string("kernel.") + family + "." + leaf);
  }
};

// RAII around one kernel call: span + counters. `span_name` must be a
// literal ("kernel.gemm", ...).
class KernelScope {
 public:
  KernelScope(const char* span_name, FamilyCounters& fam, i64 flops, i64 bytes)
      : fam_(fam),
        flops_(flops),
        bytes_(bytes),
        span_(span_name, "kernel", "flops", flops, "bytes", bytes),
        start_ns_(monotonic_ns()) {}

  ~KernelScope() {
    const u64 end_ns = monotonic_ns();
    fam_.calls.add(1);
    fam_.flops.add(static_cast<double>(flops_));
    fam_.bytes.add(static_cast<double>(bytes_));
    fam_.seconds.add(static_cast<double>(end_ns - start_ns_) * 1e-9);
  }

  KernelScope(const KernelScope&) = delete;
  KernelScope& operator=(const KernelScope&) = delete;

 private:
  FamilyCounters& fam_;
  i64 flops_;
  i64 bytes_;
  obs::TraceScope span_;
  u64 start_ns_;
};

bool use_simd() { return active_mode() == Mode::kSimd; }

}  // namespace

int simd_lanes() { return detail::simd_lanes_impl(); }

void gemm(i64 batch, i64 m, i64 k, i64 n,
          const float* a, i64 a_batch, i64 ars, i64 acs,
          const float* b, i64 b_batch, i64 brs, i64 bcs,
          float* c, i64 c_batch, i64 ldc) {
  static FamilyCounters fam("gemm");
  const i64 flops = 2 * batch * m * k * n;
  const i64 bytes = 4 * batch * (m * k + k * n + m * n);
  KernelScope scope("kernel.gemm", fam, flops, bytes);
  // Tiny problems can't amortize packing: the blocked path starts paying
  // off once the per-slice work clears a few microkernel tiles.
  const bool tiny = m * k * n < 4096 || n < detail::simd_lanes_impl();
  if (use_simd() && !tiny) {
    detail::simd_gemm(batch, m, k, n, a, a_batch, ars, acs, b, b_batch, brs,
                      bcs, c, c_batch, ldc);
  } else {
    detail::scalar_gemm(batch, m, k, n, a, a_batch, ars, acs, b, b_batch, brs,
                        bcs, c, c_batch, ldc);
  }
}

void gemm_nn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c) {
  gemm(batch, m, k, n, a, m * k, k, 1, b, k * n, n, 1, c, m * n, n);
}

void gemm_nt(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c) {
  // B is stored [n, k]; b(p, j) = B[j*k + p].
  gemm(batch, m, k, n, a, m * k, k, 1, b, n * k, 1, k, c, m * n, n);
}

void gemm_tn(i64 batch, i64 m, i64 k, i64 n, const float* a, const float* b,
             float* c) {
  // C[k,n] = A^T * B with A stored [m, k]: logical rows = k, contraction
  // runs over m. a(i, p) = A[p*k + i].
  gemm(batch, k, m, n, a, m * k, 1, k, b, m * n, n, 1, c, k * n, n);
}

void layernorm_fwd(i64 rows, i64 cols, const float* x, const float* gamma,
                   const float* beta, float eps, float* y, float* mean,
                   float* rstd) {
  static FamilyCounters fam("layernorm");
  const i64 flops = 8 * rows * cols;
  const i64 bytes = 4 * (2 * rows * cols + 2 * cols + 2 * rows);
  KernelScope scope("kernel.layernorm", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_layernorm_fwd(rows, cols, x, gamma, beta, eps, y, mean, rstd);
  } else {
    detail::scalar_layernorm_fwd(rows, cols, x, gamma, beta, eps, y, mean,
                                 rstd);
  }
}

void layernorm_bwd(i64 rows, i64 cols, const float* dy, const float* x,
                   const float* gamma, const float* mean, const float* rstd,
                   float* dx, float* dgamma, float* dbeta) {
  static FamilyCounters fam("layernorm_bwd");
  const i64 flops = 14 * rows * cols;
  const i64 bytes = 4 * (4 * rows * cols + 3 * cols + 2 * rows);
  KernelScope scope("kernel.layernorm_bwd", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_layernorm_bwd(rows, cols, dy, x, gamma, mean, rstd, dx,
                               dgamma, dbeta);
  } else {
    detail::scalar_layernorm_bwd(rows, cols, dy, x, gamma, mean, rstd, dx,
                                 dgamma, dbeta);
  }
}

void softmax_fwd(i64 rows, i64 cols, const float* x, float* y) {
  static FamilyCounters fam("softmax");
  const i64 flops = 5 * rows * cols;
  const i64 bytes = 4 * 2 * rows * cols;
  KernelScope scope("kernel.softmax", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_softmax_fwd(rows, cols, x, y);
  } else {
    detail::scalar_softmax_fwd(rows, cols, x, y);
  }
}

void softmax_bwd(i64 rows, i64 cols, const float* dy, const float* y,
                 float* dx) {
  static FamilyCounters fam("softmax_bwd");
  const i64 flops = 4 * rows * cols;
  const i64 bytes = 4 * 3 * rows * cols;
  KernelScope scope("kernel.softmax_bwd", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_softmax_bwd(rows, cols, dy, y, dx);
  } else {
    detail::scalar_softmax_bwd(rows, cols, dy, y, dx);
  }
}

void attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                   const float* qkv, float* ctx, float* lse) {
  static FamilyCounters fam("attention");
  // Q K^T and P V, plus the softmax row work; qkv read, ctx + lse written.
  const i64 rows = b * heads * t;
  const i64 flops = rows * t * (4 * hd + 5);
  const i64 bytes = 4 * (4 * b * t * heads * hd + rows);
  KernelScope scope("kernel.attention", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_attention_fwd(b, t, heads, hd, scale, qkv, ctx, lse);
  } else {
    detail::scalar_attention_fwd(b, t, heads, hd, scale, qkv, ctx, lse);
  }
}

void attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                   const float* qkv, const float* lse, const float* dctx,
                   float* dqkv) {
  static FamilyCounters fam("attention_bwd");
  // Recomputed Q K^T, then dO V^T, dS K, dS^T Q and P^T dO, plus the
  // P / dS row work; qkv, lse and dctx read, dqkv written.
  const i64 rows = b * heads * t;
  const i64 flops = rows * t * (10 * hd + 8);
  const i64 bytes = 4 * (7 * b * t * heads * hd + rows);
  KernelScope scope("kernel.attention_bwd", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_attention_bwd(b, t, heads, hd, scale, qkv, lse, dctx, dqkv);
  } else {
    detail::scalar_attention_bwd(b, t, heads, hd, scale, qkv, lse, dctx,
                                 dqkv);
  }
}

void gelu_fwd(i64 n, const float* x, float* y) {
  static FamilyCounters fam("gelu");
  KernelScope scope("kernel.gelu", fam, /*flops=*/9 * n, 4 * 2 * n);
  if (use_simd()) {
    detail::simd_gelu_fwd(n, x, y);
  } else {
    detail::scalar_gelu_fwd(n, x, y);
  }
}

void gelu_bwd(i64 n, const float* dy, const float* x, float* dx) {
  static FamilyCounters fam("gelu_bwd");
  KernelScope scope("kernel.gelu_bwd", fam, /*flops=*/18 * n, 4 * 3 * n);
  if (use_simd()) {
    detail::simd_gelu_bwd(n, dy, x, dx);
  } else {
    detail::scalar_gelu_bwd(n, dy, x, dx);
  }
}

void adamw_update(i64 n, float* w, const float* g, float* m, float* v,
                  const AdamWConfig& cfg) {
  static FamilyCounters fam("adamw");
  const i64 flops = 12 * n;
  const i64 bytes = 4 * 7 * n;  // read w,g,m,v; write w,m,v
  KernelScope scope("kernel.adamw", fam, flops, bytes);
  if (use_simd()) {
    detail::simd_adamw(n, w, g, m, v, cfg);
  } else {
    detail::scalar_adamw(n, w, g, m, v, cfg);
  }
}

void patchify(i64 b, i64 c, i64 h, i64 w, i64 patch, const float* images,
              float* out) {
  static FamilyCounters fam("patchify");
  const i64 total = b * c * h * w;
  KernelScope scope("kernel.patchify", fam, /*flops=*/0, 4 * 2 * total);
  if (use_simd()) {
    detail::simd_patchify(b, c, h, w, patch, images, out);
  } else {
    detail::scalar_patchify(b, c, h, w, patch, images, out);
  }
}

void unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                float* out) {
  static FamilyCounters fam("unpatchify");
  const i64 total = b * c * grid * grid * patch * patch;
  KernelScope scope("kernel.unpatchify", fam, /*flops=*/0, 4 * 2 * total);
  if (use_simd()) {
    detail::simd_unpatchify(b, c, grid, patch, patches, out);
  } else {
    detail::scalar_unpatchify(b, c, grid, patch, patches, out);
  }
}

}  // namespace geofm::kernels
