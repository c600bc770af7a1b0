// Vectorized elementwise kernels: GELU forward/backward, the AdamW
// parameter update, and the patchify/unpatchify layout transforms.
//
// AdamW runs the whole update in fp32 lanes (the oracle's double
// intermediates exist for clarity, not necessity — the moment buffers and
// weights are fp32 anyway); bias corrections arrive precomputed per step.
// The patch transforms are pure data movement: the win over the oracle is
// vector copies for wide patches and a grain hint that keeps small calls
// on the calling thread.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

using simd::kLanes;
using simd::vf;

// Copies `n` floats; vector path for full lanes, memcpy tail.
inline void copy_row(float* dst, const float* src, i64 n) {
  i64 c = 0;
  for (; c + kLanes <= n; c += kLanes) {
    simd::store(dst + c, simd::load(src + c));
  }
  if (c < n) {
    std::memcpy(dst + c, src + c, static_cast<size_t>(n - c) * sizeof(float));
  }
}

// 1 + tanh(u) and 1 - tanh(u) from e = exp(2u) on the polynomial exp:
// 2e / (e + 1) and 2 / (e + 1). Neither cancels as tanh saturates, which
// keeps GELU's negative tail and its derivative accurate. 2u is clamped to
// +-80, past which both are exact in fp32 (and e + 1 stays normal).
struct TanhParts {
  vf one_plus;
  vf one_minus;
};

inline TanhParts tanh_parts(vf u) {
  const vf lim = simd::splat(80.f);
  vf u2 = u + u;
  u2 = u2 > lim ? lim : u2;
  u2 = u2 < -lim ? -lim : u2;
  const vf e = simd::vexp(u2);
  const vf s = 2.f / (e + 1.f);
  return {e * s, s};
}

// Runs body(i, lanes) over [0, n) in kLanes-wide steps, the last step
// partial. Chunk boundaries never change an element's arithmetic (the
// partial step runs the same vector code), so results do not depend on
// the thread count.
template <class Body>
void for_each_vector(i64 n, const Body& body) {
  parallel_for(
      n,
      [&](i64 i0, i64 i1) {
        for (i64 i = i0; i < i1; i += kLanes) {
          body(i, std::min<i64>(kLanes, i1 - i));
        }
      },
      row_grain(1));
}

inline vf load_n(const float* p, i64 n) {
  return n == kLanes ? simd::load(p) : simd::load_partial(p, n);
}

inline void store_n(float* p, vf v, i64 n) {
  if (n == kLanes) {
    simd::store(p, v);
  } else {
    simd::store_partial(p, v, n);
  }
}

}  // namespace

void simd_gelu_fwd(i64 n, const float* x, float* y) {
  for_each_vector(n, [&](i64 i, i64 lanes) {
    const vf v = load_n(x + i, lanes);
    const TanhParts t = tanh_parts(kGeluC * (v + kGeluA * v * v * v));
    store_n(y + i, 0.5f * v * t.one_plus, lanes);
  });
}

void simd_gelu_bwd(i64 n, const float* dy, const float* x, float* dx) {
  for_each_vector(n, [&](i64 i, i64 lanes) {
    const vf v = load_n(x + i, lanes);
    const TanhParts t = tanh_parts(kGeluC * (v + kGeluA * v * v * v));
    const vf dudv = kGeluC * (1.f + 3.f * kGeluA * v * v);
    // 1 - tanh^2 = (1 + tanh)(1 - tanh).
    const vf dgelu = 0.5f * t.one_plus +
                     0.5f * v * (t.one_plus * t.one_minus) * dudv;
    store_n(dx + i, load_n(dy + i, lanes) * dgelu, lanes);
  });
}

void simd_adamw(i64 n, float* w, const float* g, float* m, float* v,
                const AdamWConfig& cfg) {
  const float b1 = static_cast<float>(cfg.beta1);
  const float b2 = static_cast<float>(cfg.beta2);
  const float c1 = static_cast<float>(1.0 - cfg.beta1);
  const float c2 = static_cast<float>(1.0 - cfg.beta2);
  const float inv_bc1 = static_cast<float>(1.0 / cfg.bias_c1);
  const float inv_bc2 = static_cast<float>(1.0 / cfg.bias_c2);
  const float lr = static_cast<float>(cfg.lr);
  const float decay = static_cast<float>(cfg.lr * cfg.weight_decay);
  const float eps = static_cast<float>(cfg.eps);

  const vf vb1 = simd::splat(b1), vb2 = simd::splat(b2);
  const vf vc1 = simd::splat(c1), vc2 = simd::splat(c2);
  const vf vibc1 = simd::splat(inv_bc1), vibc2 = simd::splat(inv_bc2);
  const vf vlr = simd::splat(lr), vdecay = simd::splat(decay);
  const vf veps = simd::splat(eps);

  i64 j = 0;
  for (; j + kLanes <= n; j += kLanes) {
    const vf gv = simd::load(g + j);
    const vf mv = vb1 * simd::load(m + j) + vc1 * gv;
    const vf vv = vb2 * simd::load(v + j) + vc2 * gv * gv;
    simd::store(m + j, mv);
    simd::store(v + j, vv);
    const vf mhat = mv * vibc1;
    const vf vhat = vv * vibc2;
    vf wv = simd::load(w + j);
    wv = wv - vdecay * wv;
    wv = wv - vlr * mhat / (simd::vsqrt(vhat) + veps);
    simd::store(w + j, wv);
  }
  for (; j < n; ++j) {
    m[j] = b1 * m[j] + c1 * g[j];
    v[j] = b2 * v[j] + c2 * g[j] * g[j];
    const float mhat = m[j] * inv_bc1;
    const float vhat = v[j] * inv_bc2;
    w[j] -= decay * w[j];
    w[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void simd_patchify(i64 b, i64 c, i64 h, i64 w, i64 patch, const float* images,
                   float* out) {
  const i64 gw = w / patch;
  const i64 n = (h / patch) * gw;
  const i64 pdim = patch * patch * c;
  parallel_for(
      b * n,
      [&](i64 i0, i64 i1) {
        for (i64 idx = i0; idx < i1; ++idx) {
          const i64 bi = idx / n;
          const i64 pi = idx % n;
          const i64 py = pi / gw, px = pi % gw;
          float* dst = out + idx * pdim;
          const float* base = images + (bi * c * h + py * patch) * w +
                              px * patch;
          for (i64 ci = 0; ci < c; ++ci) {
            const float* src = base + ci * h * w;
            for (i64 y = 0; y < patch; ++y) {
              copy_row(dst, src, patch);
              dst += patch;
              src += w;
            }
          }
        }
      },
      /*grain=*/std::max<i64>(i64{1}, i64{16384} / std::max<i64>(i64{1},
                                                                 pdim)));
}

void simd_unpatchify(i64 b, i64 c, i64 grid, i64 patch, const float* patches,
                     float* out) {
  const i64 n = grid * grid;
  const i64 hw = grid * patch;
  const i64 pdim = patch * patch * c;
  parallel_for(
      b * n,
      [&](i64 i0, i64 i1) {
        for (i64 idx = i0; idx < i1; ++idx) {
          const i64 bi = idx / n;
          const i64 pi = idx % n;
          const i64 py = pi / grid, px = pi % grid;
          const float* src = patches + idx * pdim;
          float* base = out + (bi * c * hw + py * patch) * hw + px * patch;
          for (i64 ci = 0; ci < c; ++ci) {
            float* dst = base + ci * hw * hw;
            for (i64 y = 0; y < patch; ++y) {
              copy_row(dst, src, patch);
              src += patch;
              dst += hw;
            }
          }
        }
      },
      /*grain=*/std::max<i64>(i64{1}, i64{16384} / std::max<i64>(i64{1},
                                                                 pdim)));
}

}  // namespace geofm::kernels::detail
