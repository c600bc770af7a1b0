// Vectorized fused multi-head self-attention on the fused-QKV layout.
//
// Q, K and V are read in place from the [B, T, 3C] qkv projection and the
// context is written in place into [B, T, C]; the backward writes dQ/dK/dV
// in place into [B, T, 3C]. No head split/merge copy and no [B*H, T, T]
// tensor exists. Per (batch, head) slice:
//  * score rows (S = scale * Q K^T, and dP = dO V^T in the backward) are
//    vectorized over keys: K^T / V^T are packed once per slice into a
//    zero-padded [hd, Tp] panel (Tp = T rounded up to the lane count), and
//    a row is hd broadcast-FMAs per vector of keys, so every head dim runs
//    at full vector width;
//  * weighted row sums (P V, dS K, P^T dO, dS^T Q) run over the head dim
//    in the widest vector chunks that fit, four partial sums deep;
//  * the forward runs the softmax row body shared with the softmax kernel
//    and keeps only each row's log-sum-exp; the backward recomputes
//    P = exp(S - lse) one query tile at a time (FlashAttention-2,
//    arXiv 2307.08691).
//
// Determinism: every output element is written by one task, in an order
// fixed by the shape alone (query tiles ascending for dK/dV), so results
// are bitwise identical across thread counts and a slice's result does not
// depend on the batch around it.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/simd.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels::detail {
namespace {

using simd::kLanes;
using simd::vf;
using simd::vfh;

constexpr i64 kQueryBlock = 16;  // forward: query rows per task
constexpr i64 kTile = 64;        // backward: query rows per recompute tile

i64 pad_to_lanes(i64 t) { return (t + kLanes - 1) / kLanes * kLanes; }

// Tasks below ~16K multiply-adds of work run on the caller thread.
i64 task_grain(i64 macs_per_task) {
  return std::max<i64>(1, 16384 / std::max<i64>(1, macs_per_task));
}

// Per-thread scratch for packed panels and tiles, grown on demand.
float* scratch(i64 n) {
  thread_local std::vector<float> buf;
  if (static_cast<i64>(buf.size()) < n) buf.resize(static_cast<size_t>(n));
  return buf.data();
}

// dst[p*tp + j] = src[j*ld + p] for j < t; zero for t <= j < tp.
void pack_transposed(const float* src, i64 ld, i64 t, i64 hd, i64 tp,
                     float* dst) {
  for (i64 p = 0; p < hd; ++p) {
    float* row = dst + p * tp;
    for (i64 j = 0; j < t; ++j) row[j] = src[j * ld + p];
    std::fill(row + t, row + tp, 0.f);
  }
}

// out[j] = scale * sum_p x[p] * xt[p*tp + j] for all j < tp, p ascending.
void dot_row(const float* x, const float* xt, i64 hd, i64 tp, float scale,
             float* out) {
  const vf sv = simd::splat(scale);
  i64 j = 0;
  for (; j + 4 * kLanes <= tp; j += 4 * kLanes) {
    vf a0{}, a1{}, a2{}, a3{};
    for (i64 p = 0; p < hd; ++p) {
      const vf xp = simd::splat(x[p]);
      const float* r = xt + p * tp + j;
      a0 += xp * simd::load(r);
      a1 += xp * simd::load(r + kLanes);
      a2 += xp * simd::load(r + 2 * kLanes);
      a3 += xp * simd::load(r + 3 * kLanes);
    }
    simd::store(out + j, a0 * sv);
    simd::store(out + j + kLanes, a1 * sv);
    simd::store(out + j + 2 * kLanes, a2 * sv);
    simd::store(out + j + 3 * kLanes, a3 * sv);
  }
  for (; j < tp; j += kLanes) {
    vf a{};
    for (i64 p = 0; p < hd; ++p) {
      a += simd::splat(x[p]) * simd::load(xt + p * tp + j);
    }
    simd::store(out + j, a * sv);
  }
}

template <class V>
V load_v(const float* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

template <class V>
void store_v(float* p, V v) {
  std::memcpy(p, &v, sizeof(V));
}

// The columns [e, hd) that fit whole V-wide chunks of weighted_rows below;
// returns the first column left over. Four interleaved partial sums (j mod
// 4, remainder rows into the first) keep the FMA latency chain a quarter
// as long; they combine in a fixed tree.
template <class V>
i64 weighted_rows_chunks(i64 e, i64 n, const float* w, i64 ws, const float* x,
                         i64 ldx, i64 hd, float* out, bool accumulate) {
  constexpr i64 kWidth = sizeof(V) / sizeof(float);
  for (; e + kWidth <= hd; e += kWidth) {
    V a0{}, a1{}, a2{}, a3{};
    const float* xe = x + e;
    i64 j = 0;
    for (; j + 4 <= n; j += 4) {
      a0 += w[j * ws] * load_v<V>(xe + j * ldx);
      a1 += w[(j + 1) * ws] * load_v<V>(xe + (j + 1) * ldx);
      a2 += w[(j + 2) * ws] * load_v<V>(xe + (j + 2) * ldx);
      a3 += w[(j + 3) * ws] * load_v<V>(xe + (j + 3) * ldx);
    }
    for (; j < n; ++j) a0 += w[j * ws] * load_v<V>(xe + j * ldx);
    const V sum = (a0 + a1) + (a2 + a3);
    store_v(out + e, accumulate ? load_v<V>(out + e) + sum : sum);
  }
  return e;
}

// out[0:hd) (+)= sum_{j<n} w[j*ws] * x[j*ldx + 0:hd), in an order fixed by
// n alone.
void weighted_rows(i64 n, const float* w, i64 ws, const float* x, i64 ldx,
                   i64 hd, float* out, bool accumulate) {
  i64 e = weighted_rows_chunks<vf>(0, n, w, ws, x, ldx, hd, out, accumulate);
  e = weighted_rows_chunks<vfh>(e, n, w, ws, x, ldx, hd, out, accumulate);
  weighted_rows_chunks<float>(e, n, w, ws, x, ldx, hd, out, accumulate);
}

}  // namespace

void simd_attention_fwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                        const float* qkv, float* ctx, float* lse) {
  if (t <= 0) return;
  const i64 c = heads * hd, ld = 3 * c, tp = pad_to_lanes(t);
  const i64 blocks = (t + kQueryBlock - 1) / kQueryBlock;
  parallel_for(
      b * heads * blocks,
      [&](i64 task0, i64 task1) {
        float* kt = scratch((hd + 1) * tp);  // K^T panel, then one P row
        float* p = kt + hd * tp;
        i64 packed = -1;
        for (i64 task = task0; task < task1; ++task) {
          const i64 s = task / blocks;
          const i64 bi = s / heads, h = s % heads;
          const float* q = qkv + bi * t * ld + h * hd;
          if (s != packed) {
            pack_transposed(q + c, ld, t, hd, tp, kt);
            packed = s;
          }
          const i64 i0 = (task % blocks) * kQueryBlock;
          const i64 i1 = std::min(t, i0 + kQueryBlock);
          for (i64 i = i0; i < i1; ++i) {
            dot_row(q + i * ld, kt, hd, tp, scale, p);
            const simd::RowSoftmax row = simd::softmax_row(p, p, t);
            lse[s * t + i] = row.max + std::log(row.sum);
            weighted_rows(t, p, 1, q + 2 * c, ld, hd,
                          ctx + (bi * t + i) * c + h * hd, false);
          }
        }
      },
      task_grain(2 * kQueryBlock * tp * hd));
}

void simd_attention_bwd(i64 b, i64 t, i64 heads, i64 hd, float scale,
                        const float* qkv, const float* lse, const float* dctx,
                        float* dqkv) {
  if (t <= 0) return;
  const i64 c = heads * hd, ld = 3 * c, tp = pad_to_lanes(t);
  const i64 tile = std::min(t, kTile);
  parallel_for(
      b * heads,
      [&](i64 s0, i64 s1) {
        // K^T and V^T panels, then the P and dS tiles.
        float* kt = scratch(2 * (hd + tile) * tp);
        float* vt = kt + hd * tp;
        float* pt = vt + hd * tp;
        float* dst = pt + tile * tp;
        const vf sv = simd::splat(scale);
        for (i64 s = s0; s < s1; ++s) {
          const i64 bi = s / heads, h = s % heads;
          const float* q = qkv + bi * t * ld + h * hd;
          const float* k = q + c;
          const float* dout = dctx + bi * t * c + h * hd;
          float* dq = dqkv + bi * t * ld + h * hd;
          float* dk = dq + c;
          float* dv = dq + 2 * c;
          pack_transposed(k, ld, t, hd, tp, kt);
          pack_transposed(q + 2 * c, ld, t, hd, tp, vt);
          for (i64 i0 = 0; i0 < t; i0 += tile) {
            const i64 n = std::min(tile, t - i0);
            for (i64 r = 0; r < n; ++r) {
              const i64 i = i0 + r;
              float* pr = pt + r * tp;
              float* dsr = dst + r * tp;
              // P row from the saved log-sum-exp; pad keys get weight 0.
              dot_row(q + i * ld, kt, hd, tp, scale, pr);
              const vf l = simd::splat(lse[s * t + i]);
              for (i64 j = 0; j < tp; j += kLanes) {
                simd::store(pr + j, simd::vexp(simd::load(pr + j) - l));
              }
              std::fill(pr + t, pr + tp, 0.f);
              // dS = scale * P ⊙ (dP - rowsum(dP ⊙ P)), dP = dO V^T.
              dot_row(dout + i * c, vt, hd, tp, 1.f, dsr);
              vf dotv{};
              for (i64 j = 0; j < tp; j += kLanes) {
                dotv += simd::load(pr + j) * simd::load(dsr + j);
              }
              const vf d = simd::splat(simd::hsum(dotv));
              for (i64 j = 0; j < tp; j += kLanes) {
                simd::store(dsr + j, simd::load(pr + j) *
                                         (simd::load(dsr + j) - d) * sv);
              }
              weighted_rows(t, dsr, 1, k, ld, hd, dq + i * ld, false);
            }
            // dV += P_tile^T dO_tile, dK += dS_tile^T Q_tile.
            for (i64 j = 0; j < t; ++j) {
              weighted_rows(n, pt + j, tp, dout + i0 * c, c, hd, dv + j * ld,
                            i0 > 0);
              weighted_rows(n, dst + j, tp, q + i0 * ld, ld, hd, dk + j * ld,
                            i0 > 0);
            }
          }
        }
      },
      task_grain(5 * t * tp * hd));
}

}  // namespace geofm::kernels::detail
