// Portable SIMD layer for the vectorized kernels, built on GCC/Clang
// vector extensions: a fixed-width float vector type with unaligned
// load/store, broadcast, select, horizontal reductions, and a vectorized
// exp. The compiler lowers arithmetic on these types to the best ISA the
// translation unit is compiled for (the simd_*.cpp files get
// -march=native when available, see src/CMakeLists.txt) and emulates
// wider-than-hardware vectors otherwise, so this header needs no
// per-ISA intrinsics and always compiles.
//
// ONLY include this from the *_simd.cpp translation units: the lane count
// depends on the TU's target flags, so leaking these types into commonly
// compiled code would be an ODR violation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "util/common.hpp"

namespace geofm::kernels::simd {

#if defined(__AVX512F__)
inline constexpr int kLanes = 16;
#else
// 8 floats = one AVX register, or two SSE registers when the TU is built
// for baseline x86-64 — GCC emulates the wider type with no correctness
// cost.
inline constexpr int kLanes = 8;
#endif

typedef float vf __attribute__((vector_size(kLanes * sizeof(float))));
typedef std::int32_t vi __attribute__((vector_size(kLanes * sizeof(std::int32_t))));

inline vf splat(float x) { return vf{} + x; }

inline vf load(const float* p) {
  vf v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store(float* p, vf v) { std::memcpy(p, &v, sizeof(v)); }

/// Loads n < kLanes floats, zero-filling the rest.
inline vf load_partial(const float* p, i64 n) {
  vf v{};
  std::memcpy(&v, p, static_cast<size_t>(n) * sizeof(float));
  return v;
}

/// Stores the first n lanes only.
inline void store_partial(float* p, vf v, i64 n) {
  std::memcpy(p, &v, static_cast<size_t>(n) * sizeof(float));
}

// Horizontal reductions fold halves pairwise, log2(kLanes) dependent
// steps instead of kLanes: a fixed tree, so results stay deterministic.
typedef float vf8 __attribute__((vector_size(8 * sizeof(float))));
typedef float vf4 __attribute__((vector_size(4 * sizeof(float))));

template <class Op>
inline float hreduce(vf v, Op op) {
#if defined(__AVX512F__)
  const vf8 v8 = op(__builtin_shufflevector(v, v, 0, 1, 2, 3, 4, 5, 6, 7),
                    __builtin_shufflevector(v, v, 8, 9, 10, 11, 12, 13, 14,
                                            15));
#else
  const vf8 v8 = v;
#endif
  const vf4 v4 = op(__builtin_shufflevector(v8, v8, 0, 1, 2, 3),
                    __builtin_shufflevector(v8, v8, 4, 5, 6, 7));
  const vf4 v2 = op(v4, __builtin_shufflevector(v4, v4, 2, 3, 2, 3));
  const vf4 v1 = op(v2, __builtin_shufflevector(v2, v2, 1, 1, 1, 1));
  return v1[0];
}

inline float hsum(vf v) {
  return hreduce(v, [](auto a, auto b) { return a + b; });
}

inline float hmax(vf v) {
  return hreduce(v, [](auto a, auto b) { return a > b ? a : b; });
}

inline vf vmax(vf a, vf b) { return a > b ? a : b; }

/// Lane-wise sqrt; vectorizes to sqrtps under -fno-math-errno.
inline vf vsqrt(vf x) {
  vf r;
  for (int l = 0; l < kLanes; ++l) r[l] = std::sqrt(x[l]);
  return r;
}

/// Vectorized e^x for x <= ~88 (softmax inputs are <= 0 after the max
/// subtraction). Cody-Waite range reduction to r in [-ln2/2, ln2/2], a
/// degree-6 Taylor polynomial (relative error ~1.5e-7), then a 2^n scale
/// via exponent-bit arithmetic. Inputs below -87 clamp (exp underflows to
/// ~1e-38 instead of 0 — indistinguishable at fp32 softmax tolerances).
inline vf vexp(vf x) {
  const vf lo = splat(-87.0f);
  const vf hi = splat(88.0f);
  x = x < lo ? lo : x;
  x = x > hi ? hi : x;
  const vf magic = splat(12582912.0f);  // 1.5 * 2^23: round-to-nearest trick
  vf t = x * splat(1.44269504088896341f) + magic;
  const vf n = t - magic;
  vf r = x - n * splat(0.693145751953125f);    // ln2 high bits
  r = r - n * splat(1.42860677e-06f);          // ln2 low bits
  vf p = splat(1.3888889e-3f);                 // 1/720
  p = p * r + splat(8.3333333e-3f);            // 1/120
  p = p * r + splat(4.1666667e-2f);            // 1/24
  p = p * r + splat(0.16666667f);              // 1/6
  p = p * r + splat(0.5f);
  p = p * r + splat(1.0f);
  p = p * r + splat(1.0f);
  const vi ni = __builtin_convertvector(n, vi);
  const vi bits = (ni + 127) << 23;  // 2^n as float bits
  vf scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  return p * scale;
}

/// A softmax row's maximum and exp-sum: log-sum-exp = max + log(sum).
struct RowSoftmax {
  float max;
  float sum;
};

/// Numerically stable softmax of one row of `cols` >= 1 floats:
/// y = exp(x - max) / sum(exp(x - max)). y may alias x. The row body of
/// the softmax kernel, shared with the fused attention kernel.
inline RowSoftmax softmax_row(const float* x, float* y, i64 cols) {
  const i64 tail = cols % kLanes;
  const i64 main = cols - tail;

  vf mxv = splat(-std::numeric_limits<float>::infinity());
  for (i64 c = 0; c < main; c += kLanes) mxv = vmax(mxv, load(x + c));
  float mx = main > 0 ? hmax(mxv) : x[0];
  for (i64 c = main; c < cols; ++c) mx = std::max(mx, x[c]);

  const vf mxs = splat(mx);
  vf sumv{};
  for (i64 c = 0; c < main; c += kLanes) {
    const vf e = vexp(load(x + c) - mxs);
    store(y + c, e);
    sumv += e;
  }
  float sum = hsum(sumv);
  if (tail > 0) {
    vf e = vexp(load_partial(x + main, tail) - mxs);
    for (i64 l = tail; l < kLanes; ++l) e[l] = 0.f;
    store_partial(y + main, e, tail);
    sum += hsum(e);
  }

  const vf inv = splat(1.f / sum);
  for (i64 c = 0; c < main; c += kLanes) store(y + c, load(y + c) * inv);
  for (i64 c = main; c < cols; ++c) y[c] *= inv[0];
  return {mx, sum};
}

// Half-width double vectors for high-precision row statistics (layernorm
// accumulates in double like the scalar oracle).
inline constexpr int kDLanes = kLanes / 2;
typedef double vd __attribute__((vector_size(kDLanes * sizeof(double))));
typedef float vfh __attribute__((vector_size(kDLanes * sizeof(float))));

inline vfh load_half(const float* p) {
  vfh v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline vd to_double(vfh v) { return __builtin_convertvector(v, vd); }

inline double hsum(vd v) {
  double s = 0.0;
  for (int l = 0; l < kDLanes; ++l) s += v[l];
  return s;
}

}  // namespace geofm::kernels::simd
