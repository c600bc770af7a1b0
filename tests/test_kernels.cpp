// Parity suite for the kernel engine (tensor/kernels/): the SIMD
// implementations must agree with the scalar oracle across shapes that
// straddle the vector width — odd/tail rows and columns, empty and size-1
// edges, strided sub-views, batched calls — and the dispatch seam must
// honor GEOFM_KERNELS / set_mode().
//
// GEMM cases call the detail:: implementations directly where noted, so
// shapes small enough for the dispatcher's scalar routing still exercise
// the packed SIMD path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/kernels/detail.hpp"
#include "tensor/kernels/dispatch.hpp"
#include "tensor/kernels/kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace geofm::kernels {
namespace {

std::vector<float> randv(i64 n, Rng& rng, float stddev = 1.f) {
  std::vector<float> out(static_cast<size_t>(n));
  for (float& v : out) v = static_cast<float>(rng.normal(0.0, stddev));
  return out;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  float rtol, float atol, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    const float tol = atol + rtol * std::abs(b[i]);
    ASSERT_NEAR(a[i], b[i], tol) << what << " at index " << i;
  }
}

// Shape sweep that straddles the compiled lane count (and both common lane
// counts, so the sweep is meaningful regardless of the build machine).
std::vector<i64> tail_sizes() {
  const i64 lanes = simd_lanes();
  std::vector<i64> s = {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 100};
  for (i64 v : {lanes - 1, lanes, lanes + 1, 2 * lanes + 1}) {
    if (v >= 1) s.push_back(v);
  }
  return s;
}

// ----- GEMM ------------------------------------------------------------------

// Runs both implementations on identical inputs, contiguous NN layout.
void check_gemm_nn(i64 m, i64 k, i64 n) {
  Rng rng(static_cast<u64>(m * 1000003 + k * 1009 + n));
  const auto a = randv(m * k, rng);
  const auto b = randv(k * n, rng);
  std::vector<float> cs(static_cast<size_t>(m * n), -42.f);
  std::vector<float> cv(static_cast<size_t>(m * n), 42.f);
  detail::scalar_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                      cs.data(), 0, n);
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    cv.data(), 0, n);
  expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_nn");
}

TEST(KernelParity, GemmNNTailShapes) {
  for (i64 m : {i64{1}, i64{2}, i64{7}, i64{13}}) {
    for (i64 k : tail_sizes()) {
      for (i64 n : tail_sizes()) check_gemm_nn(m, k, n);
    }
  }
}

TEST(KernelParity, GemmNNMicrokernelEdges) {
  // Shapes around the MR=6 / NR=2*lanes / KC/MC blocking edges.
  const i64 nr = 2 * simd_lanes();
  for (i64 m : {i64{5}, i64{6}, i64{7}, i64{95}, i64{96}, i64{97}}) {
    for (i64 n : {nr - 1, nr, nr + 1}) {
      check_gemm_nn(m, 64, n);
    }
  }
  check_gemm_nn(13, 191, 40);  // k just under KC
  check_gemm_nn(13, 192, 40);  // k == KC
  check_gemm_nn(13, 193, 40);  // k panel + tail of 1
}

TEST(KernelParity, GemmNTAndTNTailShapes) {
  const i64 lanes = simd_lanes();
  for (i64 m : {i64{3}, i64{9}}) {
    for (i64 k : {i64{1}, lanes - 1, lanes + 1, i64{33}}) {
      for (i64 n : {i64{1}, lanes, 2 * lanes + 1, i64{29}}) {
        Rng rng(static_cast<u64>(m + 31 * k + 977 * n));
        // NT: B stored [n, k]; b(p, j) = B[j*k + p].
        const auto a = randv(m * k, rng);
        const auto bt = randv(n * k, rng);
        std::vector<float> cs(static_cast<size_t>(m * n));
        std::vector<float> cv(static_cast<size_t>(m * n));
        detail::scalar_gemm(1, m, k, n, a.data(), 0, k, 1, bt.data(), 0, 1, k,
                            cs.data(), 0, n);
        detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, bt.data(), 0, 1, k,
                          cv.data(), 0, n);
        expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_nt");
        // TN: logical A^T with A stored [k, m]; a(i, p) = A[p*m + i].
        const auto at = randv(k * m, rng);
        const auto b = randv(k * n, rng);
        detail::scalar_gemm(1, m, k, n, at.data(), 0, 1, m, b.data(), 0, n, 1,
                            cs.data(), 0, n);
        detail::simd_gemm(1, m, k, n, at.data(), 0, 1, m, b.data(), 0, n, 1,
                          cv.data(), 0, n);
        expect_close(cv, cs, 1e-4f, 1e-5f, "gemm_tn");
      }
    }
  }
}

TEST(KernelParity, GemmStridedSubviewsLeavePaddingUntouched) {
  // A, B, C live inside larger padded matrices (lda/ldb/ldc > logical
  // cols): strides select the sub-view, and C's padding must survive.
  const i64 m = 11, k = 23, n = 19;
  const i64 lda = k + 5, ldb = n + 3, ldc = n + 7;
  Rng rng(99);
  const auto a = randv(m * lda, rng);
  const auto b = randv(k * ldb, rng);
  std::vector<float> cs(static_cast<size_t>(m * ldc), 7.5f);
  std::vector<float> cv(static_cast<size_t>(m * ldc), 7.5f);
  detail::scalar_gemm(1, m, k, n, a.data(), 0, lda, 1, b.data(), 0, ldb, 1,
                      cs.data(), 0, ldc);
  detail::simd_gemm(1, m, k, n, a.data(), 0, lda, 1, b.data(), 0, ldb, 1,
                    cv.data(), 0, ldc);
  for (i64 i = 0; i < m; ++i) {
    for (i64 j = 0; j < ldc; ++j) {
      const size_t idx = static_cast<size_t>(i * ldc + j);
      if (j >= n) {
        ASSERT_EQ(cs[idx], 7.5f) << "scalar wrote padding";
        ASSERT_EQ(cv[idx], 7.5f) << "simd wrote padding";
      } else {
        ASSERT_NEAR(cv[idx], cs[idx], 1e-5f + 1e-4f * std::abs(cs[idx]));
      }
    }
  }
}

TEST(KernelParity, GemmBatchedMatchesPerSlice) {
  const i64 batch = 3, m = 9, k = 33, n = 21;
  Rng rng(7);
  const auto a = randv(batch * m * k, rng);
  const auto b = randv(batch * k * n, rng);
  std::vector<float> cb(static_cast<size_t>(batch * m * n));
  std::vector<float> c1(static_cast<size_t>(batch * m * n));
  detail::simd_gemm(batch, m, k, n, a.data(), m * k, k, 1, b.data(), k * n, n,
                    1, cb.data(), m * n, n);
  for (i64 i = 0; i < batch; ++i) {
    detail::simd_gemm(1, m, k, n, a.data() + i * m * k, 0, k, 1,
                      b.data() + i * k * n, 0, n, 1, c1.data() + i * m * n, 0,
                      n);
  }
  // Identical blocking order per slice: bitwise equal.
  EXPECT_EQ(0, std::memcmp(cb.data(), c1.data(),
                           cb.size() * sizeof(float)));
  std::vector<float> cs(static_cast<size_t>(batch * m * n));
  detail::scalar_gemm(batch, m, k, n, a.data(), m * k, k, 1, b.data(), k * n,
                      n, 1, cs.data(), m * n, n);
  expect_close(cb, cs, 1e-4f, 1e-5f, "batched gemm");
}

TEST(KernelParity, GemmEmptyContractionZeroesC) {
  const i64 m = 5, n = 9;
  std::vector<float> cs(static_cast<size_t>(m * n), 3.f);
  std::vector<float> cv(static_cast<size_t>(m * n), 3.f);
  const float dummy = 0.f;
  detail::scalar_gemm(1, m, 0, n, &dummy, 0, 0, 1, &dummy, 0, n, 1, cs.data(),
                      0, n);
  detail::simd_gemm(1, m, 0, n, &dummy, 0, 0, 1, &dummy, 0, n, 1, cv.data(),
                    0, n);
  for (float v : cs) EXPECT_EQ(v, 0.f);
  for (float v : cv) EXPECT_EQ(v, 0.f);
}

TEST(KernelParity, GemmDeterministicAcrossRepeats) {
  const i64 m = 64, k = 96, n = 80;
  Rng rng(3);
  const auto a = randv(m * k, rng);
  const auto b = randv(k * n, rng);
  std::vector<float> c1(static_cast<size_t>(m * n));
  std::vector<float> c2(static_cast<size_t>(m * n));
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    c1.data(), 0, n);
  detail::simd_gemm(1, m, k, n, a.data(), 0, k, 1, b.data(), 0, n, 1,
                    c2.data(), 0, n);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
}

// ----- layernorm -------------------------------------------------------------

TEST(KernelParity, LayernormForwardTailShapes) {
  for (i64 rows : {i64{1}, i64{4}}) {
    for (i64 cols : tail_sizes()) {
      Rng rng(static_cast<u64>(rows * 131 + cols));
      const auto x = randv(rows * cols, rng, 2.f);
      const auto gamma = randv(cols, rng);
      const auto beta = randv(cols, rng);
      std::vector<float> ys(x.size()), yv(x.size());
      std::vector<float> ms(static_cast<size_t>(rows)), rs(ms), mv(ms),
          rv(ms);
      detail::scalar_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                   beta.data(), 1e-5f, ys.data(), ms.data(),
                                   rs.data());
      detail::simd_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                 beta.data(), 1e-5f, yv.data(), mv.data(),
                                 rv.data());
      expect_close(mv, ms, 1e-6f, 1e-7f, "ln mean");
      expect_close(rv, rs, 1e-6f, 1e-7f, "ln rstd");
      expect_close(yv, ys, 1e-5f, 1e-6f, "ln y");
    }
  }
}

TEST(KernelParity, LayernormBackwardAccumulatesIntoSeededGrads) {
  const std::vector<i64> col_sweep = {1, 5, simd_lanes(), 67, 256};
  for (i64 cols : col_sweep) {
    const i64 rows = 6;
    Rng rng(static_cast<u64>(cols) + 17);
    const auto x = randv(rows * cols, rng);
    const auto dy = randv(rows * cols, rng);
    const auto gamma = randv(cols, rng);
    const auto beta = randv(cols, rng);
    std::vector<float> y(x.size());
    std::vector<float> mean(static_cast<size_t>(rows)), rstd(mean);
    detail::scalar_layernorm_fwd(rows, cols, x.data(), gamma.data(),
                                 beta.data(), 1e-5f, y.data(), mean.data(),
                                 rstd.data());
    // Both modes start from the same nonzero dgamma/dbeta: the kernel
    // contract is accumulation, not overwrite.
    const auto seed_g = randv(cols, rng);
    const auto seed_b = randv(cols, rng);
    std::vector<float> dxs(x.size()), dxv(x.size());
    std::vector<float> dgs = seed_g, dgv = seed_g;
    std::vector<float> dbs = seed_b, dbv = seed_b;
    detail::scalar_layernorm_bwd(rows, cols, dy.data(), x.data(),
                                 gamma.data(), mean.data(), rstd.data(),
                                 dxs.data(), dgs.data(), dbs.data());
    detail::simd_layernorm_bwd(rows, cols, dy.data(), x.data(), gamma.data(),
                               mean.data(), rstd.data(), dxv.data(),
                               dgv.data(), dbv.data());
    // The SIMD TU compiles with FMA contraction, so dx deviates from the
    // oracle by ~rstd * ulp(dy*gamma); rstd is 1/sqrt(eps) ~ 316 for the
    // zero-variance cols=1 row, hence the wider absolute tolerance.
    expect_close(dxv, dxs, 1e-4f, 1e-4f, "ln dx");
    expect_close(dgv, dgs, 1e-4f, 1e-5f, "ln dgamma");
    expect_close(dbv, dbs, 1e-4f, 1e-5f, "ln dbeta");
  }
}

// ----- softmax ---------------------------------------------------------------

TEST(KernelParity, SoftmaxForwardTailShapesAndRowSums) {
  for (i64 rows : {i64{1}, i64{5}}) {
    for (i64 cols : tail_sizes()) {
      Rng rng(static_cast<u64>(rows * 37 + cols));
      const auto x = randv(rows * cols, rng, 3.f);
      std::vector<float> ys(x.size()), yv(x.size());
      detail::scalar_softmax_fwd(rows, cols, x.data(), ys.data());
      detail::simd_softmax_fwd(rows, cols, x.data(), yv.data());
      expect_close(yv, ys, 1e-5f, 1e-7f, "softmax y");
      for (i64 r = 0; r < rows; ++r) {
        float sum = 0.f;
        for (i64 c = 0; c < cols; ++c) {
          sum += yv[static_cast<size_t>(r * cols + c)];
        }
        EXPECT_NEAR(sum, 1.f, 1e-5f);
      }
    }
  }
}

TEST(KernelParity, SoftmaxForwardExtremeLogitsStayFinite) {
  // Exercises the vectorized exp over its clamp range: one dominant
  // logit, the rest far below (underflow to 0, never NaN/Inf).
  const i64 cols = 2 * simd_lanes() + 3;
  std::vector<float> x(static_cast<size_t>(cols), -120.f);
  x[3] = 95.f;
  std::vector<float> ys(x.size()), yv(x.size());
  detail::scalar_softmax_fwd(1, cols, x.data(), ys.data());
  detail::simd_softmax_fwd(1, cols, x.data(), yv.data());
  for (i64 c = 0; c < cols; ++c) {
    ASSERT_TRUE(std::isfinite(yv[static_cast<size_t>(c)]));
    ASSERT_NEAR(yv[static_cast<size_t>(c)], ys[static_cast<size_t>(c)],
                1e-6f);
  }
  EXPECT_NEAR(yv[3], 1.f, 1e-6f);
}

TEST(KernelParity, SoftmaxBackwardTailShapes) {
  for (i64 cols : tail_sizes()) {
    const i64 rows = 4;
    Rng rng(static_cast<u64>(cols) * 3 + 1);
    const auto x = randv(rows * cols, rng);
    const auto dy = randv(rows * cols, rng);
    std::vector<float> y(x.size());
    detail::scalar_softmax_fwd(rows, cols, x.data(), y.data());
    std::vector<float> dxs(x.size()), dxv(x.size());
    detail::scalar_softmax_bwd(rows, cols, dy.data(), y.data(), dxs.data());
    detail::simd_softmax_bwd(rows, cols, dy.data(), y.data(), dxv.data());
    expect_close(dxv, dxs, 1e-5f, 1e-6f, "softmax dx");
  }
}

// ----- attention -------------------------------------------------------------

struct AttentionShape {
  i64 b, t, heads, hd;
  i64 c() const { return heads * hd; }
  float scale() const { return 1.f / std::sqrt(static_cast<float>(hd)); }
};

struct AttentionOut {
  std::vector<float> ctx, lse, dqkv;
};

// Forward then backward of one implementation; outputs start poisoned so
// an element the kernel fails to write shows up as a mismatch.
AttentionOut run_attention(Mode mode, const AttentionShape& s,
                           const std::vector<float>& qkv,
                           const std::vector<float>& dctx) {
  AttentionOut o;
  o.ctx.assign(static_cast<size_t>(s.b * s.t * s.c()), -7.f);
  o.lse.assign(static_cast<size_t>(s.b * s.heads * s.t), -7.f);
  o.dqkv.assign(qkv.size(), -7.f);
  const bool simd = mode == Mode::kSimd;
  (simd ? detail::simd_attention_fwd : detail::scalar_attention_fwd)(
      s.b, s.t, s.heads, s.hd, s.scale(), qkv.data(), o.ctx.data(),
      o.lse.data());
  (simd ? detail::simd_attention_bwd : detail::scalar_attention_bwd)(
      s.b, s.t, s.heads, s.hd, s.scale(), qkv.data(), o.lse.data(),
      dctx.data(), o.dqkv.data());
  return o;
}

void expect_bitwise(const std::vector<float>& a, const std::vector<float>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

TEST(KernelParity, AttentionSimdMatchesOracle) {
  for (i64 t : {1, 5, 17, 65, 66}) {
    for (i64 hd : {8, 16, 32}) {
      for (i64 heads : {1, 4}) {
        const AttentionShape s{2, t, heads, hd};
        Rng rng(static_cast<u64>(t * 1009 + hd * 31 + heads));
        const auto qkv = randv(s.b * s.t * 3 * s.c(), rng);
        const auto dctx = randv(s.b * s.t * s.c(), rng);
        const AttentionOut ref = run_attention(Mode::kScalar, s, qkv, dctx);
        const AttentionOut got = run_attention(Mode::kSimd, s, qkv, dctx);
        SCOPED_TRACE(::testing::Message()
                     << "t=" << t << " hd=" << hd << " heads=" << heads);
        expect_close(got.ctx, ref.ctx, 1e-4f, 1e-5f, "attention ctx");
        expect_close(got.lse, ref.lse, 1e-5f, 1e-5f, "attention lse");
        expect_close(got.dqkv, ref.dqkv, 1e-3f, 1e-5f, "attention dqkv");
      }
    }
  }
}

TEST(KernelParity, AttentionBatchedMatchesPerSampleBitwise) {
  // Serving's batched-equals-single guarantee: each sample of a batch-8
  // call is bitwise its own single-sample call, and repeats are bitwise.
  for (const AttentionShape s : {AttentionShape{8, 65, 4, 8},
                                 AttentionShape{8, 17, 4, 16}}) {
    Rng rng(static_cast<u64>(s.t + s.hd));
    const auto qkv = randv(s.b * s.t * 3 * s.c(), rng);
    const auto dctx = randv(s.b * s.t * s.c(), rng);
    for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
      SCOPED_TRACE(mode_name(mode));
      const AttentionOut batched = run_attention(mode, s, qkv, dctx);
      const AttentionOut again = run_attention(mode, s, qkv, dctx);
      expect_bitwise(again.ctx, batched.ctx, "repeat ctx");
      expect_bitwise(again.lse, batched.lse, "repeat lse");
      expect_bitwise(again.dqkv, batched.dqkv, "repeat dqkv");
      const AttentionShape one{1, s.t, s.heads, s.hd};
      const i64 n_qkv = s.t * 3 * s.c(), n_ctx = s.t * s.c();
      const i64 n_lse = s.heads * s.t;
      for (i64 i = 0; i < s.b; ++i) {
        const std::vector<float> qkv1(qkv.begin() + i * n_qkv,
                                      qkv.begin() + (i + 1) * n_qkv);
        const std::vector<float> dctx1(dctx.begin() + i * n_ctx,
                                       dctx.begin() + (i + 1) * n_ctx);
        const AttentionOut single = run_attention(mode, one, qkv1, dctx1);
        expect_bitwise(single.ctx,
                       {batched.ctx.begin() + i * n_ctx,
                        batched.ctx.begin() + (i + 1) * n_ctx},
                       "per-sample ctx");
        expect_bitwise(single.lse,
                       {batched.lse.begin() + i * n_lse,
                        batched.lse.begin() + (i + 1) * n_lse},
                       "per-sample lse");
        expect_bitwise(single.dqkv,
                       {batched.dqkv.begin() + i * n_qkv,
                        batched.dqkv.begin() + (i + 1) * n_qkv},
                       "per-sample dqkv");
      }
    }
  }
}

TEST(KernelParity, AttentionSingleThreadMatchesPoolBitwise) {
  // A kernel started inside a parallel region runs inline on one thread;
  // its results must equal the pool-parallel run bit for bit.
  const AttentionShape s{16, 65, 4, 8};
  Rng rng(5);
  const auto qkv = randv(s.b * s.t * 3 * s.c(), rng);
  const auto dctx = randv(s.b * s.t * s.c(), rng);
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    SCOPED_TRACE(mode_name(mode));
    const AttentionOut pooled = run_attention(mode, s, qkv, dctx);
    AttentionOut inline_run;
    ThreadPool::global().parallel_for(
        2,
        [&](i64 i0, i64 i1) {
          if (i0 == 0 && i1 >= 1) {
            inline_run = run_attention(mode, s, qkv, dctx);
          }
        },
        1);
    expect_bitwise(inline_run.ctx, pooled.ctx, "single-thread ctx");
    expect_bitwise(inline_run.lse, pooled.lse, "single-thread lse");
    expect_bitwise(inline_run.dqkv, pooled.dqkv, "single-thread dqkv");
  }
}

// The [t, hd] block of head h, sample bi, at column offset `col` of a
// fused-layout buffer with row stride `stride`.
Tensor head_block(const AttentionShape& s, const std::vector<float>& buf,
                  i64 stride, i64 col, i64 bi) {
  Tensor out({s.t, s.hd});
  for (i64 i = 0; i < s.t; ++i) {
    for (i64 e = 0; e < s.hd; ++e) {
      out.at({i, e}) = buf[static_cast<size_t>((bi * s.t + i) * stride + col +
                                               e)];
    }
  }
  return out;
}

// The per-head reference composition on 2-D tensors: Q/K/V slices of the
// fused layout, then matmul_nt -> scale -> softmax -> matmul, and the
// matching backward. In scalar mode it is the oracle's math exactly.
struct HeadReference {
  Tensor ctx, dq, dk, dv;
};

HeadReference per_head_reference(const AttentionShape& s,
                                 const std::vector<float>& qkv,
                                 const std::vector<float>& dctx, i64 bi,
                                 i64 h) {
  const i64 c = s.c(), ld = 3 * c;
  const Tensor q = head_block(s, qkv, ld, h * s.hd, bi);
  const Tensor k = head_block(s, qkv, ld, c + h * s.hd, bi);
  const Tensor v = head_block(s, qkv, ld, 2 * c + h * s.hd, bi);
  const Tensor dout = head_block(s, dctx, c, h * s.hd, bi);
  Tensor scores = ops::matmul_nt(q, k);
  scores.scale_(s.scale());
  const Tensor p = ops::softmax_lastdim(scores);
  HeadReference ref;
  ref.ctx = ops::matmul(p, v);
  ref.dv = ops::matmul_tn(p, dout);
  Tensor ds = ops::softmax_backward_lastdim(ops::matmul_nt(dout, v), p);
  ds.scale_(s.scale());
  ref.dq = ops::matmul(ds, k);
  ref.dk = ops::matmul_tn(ds, q);
  return ref;
}

void expect_matches_reference(const Tensor& got, const Tensor& want,
                              Mode mode, const char* what) {
  if (mode == Mode::kScalar) {
    ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                             static_cast<size_t>(got.numel()) * sizeof(float)))
        << what;
  } else {
    EXPECT_TRUE(got.allclose(want, 1e-3f, 1e-5f)) << what;
  }
}

TEST(KernelParity, AttentionForwardAgainstPerHeadMatmul) {
  const AttentionShape s{2, 5, 3, 4};
  Rng rng(5);
  const auto qkv = randv(s.b * s.t * 3 * s.c(), rng);
  const auto dctx = randv(s.b * s.t * s.c(), rng);
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    ModeGuard guard(mode);
    std::vector<float> ctx(dctx.size());
    std::vector<float> lse(static_cast<size_t>(s.b * s.heads * s.t));
    attention_fwd(s.b, s.t, s.heads, s.hd, s.scale(), qkv.data(), ctx.data(),
                  lse.data());
    for (i64 bi = 0; bi < s.b; ++bi) {
      for (i64 h = 0; h < s.heads; ++h) {
        const HeadReference ref = per_head_reference(s, qkv, dctx, bi, h);
        expect_matches_reference(head_block(s, ctx, s.c(), h * s.hd, bi),
                                 ref.ctx, mode, "ctx");
      }
    }
  }
}

TEST(KernelParity, AttentionBackwardAgainstPerHeadMatmul) {
  const AttentionShape s{2, 6, 2, 5};
  Rng rng(6);
  const auto qkv = randv(s.b * s.t * 3 * s.c(), rng);
  const auto dctx = randv(s.b * s.t * s.c(), rng);
  for (Mode mode : {Mode::kScalar, Mode::kSimd}) {
    ModeGuard guard(mode);
    std::vector<float> ctx(dctx.size());
    std::vector<float> lse(static_cast<size_t>(s.b * s.heads * s.t));
    std::vector<float> dqkv(qkv.size(), -7.f);
    attention_fwd(s.b, s.t, s.heads, s.hd, s.scale(), qkv.data(), ctx.data(),
                  lse.data());
    attention_bwd(s.b, s.t, s.heads, s.hd, s.scale(), qkv.data(), lse.data(),
                  dctx.data(), dqkv.data());
    const i64 ld = 3 * s.c();
    for (i64 bi = 0; bi < s.b; ++bi) {
      for (i64 h = 0; h < s.heads; ++h) {
        const HeadReference ref = per_head_reference(s, qkv, dctx, bi, h);
        expect_matches_reference(head_block(s, dqkv, ld, h * s.hd, bi),
                                 ref.dq, mode, "dq");
        expect_matches_reference(
            head_block(s, dqkv, ld, s.c() + h * s.hd, bi), ref.dk, mode,
            "dk");
        expect_matches_reference(
            head_block(s, dqkv, ld, 2 * s.c() + h * s.hd, bi), ref.dv, mode,
            "dv");
      }
    }
  }
}

// ----- GELU ------------------------------------------------------------------

TEST(KernelParity, GeluForwardBackwardTailShapes) {
  std::vector<i64> sizes = tail_sizes();
  sizes.push_back(40000);  // several pool chunks
  for (i64 n : sizes) {
    Rng rng(static_cast<u64>(n) + 101);
    auto x = randv(n, rng, 3.f);
    x[0] = 0.f;
    if (n > 2) {
      x[1] = 60.f;   // tanh saturates to +1 ...
      x[2] = -60.f;  // ... and to -1
    }
    const auto dy = randv(n, rng);
    std::vector<float> ys(x.size()), yv(x.size()), dxs(x.size()),
        dxv(x.size());
    detail::scalar_gelu_fwd(n, x.data(), ys.data());
    detail::simd_gelu_fwd(n, x.data(), yv.data());
    detail::scalar_gelu_bwd(n, dy.data(), x.data(), dxs.data());
    detail::simd_gelu_bwd(n, dy.data(), x.data(), dxv.data());
    expect_close(yv, ys, 1e-5f, 1e-6f, "gelu y");
    // The oracle's 1 - tanh^2 cancels as tanh saturates (~1e-6 absolute
    // at |x| ~ 4-5); the SIMD side forms (1 + tanh)(1 - tanh) without
    // cancelling, so it is held to a double-precision reference instead.
    expect_close(dxv, dxs, 1e-5f, 3e-6f, "gelu dx vs oracle");
    std::vector<float> dx_ref(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      const double v = x[i];
      const double c = detail::kGeluC, a = detail::kGeluA;
      const double t = std::tanh(c * (v + a * v * v * v));
      const double d = 0.5 * (1 + t) +
                       0.5 * v * (1 - t * t) * c * (1 + 3 * a * v * v);
      dx_ref[i] = static_cast<float>(dy[i] * d);
    }
    expect_close(dxv, dx_ref, 1e-5f, 1e-6f, "gelu dx vs double");
  }
}

TEST(KernelParity, GeluSliceMatchesWholeBitwise) {
  // An element's result must not depend on where a call (or a pool chunk)
  // starts relative to the vector width.
  const i64 n = 1000;
  Rng rng(77);
  const auto x = randv(n, rng, 2.f);
  std::vector<float> whole(x.size()), sliced(x.size());
  detail::simd_gelu_fwd(n, x.data(), whole.data());
  for (i64 i0 = 0; i0 < n; i0 += 13) {
    const i64 len = std::min<i64>(13, n - i0);
    detail::simd_gelu_fwd(len, x.data() + i0, sliced.data() + i0);
  }
  expect_bitwise(sliced, whole, "gelu slices");
}

// ----- AdamW -----------------------------------------------------------------

TEST(KernelParity, AdamWMultiStepTrajectoriesAgree) {
  const std::vector<i64> n_sweep = {1, simd_lanes() - 1, simd_lanes(),
                                    3 * simd_lanes() + 5};
  for (i64 n : n_sweep) {
    Rng rng(static_cast<u64>(n) + 5);
    const auto w0 = randv(n, rng);
    std::vector<float> ws = w0, wv = w0;
    std::vector<float> ms(static_cast<size_t>(n), 0.f), mv = ms;
    std::vector<float> vs = ms, vv = ms;
    for (int t = 1; t <= 5; ++t) {
      const auto g = randv(n, rng);
      AdamWConfig cfg;
      cfg.lr = 1e-3;
      cfg.weight_decay = 0.05;
      cfg.bias_c1 = 1.0 - std::pow(cfg.beta1, t);
      cfg.bias_c2 = 1.0 - std::pow(cfg.beta2, t);
      detail::scalar_adamw(n, ws.data(), g.data(), ms.data(), vs.data(), cfg);
      detail::simd_adamw(n, wv.data(), g.data(), mv.data(), vv.data(), cfg);
    }
    expect_close(wv, ws, 1e-5f, 1e-6f, "adamw w");
    expect_close(mv, ms, 1e-5f, 1e-6f, "adamw m");
    expect_close(vv, vs, 1e-5f, 1e-6f, "adamw v");
  }
}

// ----- patchify --------------------------------------------------------------

TEST(KernelParity, PatchifyBitwiseAndRoundTrip) {
  for (i64 patch : {i64{2}, i64{5}, i64{16}}) {
    const i64 b = 2, c = 3, grid = 3;
    const i64 hw = grid * patch;
    Rng rng(static_cast<u64>(patch));
    const auto images = randv(b * c * hw * hw, rng);
    std::vector<float> ps(
        static_cast<size_t>(b * grid * grid * patch * patch * c));
    std::vector<float> pv(ps.size());
    detail::scalar_patchify(b, c, hw, hw, patch, images.data(), ps.data());
    detail::simd_patchify(b, c, hw, hw, patch, images.data(), pv.data());
    ASSERT_EQ(0, std::memcmp(ps.data(), pv.data(),
                             ps.size() * sizeof(float)));
    std::vector<float> back(images.size());
    detail::simd_unpatchify(b, c, grid, patch, pv.data(), back.data());
    ASSERT_EQ(0, std::memcmp(images.data(), back.data(),
                             back.size() * sizeof(float)));
  }
}

TEST(KernelParity, PatchifyNonSquareImage) {
  const i64 b = 1, c = 2, h = 6, w = 10, patch = 2;
  Rng rng(11);
  const auto images = randv(b * c * h * w, rng);
  std::vector<float> ps(static_cast<size_t>(b * c * h * w));
  std::vector<float> pv(ps.size());
  detail::scalar_patchify(b, c, h, w, patch, images.data(), ps.data());
  detail::simd_patchify(b, c, h, w, patch, images.data(), pv.data());
  EXPECT_EQ(0, std::memcmp(ps.data(), pv.data(), ps.size() * sizeof(float)));
}

// ----- dispatch seam ---------------------------------------------------------

TEST(KernelDispatch, ModeGuardRestoresPreviousMode) {
  const Mode before = active_mode();
  {
    ModeGuard guard(Mode::kScalar);
    EXPECT_EQ(active_mode(), Mode::kScalar);
    {
      ModeGuard inner(Mode::kSimd);
      EXPECT_EQ(active_mode(), Mode::kSimd);
    }
    EXPECT_EQ(active_mode(), Mode::kScalar);
  }
  EXPECT_EQ(active_mode(), before);
}

TEST(KernelDispatch, LanesPositiveAndModeNamed) {
  EXPECT_GE(simd_lanes(), 4);
  EXPECT_STREQ(mode_name(Mode::kScalar), "scalar");
  EXPECT_STREQ(mode_name(Mode::kSimd), "simd");
}

TEST(KernelDispatch, PublicGemmAgreesAcrossModes) {
  // Through the public seam (ops::), both modes compute the same matmul
  // within float tolerance — large enough to clear the small-problem
  // scalar routing.
  Rng rng(21);
  Tensor a = Tensor::randn({48, 72}, rng);
  Tensor b = Tensor::randn({72, 56}, rng);
  Tensor c_scalar, c_simd;
  {
    ModeGuard guard(Mode::kScalar);
    c_scalar = ops::matmul(a, b);
  }
  {
    ModeGuard guard(Mode::kSimd);
    c_simd = ops::matmul(a, b);
  }
  EXPECT_TRUE(c_simd.allclose(c_scalar, 1e-4f, 1e-5f));
}

TEST(KernelDispatch, EndToEndBlockForwardBackwardAgreesAcrossModes) {
  // A layernorm -> matmul -> softmax chain plus its backward, run
  // entirely under each mode; the two trajectories must agree within
  // accumulated float tolerance.
  auto run = [](Mode mode) {
    ModeGuard guard(mode);
    Rng rng(4242);
    Tensor x = Tensor::randn({12, 40}, rng);
    Tensor gamma = Tensor::ones({40});
    Tensor beta = Tensor::zeros({40});
    Tensor w = Tensor::randn({40, 24}, rng, 0.1f);
    ops::LayerNormCache cache;
    Tensor h = ops::layernorm(x, gamma, beta, 1e-5f, cache);
    Tensor logits = ops::matmul(h, w);
    Tensor probs = ops::softmax_lastdim(logits);
    // Backward with dProbs = probs (arbitrary but deterministic).
    Tensor dlogits = ops::softmax_backward_lastdim(probs, probs);
    Tensor dh = ops::matmul_nt(dlogits, w);
    Tensor dgamma = Tensor::zeros({40});
    Tensor dbeta = Tensor::zeros({40});
    Tensor dx = ops::layernorm_backward(dh, x, gamma, cache, dgamma, dbeta);
    return std::vector<Tensor>{probs, dx, dgamma, dbeta};
  };
  const auto scalar = run(Mode::kScalar);
  const auto simd = run(Mode::kSimd);
  ASSERT_EQ(scalar.size(), simd.size());
  for (size_t i = 0; i < scalar.size(); ++i) {
    EXPECT_TRUE(simd[i].allclose(scalar[i], 1e-3f, 1e-4f)) << "output " << i;
  }
}

}  // namespace
}  // namespace geofm::kernels
