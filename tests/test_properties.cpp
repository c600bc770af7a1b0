// Property-style parameterized sweeps: the same invariant checked across
// a grid of configurations (architectures, rank counts, strategies).
#include <gtest/gtest.h>

#include <tuple>

#include "comm/communicator.hpp"
#include "gradcheck.hpp"
#include "models/mae.hpp"
#include "nn/attention.hpp"
#include "nn/block.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"
#include "sim/simulator.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::run_ranks;

// ----- attention gradcheck across (dim, heads, seq) ---------------------------

class AttentionGrid
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, AttentionGrid,
    ::testing::Values(std::tuple{8, 1, 3}, std::tuple{8, 2, 5},
                      std::tuple{16, 4, 4}, std::tuple{24, 3, 2},
                      std::tuple{32, 8, 6},
                      // head dims 8 and 16 at 17 tokens: the SIMD key tail
                      // and the half- and full-width head-dim chunks.
                      std::tuple{16, 2, 17}, std::tuple{32, 2, 17}));

TEST_P(AttentionGrid, GradCheck) {
  const auto [dim, heads, seq] = GetParam();
  Rng rng(static_cast<u64>(dim * 131 + heads * 17 + seq));
  nn::MultiHeadSelfAttention attn("a", dim, heads, rng);
  Tensor x = Tensor::randn({2, seq, dim}, rng, 0.5f);
  testing::expect_gradients_match(
      attn, x, [&] { return attn.forward(x); },
      [&](const Tensor& dy) { return attn.backward(dy); },
      /*seed=*/static_cast<u64>(dim + seq), /*tol=*/3e-2);
}

// ----- transformer block gradcheck across widths --------------------------------

class BlockGrid : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Widths, BlockGrid, ::testing::Values(8, 16, 24));

TEST_P(BlockGrid, GradCheck) {
  const int width = GetParam();
  Rng rng(static_cast<u64>(width));
  nn::TransformerBlock blk("b", width, width / 8, 2 * width, rng);
  Tensor x = Tensor::randn({2, 4, width}, rng, 0.5f);
  testing::expect_gradients_match(
      blk, x, [&] { return blk.forward(x); },
      [&](const Tensor& dy) { return blk.backward(dy); },
      /*seed=*/static_cast<u64>(width * 7), /*tol=*/3e-2);
}

// ----- collectives: all-reduce equals serial reduction, random payloads ---------

class AllReduceGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    RanksBySize, AllReduceGrid,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(1, 17, 1024)));

TEST_P(AllReduceGrid, MatchesSerialSum) {
  const auto [ranks, elems] = GetParam();
  // Build per-rank payloads up front and the expected serial reduction.
  std::vector<Tensor> payloads;
  Tensor expect = Tensor::zeros({elems});
  for (int r = 0; r < ranks; ++r) {
    Rng rng(static_cast<u64>(1000 + r * 31 + elems));
    payloads.push_back(Tensor::randn({elems}, rng));
    expect.add_(payloads.back());
  }
  run_ranks(ranks, [&](Communicator& c) {
    Tensor mine = payloads[static_cast<size_t>(c.rank())].clone();
    c.all_reduce(mine, comm::ReduceOp::kSum);
    EXPECT_TRUE(mine.allclose(expect, 1e-5f, 1e-6f));
  });
}

// ----- optimizers: all converge on random strongly-convex quadratics -------------

enum class OptKind { kSgd, kSgdMomentum, kAdamW, kLars };

class OptimizerGrid : public ::testing::TestWithParam<OptKind> {};

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerGrid,
                         ::testing::Values(OptKind::kSgd,
                                           OptKind::kSgdMomentum,
                                           OptKind::kAdamW, OptKind::kLars));

TEST_P(OptimizerGrid, DecreasesRandomQuadratic) {
  Rng rng(17);
  nn::Parameter p;
  p.name = "w";
  p.value = Tensor::randn({32}, rng, 2.f);
  p.ensure_grad();
  Tensor target = Tensor::randn({32}, rng);
  // Positive per-coordinate curvature in [0.5, 2].
  Tensor curv = Tensor::rand({32}, rng, 0.5f, 2.f);

  std::unique_ptr<optim::Optimizer> opt;
  switch (GetParam()) {
    case OptKind::kSgd:
      opt = std::make_unique<optim::Sgd>(std::vector{&p}, 0.1);
      break;
    case OptKind::kSgdMomentum:
      opt = std::make_unique<optim::Sgd>(std::vector{&p}, 0.05, 0.9);
      break;
    case OptKind::kAdamW:
      opt = std::make_unique<optim::AdamW>(std::vector{&p}, 0.1, 0.9, 0.999,
                                           1e-8, 0.0);
      break;
    case OptKind::kLars:
      opt = std::make_unique<optim::Lars>(std::vector{&p}, 1.0, 0.9, 0.0,
                                          0.05);
      break;
  }

  auto loss = [&] {
    double acc = 0;
    for (i64 i = 0; i < 32; ++i) {
      const double d = p.value[i] - target[i];
      acc += 0.5 * curv[i] * d * d;
    }
    return acc;
  };
  const double initial = loss();
  for (int s = 0; s < 120; ++s) {
    opt->zero_grad();
    for (i64 i = 0; i < 32; ++i) {
      p.grad[i] = curv[i] * (p.value[i] - target[i]);
    }
    opt->step();
  }
  EXPECT_LT(loss(), 0.05 * initial);
}

// ----- FSDP: invariants across every (strategy, prefetch) combination ------------

struct FsdpGridCase {
  parallel::ShardingStrategy strategy;
  int group;
  parallel::BackwardPrefetch prefetch;
};

class FsdpGrid : public ::testing::TestWithParam<FsdpGridCase> {};

INSTANTIATE_TEST_SUITE_P(
    StrategyByPrefetch, FsdpGrid,
    ::testing::Values(
        FsdpGridCase{parallel::ShardingStrategy::kNoShard, 1,
                     parallel::BackwardPrefetch::kBackwardPre},
        FsdpGridCase{parallel::ShardingStrategy::kFullShard, 1,
                     parallel::BackwardPrefetch::kNone},
        FsdpGridCase{parallel::ShardingStrategy::kFullShard, 1,
                     parallel::BackwardPrefetch::kBackwardPost},
        FsdpGridCase{parallel::ShardingStrategy::kFullShard, 1,
                     parallel::BackwardPrefetch::kBackwardPre},
        FsdpGridCase{parallel::ShardingStrategy::kShardGradOp, 1,
                     parallel::BackwardPrefetch::kBackwardPre},
        FsdpGridCase{parallel::ShardingStrategy::kHybridShard, 2,
                     parallel::BackwardPrefetch::kBackwardPre},
        FsdpGridCase{parallel::ShardingStrategy::kHybridShard, 4,
                     parallel::BackwardPrefetch::kNone}));

TEST_P(FsdpGrid, StepInvariants) {
  const auto param = GetParam();
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  run_ranks(4, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(models::mae_for(enc), rng);
    parallel::FsdpOptions opts;
    opts.strategy = param.strategy;
    opts.hybrid_group_size = param.group;
    opts.prefetch = param.prefetch;
    parallel::Fsdp fsdp(mae, c, opts);
    optim::AdamW opt(fsdp.optimizer_parameters(), 1e-3);

    Rng drng(2);
    Tensor batch = Tensor::randn({2, 3, 16, 16}, drng, 0.5f);
    for (int s = 0; s < 2; ++s) {
      fsdp.begin_step();
      Rng mask_rng(static_cast<u64>(s));
      const float loss = mae.forward(batch, mask_rng, c.rank() * 2);
      EXPECT_TRUE(std::isfinite(loss));
      mae.backward();
      fsdp.end_backward();
      opt.step();

      // Invariant: every unit's gradient is reduced exactly once per step
      // (one reduce-scatter or replica all-reduce chain per unit).
      int reduces = 0;
      for (const auto& e : fsdp.last_schedule()) {
        reduces += (e.type == parallel::FsdpEvent::Type::kReduceScatter);
      }
      if (fsdp.shard_group_size() > 1) {
        EXPECT_EQ(reduces, fsdp.n_units() + 1);  // stages + root
      } else {
        EXPECT_EQ(reduces, 0);
      }
    }

    // Invariant: materialized parameters are finite (no NaN poison leaks).
    fsdp.gather_full_parameters();
    for (nn::Parameter* p : mae.module().parameters()) {
      EXPECT_TRUE(std::isfinite(p->value.sum())) << p->name;
    }
    c.barrier();
  });
}

// ----- simulator: monotonicity in nodes for every strategy ----------------------

class SimStrategyGrid
    : public ::testing::TestWithParam<parallel::ShardingStrategy> {};

INSTANTIATE_TEST_SUITE_P(
    Strategies, SimStrategyGrid,
    ::testing::Values(parallel::ShardingStrategy::kNoShard,
                      parallel::ShardingStrategy::kFullShard,
                      parallel::ShardingStrategy::kShardGradOp,
                      parallel::ShardingStrategy::kHybridShard));

TEST_P(SimStrategyGrid, TotalThroughputMonotoneInNodes) {
  sim::ParallelPlan plan;
  plan.fsdp.strategy = GetParam();
  plan.fsdp.hybrid_group_size =
      GetParam() == parallel::ShardingStrategy::kHybridShard ? 4 : 1;
  const auto workload = sim::vit_step_workload(models::vit_1b(), 32);
  double prev = 0;
  for (int nodes : {1, 2, 4, 8, 16, 32, 64}) {
    sim::TrainingSimulator s(workload, sim::frontier(), nodes, plan);
    const auto step = s.simulate_step();
    EXPECT_GT(step.images_per_second_total, prev) << "nodes " << nodes;
    EXPECT_GE(step.exposed_comm_seconds, 0.0);
    EXPECT_LE(step.images_per_second_per_rank,
              workload.images_per_step /
                  (workload.stages[0].fwd_flops * 3 *
                   static_cast<double>(workload.stages.size()) /
                   sim::frontier().gpu.sustained_flops));
    prev = step.images_per_second_total;
  }
}

}  // namespace
}  // namespace geofm
