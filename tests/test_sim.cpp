// Performance-simulator tests: cost-model sanity, collective-model limits,
// and the paper's qualitative findings as executable invariants.
#include <gtest/gtest.h>

#include "models/config.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace geofm {
namespace {

using parallel::BackwardPrefetch;
using parallel::ShardingStrategy;
using namespace geofm::sim;

ParallelPlan plan_fsdp(ShardingStrategy s, int group = 1) {
  ParallelPlan p;
  p.fsdp.strategy = s;
  p.fsdp.hybrid_group_size = group;
  return p;
}

double ips(const models::ViTConfig& cfg, int nodes, const ParallelPlan& p,
           i64 batch = 32) {
  TrainingSimulator sim(vit_step_workload(cfg, batch), frontier(), nodes, p);
  return sim.simulate_step().images_per_second_total;
}

TEST(SimWorkload, FlopsScaleWithArchitecture) {
  auto base = vit_step_workload(models::vit_base(), 32);
  auto huge = vit_step_workload(models::vit_huge(), 32);
  ASSERT_FALSE(base.stages.empty());
  EXPECT_GT(huge.stages[0].fwd_flops, base.stages[0].fwd_flops);
  EXPECT_GT(huge.stages.size(), base.stages.size());
  for (const auto& s : base.stages) {
    EXPECT_NEAR(s.bwd_flops / s.fwd_flops, 2.0, 1e-9);
  }
  EXPECT_EQ(base.total_param_elements, models::vit_base().param_count());
}

TEST(SimWorkload, MaeEncoderSeesOnlyVisibleTokens) {
  // MAE stage flops must be well below a full-sequence ViT of the same
  // encoder (75% of tokens are masked out of the encoder).
  auto enc = models::vit_3b();
  enc.img_size = 512;
  enc.patch_size = 16;
  auto mae = mae_step_workload(models::mae_for(enc), 32);
  auto vit = vit_step_workload(enc, 32);
  EXPECT_LT(mae.stages[0].fwd_flops, 0.5 * vit.stages[0].fwd_flops);
  // Decoder stages appended after encoder stages.
  EXPECT_EQ(static_cast<i64>(mae.stages.size()), enc.depth + 8);
}

TEST(SimCollective, DegenerateGroupsFree) {
  auto m = frontier();
  auto g1 = shard_group_shape(1, 8);
  EXPECT_EQ(all_gather_seconds(1e9, g1, m), 0.0);
  EXPECT_EQ(all_reduce_seconds(1e9, g1, m), 0.0);
}

TEST(SimCollective, IntraNodeFasterThanInterNode) {
  auto m = frontier();
  auto intra = shard_group_shape(8, 8);       // one node
  auto inter = shard_group_shape(64, 8);      // 8 nodes
  EXPECT_LT(all_gather_seconds(1e8, intra, m),
            all_gather_seconds(1e8, inter, m));
}

TEST(SimCollective, SmallMessagesLatencyBound) {
  // For a tiny payload over many ranks, halving the payload barely
  // changes the time (latency terms dominate).
  auto m = frontier();
  auto g = replica_group_shape(512, 1, 8);
  const double t1 = all_reduce_seconds(1e4, g, m);
  const double t2 = all_reduce_seconds(5e3, g, m);
  EXPECT_LT((t1 - t2) / t1, 0.10);
  // For a huge payload it is bandwidth bound: halving ~halves.
  const double b1 = all_reduce_seconds(1e9, g, m);
  const double b2 = all_reduce_seconds(5e8, g, m);
  EXPECT_NEAR(b2 / b1, 0.5, 0.1);
}

TEST(SimCollective, JitterGrowsWithNodes) {
  auto m = frontier();
  auto few = shard_group_shape(16, 8);   // 2 nodes
  auto many = shard_group_shape(512, 8); // 64 nodes
  // Same per-rank shard: more hops AND more jitter.
  const double t_few = all_gather_seconds(1e6, few, m) / (16 - 1);
  const double t_many = all_gather_seconds(1e6, many, m) / (512 - 1);
  EXPECT_GT(t_many, t_few);
}

// ----- paper shape invariants ---------------------------------------------------

TEST(SimShapes, HybridOneEquivalentOrBetterThanNoShard) {
  // HYBRID_1GPU >= NO_SHARD (paper attributes the gap to implementation).
  for (int nodes : {4, 16, 64}) {
    EXPECT_GE(ips(models::vit_3b(), nodes,
                  plan_fsdp(ShardingStrategy::kHybridShard, 1)),
              ips(models::vit_3b(), nodes,
                  plan_fsdp(ShardingStrategy::kNoShard)));
  }
}

TEST(SimShapes, NoShardBeatsHybridTwoForSingleGpuModels) {
  for (const auto& cfg : {models::vit_base(), models::vit_3b()}) {
    for (int nodes : {4, 16, 64}) {
      EXPECT_GT(ips(cfg, nodes, plan_fsdp(ShardingStrategy::kNoShard)),
                ips(cfg, nodes,
                    plan_fsdp(ShardingStrategy::kHybridShard, 2)))
          << cfg.name << " nodes " << nodes;
    }
  }
}

TEST(SimShapes, DdpFsdpGapGrowsWithModelSize) {
  const ParallelPlan ddp = plan_fsdp(ShardingStrategy::kDdp);
  const double gap_base =
      ips(models::vit_base(), 64, plan_fsdp(ShardingStrategy::kNoShard)) /
      ips(models::vit_base(), 64, ddp);
  const double gap_3b =
      ips(models::vit_3b(), 64, plan_fsdp(ShardingStrategy::kNoShard)) /
      ips(models::vit_3b(), 64, ddp);
  EXPECT_GT(gap_base, 1.0);
  EXPECT_GT(gap_3b, gap_base);
}

TEST(SimShapes, FullShardDegradesAtScaleAndSmallModelsFlattenEarlier) {
  auto efficiency = [&](const models::ViTConfig& cfg, int nodes) {
    const double one = ips(cfg, 1, plan_fsdp(ShardingStrategy::kFullShard));
    return ips(cfg, nodes, plan_fsdp(ShardingStrategy::kFullShard)) /
           (one * nodes);
  };
  // Efficiency decays with node count...
  EXPECT_GT(efficiency(models::vit_base(), 4),
            efficiency(models::vit_base(), 64));
  // ...and decays faster for the smaller (lower-compute) model.
  EXPECT_LT(efficiency(models::vit_base(), 64),
            efficiency(models::vit_3b(), 64));
}

TEST(SimShapes, PrefetchOrderingBackwardPreBest) {
  // ViT-5B on 8 nodes, FULL_SHARD (Fig 2's setting).
  auto run = [&](BackwardPrefetch p, bool limit) {
    ParallelPlan plan = plan_fsdp(ShardingStrategy::kFullShard);
    plan.fsdp.prefetch = p;
    plan.fsdp.limit_all_gathers = limit;
    return ips(models::vit_5b(), 8, plan);
  };
  EXPECT_GE(run(BackwardPrefetch::kBackwardPre, true),
            run(BackwardPrefetch::kBackwardPost, true));
  EXPECT_GE(run(BackwardPrefetch::kBackwardPost, true),
            run(BackwardPrefetch::kNone, true));
  // The all-gather rate limiter helps (paper Fig 2).
  EXPECT_GE(run(BackwardPrefetch::kBackwardPre, true),
            run(BackwardPrefetch::kBackwardPre, false));
}

TEST(SimShapes, HybridEightOrSixteenBeatTwoForFiveB) {
  const double h2 =
      ips(models::vit_5b(), 32, plan_fsdp(ShardingStrategy::kHybridShard, 2));
  const double h8 =
      ips(models::vit_5b(), 32, plan_fsdp(ShardingStrategy::kHybridShard, 8));
  const double h16 = ips(models::vit_5b(), 32,
                         plan_fsdp(ShardingStrategy::kHybridShard, 16));
  EXPECT_GT(h8, h2);
  EXPECT_GT(h16, h2);
}

TEST(SimShapes, ShardGradOpScalesBestForFifteenB) {
  for (int nodes : {8, 32}) {
    const double sgo = ips(models::vit_15b(), nodes,
                           plan_fsdp(ShardingStrategy::kShardGradOp));
    const double full = ips(models::vit_15b(), nodes,
                            plan_fsdp(ShardingStrategy::kFullShard));
    const double h4 = ips(models::vit_15b(), nodes,
                          plan_fsdp(ShardingStrategy::kHybridShard, 4));
    EXPECT_GT(sgo, full);
    EXPECT_GT(sgo, h4);
  }
}

// ----- memory model -----------------------------------------------------------

TEST(SimMemory, NoShardThreeBExceedsSixtyGB) {
  TrainingSimulator sim(vit_step_workload(models::vit_3b(), 32), frontier(),
                        1, plan_fsdp(ShardingStrategy::kNoShard));
  // Paper: ViT-3B uses > 60 GB/GPU with NO_SHARD; fits in 64 GB.
  const double gb = sim.memory_footprint().total() / double(1ull << 30);
  EXPECT_GT(gb, 45.0);
  EXPECT_LT(gb, 64.0);
}

TEST(SimMemory, HybridTwoRoughlyHalvesShardedState) {
  auto w = vit_step_workload(models::vit_3b(), 32);
  TrainingSimulator ns(w, frontier(), 4, plan_fsdp(ShardingStrategy::kNoShard));
  TrainingSimulator h2(w, frontier(), 4,
                       plan_fsdp(ShardingStrategy::kHybridShard, 2));
  const auto mn = ns.memory_footprint();
  const auto mh = h2.memory_footprint();
  EXPECT_NEAR((mh.params + mh.grads + mh.optimizer) /
                  (mn.params + mn.grads + mn.optimizer),
              0.5, 0.02);
}

TEST(SimMemory, FullShardDropsWithWorldSize) {
  auto w = vit_step_workload(models::vit_3b(), 32);
  double prev = 1e18;
  for (int nodes : {1, 4, 16, 64}) {
    TrainingSimulator sim(w, frontier(), nodes,
                          plan_fsdp(ShardingStrategy::kFullShard));
    const double total = sim.memory_footprint().total();
    EXPECT_LT(total, prev);
    prev = total;
  }
  // Paper: down to a few GB at scale.
  EXPECT_LT(prev / double(1ull << 30), 8.0);
}

TEST(SimMemory, ShardGradOpBetweenFullAndNoShard) {
  auto w = vit_step_workload(models::vit_5b(), 32);
  TrainingSimulator full(w, frontier(), 8,
                         plan_fsdp(ShardingStrategy::kFullShard));
  TrainingSimulator sgo(w, frontier(), 8,
                        plan_fsdp(ShardingStrategy::kShardGradOp));
  EXPECT_GT(sgo.memory_footprint().total(), full.memory_footprint().total());
}

// ----- power, IO, weak scaling --------------------------------------------------

TEST(SimPower, HigherThroughputStrategyDrawsMorePower) {
  auto w = vit_step_workload(models::vit_5b(), 32);
  TrainingSimulator sgo(w, frontier(), 32,
                        plan_fsdp(ShardingStrategy::kShardGradOp));
  TrainingSimulator full(w, frontier(), 32,
                         plan_fsdp(ShardingStrategy::kFullShard));
  // SGO's higher ips comes with higher utilization => higher power
  // (paper's rocm-smi trace observation).
  EXPECT_GT(sgo.simulate_step().images_per_second_total,
            full.simulate_step().images_per_second_total);
  EXPECT_GT(sgo.power_draw().average_watts, full.power_draw().average_watts);
  EXPECT_LT(sgo.power_draw().average_watts,
            frontier().idle_power_w + frontier().compute_power_w +
                frontier().comm_power_w + 1.0);
}

TEST(SimIo, LinearInNodesAndAboveSynthetic) {
  auto enc = models::vit_3b();
  enc.img_size = 512;
  enc.patch_size = 16;
  auto w = mae_step_workload(models::mae_for(enc), 32);
  auto points = weak_scaling(w, frontier(), {1, 2, 4, 8, 16, 32, 64},
                             plan_fsdp(ShardingStrategy::kNoShard));
  ASSERT_EQ(points.size(), 7u);
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    // Paper Fig 1: IO above synthetic at every scale.
    EXPECT_GT(p.io_ips, p.syn_ips) << "nodes " << p.nodes;
    EXPECT_GE(p.syn_no_comm_ips, p.syn_ips);
    EXPECT_LE(p.real_ips, p.syn_ips);
    if (i > 0) {
      // IO linear; the IO-syn gap widens with scale.
      EXPECT_NEAR(p.io_ips / points[0].io_ips, p.nodes, 1e-6);
      EXPECT_GT(p.io_ips - p.syn_ips,
                points[i - 1].io_ips - points[i - 1].syn_ips);
    }
  }
  // Comm share grows toward the paper's ~20% at 64 nodes.
  EXPECT_GT(points.back().comm_fraction, 0.15);
  EXPECT_LT(points.back().comm_fraction, 0.30);
  EXPECT_GT(points.back().comm_fraction, points.front().comm_fraction);
}

TEST(SimWeakScaling, NeverExceedsIdeal) {
  auto w = vit_step_workload(models::vit_1b(), 32);
  auto points = weak_scaling(w, frontier(), {1, 4, 16, 64},
                             plan_fsdp(ShardingStrategy::kNoShard));
  for (const auto& p : points) {
    EXPECT_LE(p.real_ips, p.ideal_ips * 1.0001);
  }
}

TEST(SimShapes, CommCallCountsMatchStrategy) {
  auto w = vit_step_workload(models::vit_base(), 32);
  TrainingSimulator ns(w, frontier(), 4, plan_fsdp(ShardingStrategy::kNoShard));
  TrainingSimulator fs(w, frontier(), 4,
                       plan_fsdp(ShardingStrategy::kFullShard));
  // NO_SHARD: one all-reduce per unit (12 blocks + root).
  EXPECT_EQ(ns.simulate_step().comm_calls, 13);
  // FULL_SHARD: 2 gathers per block + 1 root gather + 13 reduce-scatters.
  EXPECT_EQ(fs.simulate_step().comm_calls, 12 * 2 + 1 + 13);
}

TEST(SimShapes, DisableCommIsUpperBound) {
  auto w = vit_step_workload(models::vit_3b(), 32);
  ParallelPlan with = plan_fsdp(ShardingStrategy::kNoShard);
  ParallelPlan without = with;
  without.disable_comm = true;
  TrainingSimulator a(w, frontier(), 16, with);
  TrainingSimulator b(w, frontier(), 16, without);
  EXPECT_GT(b.simulate_step().images_per_second_total,
            a.simulate_step().images_per_second_total);
}

TEST(SimEstimate, PretrainingCampaignArithmetic) {
  auto enc = models::vit_3b();
  enc.img_size = 512;
  enc.patch_size = 16;
  const auto w = mae_step_workload(models::mae_for(enc), 32);
  ParallelPlan plan;
  plan.fsdp.strategy = ShardingStrategy::kNoShard;
  const auto est =
      estimate_pretraining(w, frontier(), 8, plan, 990848, 100);
  // Global batch 2048 (paper Sec. V-B): 483 steps/epoch x 100.
  EXPECT_EQ(est.steps, (990848 / 2048) * 100);
  EXPECT_GT(est.wall_hours, 1.0);
  EXPECT_LT(est.wall_hours, 1000.0);
  EXPECT_NEAR(est.node_hours, est.wall_hours * 8, 1e-9);
  EXPECT_GT(est.energy_mwh, 0.0);

  // More nodes: less wall time, roughly constant-or-higher node-hours.
  const auto est64 =
      estimate_pretraining(w, frontier(), 64, plan, 990848, 100);
  EXPECT_LT(est64.wall_hours, est.wall_hours);
  EXPECT_GE(est64.node_hours, 0.9 * est.node_hours);
}

TEST(SimShapes, HybridGroupMustDivideWorld) {
  auto w = vit_step_workload(models::vit_base(), 32);
  EXPECT_THROW(TrainingSimulator(w, frontier(), 1,
                                 plan_fsdp(ShardingStrategy::kHybridShard, 3)),
               Error);
}

// ----- golden figures -----------------------------------------------------------

// Pins rows of bench_fig2/bench_fig4 at the precision the benches print, so
// any change to the step plan or the cost model shows up here as a diff to
// review (and to carry into EXPERIMENTS.md), not as silently moved figures.
struct GoldenRow {
  const char* label;
  ShardingStrategy strategy;
  int group;
  BackwardPrefetch prefetch;
  bool limit;
  const char* ips;  // images/s, as the bench prints it
};

std::string golden_ips(const models::ViTConfig& cfg, int nodes,
                       const GoldenRow& row) {
  ParallelPlan plan = plan_fsdp(row.strategy, row.group);
  plan.fsdp.prefetch = row.prefetch;
  plan.fsdp.limit_all_gathers = row.limit;
  return fmt_f(ips(cfg, nodes, plan), 0);
}

TEST(SimGolden, Fig2FsdpConfigsAtEightNodes) {
  using BP = BackwardPrefetch;
  constexpr auto kFull = ShardingStrategy::kFullShard;
  constexpr auto kSgo = ShardingStrategy::kShardGradOp;
  constexpr auto kHybrid = ShardingStrategy::kHybridShard;
  const GoldenRow rows[] = {
      {"FULL_SHARD None off", kFull, 1, BP::kNone, false, "348"},
      {"FULL_SHARD None on", kFull, 1, BP::kNone, true, "356"},
      {"FULL_SHARD POST off", kFull, 1, BP::kBackwardPost, false, "369"},
      {"FULL_SHARD POST on", kFull, 1, BP::kBackwardPost, true, "377"},
      {"FULL_SHARD PRE off", kFull, 1, BP::kBackwardPre, false, "395"},
      {"FULL_SHARD PRE on", kFull, 1, BP::kBackwardPre, true, "401"},
      {"SHARD_GRAD_OP None off", kSgo, 1, BP::kNone, false, "426"},
      {"SHARD_GRAD_OP None on", kSgo, 1, BP::kNone, true, "430"},
      {"SHARD_GRAD_OP POST off", kSgo, 1, BP::kBackwardPost, false, "426"},
      {"SHARD_GRAD_OP POST on", kSgo, 1, BP::kBackwardPost, true, "430"},
      {"SHARD_GRAD_OP PRE off", kSgo, 1, BP::kBackwardPre, false, "426"},
      {"SHARD_GRAD_OP PRE on", kSgo, 1, BP::kBackwardPre, true, "430"},
      {"HYBRID_2GPUs None off", kHybrid, 2, BP::kNone, false, "294"},
      {"HYBRID_2GPUs None on", kHybrid, 2, BP::kNone, true, "296"},
      {"HYBRID_2GPUs POST off", kHybrid, 2, BP::kBackwardPost, false, "353"},
      {"HYBRID_2GPUs POST on", kHybrid, 2, BP::kBackwardPost, true, "356"},
      {"HYBRID_2GPUs PRE off", kHybrid, 2, BP::kBackwardPre, false, "362"},
      {"HYBRID_2GPUs PRE on", kHybrid, 2, BP::kBackwardPre, true, "364"},
  };
  for (const GoldenRow& row : rows) {
    EXPECT_EQ(golden_ips(models::vit_5b(), 8, row), row.ips) << row.label;
  }
}

TEST(SimGolden, Fig4LargeModelsAtThirtyTwoNodes) {
  constexpr auto kPre = BackwardPrefetch::kBackwardPre;
  constexpr auto kHybrid = ShardingStrategy::kHybridShard;
  const GoldenRow vit5b[] = {
      {"HYBRID_2GPUs", kHybrid, 2, kPre, true, "1360"},
      {"HYBRID_4GPUs", kHybrid, 4, kPre, true, "1530"},
      {"HYBRID_8GPUs", kHybrid, 8, kPre, true, "1555"},
      {"HYBRID_16GPUs", kHybrid, 16, kPre, true, "1599"},
      {"FULL_SHARD", ShardingStrategy::kFullShard, 1, kPre, true, "1539"},
      {"SHARD_GRAD_OP", ShardingStrategy::kShardGradOp, 1, kPre, true,
       "1668"},
  };
  const GoldenRow vit15b[] = {
      {"HYBRID_4GPUs", kHybrid, 4, kPre, true, "400"},
      {"HYBRID_8GPUs", kHybrid, 8, kPre, true, "407"},
      {"HYBRID_16GPUs", kHybrid, 16, kPre, true, "418"},
      {"FULL_SHARD", ShardingStrategy::kFullShard, 1, kPre, true, "406"},
      {"SHARD_GRAD_OP", ShardingStrategy::kShardGradOp, 1, kPre, true,
       "439"},
  };
  for (const GoldenRow& row : vit5b) {
    EXPECT_EQ(golden_ips(models::vit_5b(), 32, row), row.ips)
        << "ViT-5B " << row.label;
  }
  for (const GoldenRow& row : vit15b) {
    EXPECT_EQ(golden_ips(models::vit_15b(), 32, row), row.ips)
        << "ViT-15B " << row.label;
  }
}

TEST(SimGolden, Fig4PowerTraceAtThirtyTwoNodes) {
  struct PowerRow {
    const char* label;
    ParallelPlan plan;
    const char* row;  // ips | avg power [W] | compute | comm util | mem [GB]
  };
  const PowerRow rows[] = {
      {"HYBRID_2GPUs", plan_fsdp(ShardingStrategy::kHybridShard, 2),
       "1360|404|0.68|0.56|35.9"},
      {"FULL_SHARD", plan_fsdp(ShardingStrategy::kFullShard),
       "1539|432|0.77|0.46|5.0"},
      {"SHARD_GRAD_OP", plan_fsdp(ShardingStrategy::kShardGradOp),
       "1668|451|0.83|0.33|20.0"},
  };
  for (const PowerRow& r : rows) {
    TrainingSimulator sim(vit_step_workload(models::vit_5b(), 32), frontier(),
                          32, r.plan);
    const PowerDraw power = sim.power_draw();
    const std::string got =
        fmt_f(sim.simulate_step().images_per_second_total, 0) + "|" +
        fmt_f(power.average_watts, 0) + "|" +
        fmt_f(power.compute_utilization, 2) + "|" +
        fmt_f(power.comm_utilization, 2) + "|" +
        fmt_f(sim.memory_footprint().total() / double(1ull << 30), 1);
    EXPECT_EQ(got, r.row) << r.label;
  }
}

// A DDP plan whose gradient buckets hold `cap_bytes` each.
ParallelPlan ddp_plan(i64 cap_bytes = 25ll * 1024 * 1024) {
  ParallelPlan p = plan_fsdp(ShardingStrategy::kDdp);
  p.fsdp.ddp_bucket_cap_bytes = cap_bytes;
  return p;
}

// Pins bench_fig3's DDP rows and bench_ablation_ddp_bucket (ViT-3B at 32
// nodes) at the precision the benches print.
TEST(SimGolden, Fig3DdpRowsAndBucketAblation) {
  const std::vector<int> nodes = {1, 2, 4, 8, 16, 32, 64};
  struct Fig3Row {
    models::ViTConfig cfg;
    const char* ips;  // n=1..64, '/'-separated
  };
  const Fig3Row rows[] = {
      {models::vit_base(), "2768/5390/10510/20378/38932/71539/117223"},
      {models::vit_huge(), "325/637/1251/2444/4725/8929/15216"},
      {models::vit_1b(), "228/446/875/1709/3305/6246/10628"},
      {models::vit_3b(), "69/135/264/516/997/1884/3193"},
  };
  for (const Fig3Row& row : rows) {
    std::string got;
    for (int n : nodes) {
      got += (got.empty() ? "" : "/") + fmt_f(ips(row.cfg, n, ddp_plan()), 0);
    }
    EXPECT_EQ(got, row.ips) << row.cfg.name;
  }

  struct BucketRow {
    i64 mb;
    const char* row;  // ips@32n | comm calls
  };
  const BucketRow buckets[] = {
      {1, "635|11627"},  {5, "1149|2326"},  {25, "1884|466"},
      {100, "2012|117"}, {400, "2047|30"},
  };
  for (const BucketRow& b : buckets) {
    TrainingSimulator sim(vit_step_workload(models::vit_3b(), 32), frontier(),
                          32, ddp_plan(b.mb * 1024 * 1024));
    const StepTiming t = sim.simulate_step();
    EXPECT_EQ(fmt_f(t.images_per_second_total, 0) + "|" +
                  fmt_i(t.comm_calls),
              b.row)
        << b.mb << " MB buckets";
  }
}

// HYBRID chaining in the latency-bound regime (ROADMAP item 4): six blocks
// whose backward (50 us) is shorter than their reduce-scatter (~150 us of
// per-op overhead alone), and a root unit whose 1 ms backward stands in for
// a decoder-heavy MAE root. The host waits RS(i+1) before it posts the
// replica all-reduce at stage i's after-backward hook, so the next backward
// cannot start before that reduce-scatter ends. A block's backward also
// waits its own gather, which the FIFO comm stream already queued behind
// RS(i+1); the root's backward waits no gather, so in this shape only the
// host-order gate holds it behind RS(1), and dropping that gate starts the
// root backward ~84 us early.
TEST(SimGolden, HybridChainingWaitsReduceScatterWhenLatencyBound) {
  const MachineSpec machine = frontier();
  const double flops = machine.gpu.sustained_flops;
  StageWork block;
  block.fwd_flops = 25e-6 * flops;
  block.bwd_flops = 50e-6 * flops;
  block.param_elements = 1 << 16;
  StepWorkload w;
  w.stages.assign(6, block);
  w.root = block;
  w.root.bwd_flops = 1e-3 * flops;
  w.images_per_step = 8;
  w.total_param_elements = 7 * block.param_elements;

  TrainingSimulator sim(w, machine, 1,
                        plan_fsdp(ShardingStrategy::kHybridShard, 2));
  const StepTiming t = sim.simulate_step();
  // Every reduce-scatter outlasts the backward that follows it.
  EXPECT_GT(machine.shard_op_overhead, block.bwd_flops / flops);
  EXPECT_EQ(fmt_f(1e3 * t.step_seconds, 3), "6.516");
  EXPECT_EQ(fmt_f(1e3 * t.exposed_comm_seconds, 3), "3.536");
}

}  // namespace
}  // namespace geofm
