// FSDP/DDP runtime tests. The load-bearing property: training a model
// under ANY sharding strategy (DDP included) on k ranks (each with a slice
// of the global batch) must match single-rank training on the full batch,
// step for step. Also verifies the communication schedules per
// strategy/prefetch mode and DDP's bucket plan.
#include <gtest/gtest.h>

#include <map>
#include <mutex>

#include "comm/communicator.hpp"
#include "models/mae.hpp"
#include "obs/metrics.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::run_ranks;
using parallel::BackwardPrefetch;
using parallel::Fsdp;
using parallel::FsdpEvent;
using parallel::FsdpOptions;
using parallel::ShardingStrategy;

models::MaeConfig test_mae_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  return models::mae_for(enc);
}

Tensor make_global_batch(i64 n, u64 seed) {
  Rng rng(seed);
  return Tensor::randn({n, 3, 16, 16}, rng, 0.5f);
}

Tensor batch_slice(const Tensor& global, i64 begin, i64 count) {
  const i64 per = global.numel() / global.dim(0);
  Tensor out({count, global.dim(1), global.dim(2), global.dim(3)});
  out.copy_(global.flat_view(begin * per, count * per));
  return out;
}

// Single-rank reference: full-batch training, plain module parameters.
std::vector<float> reference_params_after_training(i64 global_batch,
                                                   int steps) {
  Rng rng(42);
  models::MAE mae(test_mae_cfg(), rng);
  optim::AdamW opt(mae.parameters(), 1e-3, 0.9, 0.95, 1e-8, 0.01);
  Tensor batch = make_global_batch(global_batch, 777);
  for (int s = 0; s < steps; ++s) {
    Rng mask_rng(static_cast<u64>(9000 + s));
    opt.zero_grad();
    mae.forward(batch, mask_rng, /*sample_offset=*/0);
    mae.backward();
    opt.step();
  }
  std::vector<float> out;
  for (nn::Parameter* p : mae.parameters()) {
    for (i64 i = 0; i < p->numel(); ++i) out.push_back(p->value[i]);
  }
  return out;
}

// Distributed run: k ranks, each training its slice under `opts`.
// Returns rank 0's final full parameter vector.
std::vector<float> fsdp_params_after_training(int n_ranks, i64 global_batch,
                                              int steps,
                                              const FsdpOptions& opts) {
  GEOFM_CHECK(global_batch % n_ranks == 0);
  const i64 local = global_batch / n_ranks;
  std::vector<float> rank0_params;
  std::mutex mu;

  run_ranks(n_ranks, [&](Communicator& c) {
    Rng rng(42);  // identical init on every rank (broadcast double-checks)
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, opts);
    optim::AdamW opt(fsdp.optimizer_parameters(), 1e-3, 0.9, 0.95, 1e-8,
                     0.01);
    Tensor global = make_global_batch(global_batch, 777);
    Tensor mine = batch_slice(global, c.rank() * local, local);

    for (int s = 0; s < steps; ++s) {
      Rng mask_rng(static_cast<u64>(9000 + s));
      fsdp.begin_step();
      mae.forward(mine, mask_rng, /*sample_offset=*/c.rank() * local);
      mae.backward();
      fsdp.end_backward();
      opt.step();
    }

    // Materialize full parameters for comparison.
    fsdp.gather_full_parameters();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      rank0_params.clear();
      for (nn::Parameter* p : mae.module().parameters()) {
        for (i64 i = 0; i < p->numel(); ++i) {
          rank0_params.push_back(p->value[i]);
        }
      }
    }
    c.barrier();
  });
  return rank0_params;
}

void expect_params_close(const std::vector<float>& a,
                         const std::vector<float>& b, float tol) {
  ASSERT_EQ(a.size(), b.size());
  double max_err = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_err = std::max(max_err, static_cast<double>(std::fabs(a[i] - b[i])));
  }
  EXPECT_LT(max_err, tol) << "parameter divergence " << max_err;
}

struct StrategyCase {
  ShardingStrategy strategy;
  int hybrid_group;
  const char* label;
};

class FsdpEquivalence : public ::testing::TestWithParam<StrategyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Strategies, FsdpEquivalence,
    ::testing::Values(
        StrategyCase{ShardingStrategy::kNoShard, 1, "no_shard"},
        StrategyCase{ShardingStrategy::kFullShard, 1, "full_shard"},
        StrategyCase{ShardingStrategy::kShardGradOp, 1, "shard_grad_op"},
        StrategyCase{ShardingStrategy::kHybridShard, 2, "hybrid_2"},
        StrategyCase{ShardingStrategy::kHybridShard, 1, "hybrid_1"},
        StrategyCase{ShardingStrategy::kHybridShard, 4, "hybrid_4_fullshard"}),
    [](const auto& info) { return info.param.label; });

TEST_P(FsdpEquivalence, MatchesSingleRankTraining) {
  const auto& p = GetParam();
  FsdpOptions opts;
  opts.strategy = p.strategy;
  opts.hybrid_group_size = p.hybrid_group;
  const auto ref = reference_params_after_training(8, 3);
  const auto got = fsdp_params_after_training(4, 8, 3, opts);
  // fp32 collectives reorder float sums; tolerance covers 3 AdamW steps.
  expect_params_close(got, ref, 2e-4f);
}

TEST(FsdpEquivalence, PrefetchModesAreNumericallyIdentical) {
  FsdpOptions a;
  a.strategy = ShardingStrategy::kFullShard;
  a.prefetch = BackwardPrefetch::kNone;
  FsdpOptions b = a;
  b.prefetch = BackwardPrefetch::kBackwardPre;
  FsdpOptions c = a;
  c.prefetch = BackwardPrefetch::kBackwardPost;
  const auto ra = fsdp_params_after_training(2, 4, 2, a);
  const auto rb = fsdp_params_after_training(2, 4, 2, b);
  const auto rc = fsdp_params_after_training(2, 4, 2, c);
  expect_params_close(ra, rb, 0.f + 1e-7f);
  expect_params_close(ra, rc, 0.f + 1e-7f);
}

// ----- schedule structure -----------------------------------------------------

std::map<FsdpEvent::Type, int> count_events(const std::vector<FsdpEvent>& ev) {
  std::map<FsdpEvent::Type, int> counts;
  for (const auto& e : ev) counts[e.type]++;
  return counts;
}

// Runs one FSDP step on 4 ranks and returns rank 0's recorded schedule.
std::vector<FsdpEvent> one_step_schedule(const FsdpOptions& opts,
                                         int n_ranks = 4) {
  std::vector<FsdpEvent> schedule;
  std::mutex mu;
  run_ranks(n_ranks, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, opts);
    Tensor batch = make_global_batch(2, 5);
    Rng mask_rng(7);
    fsdp.begin_step();
    mae.forward(batch, mask_rng, 0);
    mae.backward();
    fsdp.end_backward();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      schedule = fsdp.last_schedule();
    }
    c.barrier();
  });
  return schedule;
}

TEST(FsdpSchedule, FullShardGathersTwicePerUnitPerStep) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  const auto schedule = one_step_schedule(opts);
  auto counts = count_events(schedule);
  // 5 stage units (3 enc + 2 dec) + root. Stages gather fwd + bwd; root
  // gathers once. Every unit reduce-scatters once.
  EXPECT_EQ(counts[FsdpEvent::Type::kAllGather], 5 * 2 + 1);
  EXPECT_EQ(counts[FsdpEvent::Type::kReduceScatter], 6);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllReduce], 0);
}

TEST(FsdpSchedule, ShardGradOpGathersOncePerUnitPerStep) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kShardGradOp;
  const auto schedule = one_step_schedule(opts);
  auto counts = count_events(schedule);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllGather], 6);  // every unit once
  EXPECT_EQ(counts[FsdpEvent::Type::kReduceScatter], 6);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllReduce], 0);
}

TEST(FsdpSchedule, NoShardOnlyAllReduces) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kNoShard;
  const auto schedule = one_step_schedule(opts);
  auto counts = count_events(schedule);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllGather], 0);
  EXPECT_EQ(counts[FsdpEvent::Type::kReduceScatter], 0);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllReduce], 6);
}

TEST(FsdpSchedule, HybridDoesBothShardAndReplicaComm) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kHybridShard;
  opts.hybrid_group_size = 2;
  const auto schedule = one_step_schedule(opts);
  auto counts = count_events(schedule);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllGather], 11);
  EXPECT_EQ(counts[FsdpEvent::Type::kReduceScatter], 6);
  EXPECT_EQ(counts[FsdpEvent::Type::kAllReduce], 6);  // replica groups
}

TEST(FsdpSchedule, BackwardPrePrefetchesBeforeReduce) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  opts.prefetch = BackwardPrefetch::kBackwardPre;
  const auto schedule = one_step_schedule(opts);

  // Find the backward-phase gather of unit 3 (stage before last, 5 units:
  // last backward stage is 4). Under BACKWARD_PRE, the gather of unit 3
  // must appear BEFORE the reduce-scatter of unit 4.
  int gather3 = -1, reduce4 = -1;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto& e = schedule[i];
    if (e.type == FsdpEvent::Type::kReduceScatter && e.unit == 4) {
      reduce4 = static_cast<int>(i);
    }
    if (e.type == FsdpEvent::Type::kAllGather && e.unit == 3 && reduce4 < 0 &&
        i > 0) {
      // Track the LAST gather of unit 3 before reduce4 (the backward one).
      gather3 = static_cast<int>(i);
    }
  }
  ASSERT_GE(reduce4, 0);
  ASSERT_GE(gather3, 0);
  EXPECT_LT(gather3, reduce4);
}

TEST(FsdpSchedule, NoPrefetchGathersAfterReduce) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  opts.prefetch = BackwardPrefetch::kNone;
  const auto schedule = one_step_schedule(opts);

  // Without prefetch, unit 3's backward gather comes after unit 4's
  // reduce-scatter.
  int reduce4 = -1;
  int gather3_after = -1;
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto& e = schedule[i];
    if (e.type == FsdpEvent::Type::kReduceScatter && e.unit == 4) {
      reduce4 = static_cast<int>(i);
    }
    if (reduce4 >= 0 && e.type == FsdpEvent::Type::kAllGather && e.unit == 3) {
      gather3_after = static_cast<int>(i);
    }
  }
  ASSERT_GE(reduce4, 0);
  EXPECT_GT(gather3_after, reduce4);
}

TEST(FsdpSchedule, PrefetchRaisesInFlightPeak) {
  FsdpOptions none;
  none.strategy = ShardingStrategy::kFullShard;
  none.prefetch = BackwardPrefetch::kNone;
  FsdpOptions pre = none;
  pre.prefetch = BackwardPrefetch::kBackwardPre;

  int peak_none = 0, peak_pre = 0;
  run_ranks(2, [&](Communicator& c) {
    for (const auto* opts : {&none, &pre}) {
      Rng rng(1);
      models::MAE mae(test_mae_cfg(), rng);
      Fsdp fsdp(mae, c, *opts);
      Tensor batch = make_global_batch(2, 5);
      Rng mask_rng(7);
      fsdp.begin_step();
      mae.forward(batch, mask_rng, 0);
      mae.backward();
      fsdp.end_backward();
      if (c.rank() == 0) {
        (opts == &none ? peak_none : peak_pre) = fsdp.peak_unsharded_units();
      }
      c.barrier();
    }
  });
  EXPECT_GE(peak_pre, peak_none);
  EXPECT_GE(peak_pre, 2);  // current unit + prefetched unit
}

// ----- rate limiter and overlap accounting --------------------------------------

// One full training step under `opts` on `n_ranks`; returns rank 0's
// (peak_inflight_gathers, step stats).
std::pair<int, comm::CommStats> one_step_overlap(const FsdpOptions& opts,
                                                 int n_ranks,
                                                 bool gather_after = false) {
  int peak = 0;
  comm::CommStats stats;
  std::mutex mu;
  run_ranks(n_ranks, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, opts);
    Tensor batch = make_global_batch(2, 5);
    Rng mask_rng(7);
    fsdp.begin_step();
    mae.forward(batch, mask_rng, 0);
    mae.backward();
    fsdp.end_backward();
    if (gather_after) fsdp.gather_full_parameters();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      peak = fsdp.peak_inflight_gathers();
      stats = fsdp.last_step_stats();
    }
    c.barrier();
  });
  return {peak, stats};
}

TEST(FsdpLimiter, CapHoldsOnFullShardMultiRank) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  opts.prefetch = BackwardPrefetch::kBackwardPre;
  opts.limit_all_gathers = true;
  const auto [peak, stats] = one_step_overlap(opts, 4);
  EXPECT_GE(peak, 1);
  EXPECT_LE(peak, parallel::kAllGatherInflightCap);
  EXPECT_GT(stats.waits, 0);
}

TEST(FsdpLimiter, CapHoldsThroughFullParameterGather) {
  // gather_full_parameters() issues every unit's gather; the limiter must
  // still bound how many are in flight at once.
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  opts.limit_all_gathers = true;
  const auto [peak, stats] = one_step_overlap(opts, 4, /*gather_after=*/true);
  EXPECT_LE(peak, parallel::kAllGatherInflightCap);
}

TEST(FsdpLimiter, DisablingLimiterExceedsCap) {
  // With the limiter off the step plan issues every stage gather up front
  // in begin_step(), so the in-flight count reaches the unit count (5),
  // proving the cap above is enforcement and not a structural accident.
  for (ShardingStrategy strategy :
       {ShardingStrategy::kShardGradOp, ShardingStrategy::kFullShard}) {
    FsdpOptions opts;
    opts.strategy = strategy;
    opts.limit_all_gathers = false;
    const auto [peak, stats] = one_step_overlap(opts, 4);
    EXPECT_GT(peak, parallel::kAllGatherInflightCap)
        << parallel::to_string(strategy);
    EXPECT_EQ(peak, 5) << parallel::to_string(strategy);
  }
}

TEST(FsdpLimiter, LimiterCapsShardGradOpBatchIssue) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kShardGradOp;
  opts.limit_all_gathers = true;
  const auto [peak, stats] = one_step_overlap(opts, 4);
  EXPECT_LE(peak, parallel::kAllGatherInflightCap);
}

TEST(FsdpLimiter, PlanNeverStallsInsideAStep) {
  // The step plan's forward lookahead and backward prefetch stay within the
  // cap, so the runtime limiter never has to block a training step.
  auto& stalls =
      obs::MetricsRegistry::instance().counter("fsdp.limiter_stalls");
  for (const auto& [strategy, group] :
       {std::pair{ShardingStrategy::kFullShard, 1},
        std::pair{ShardingStrategy::kShardGradOp, 1},
        std::pair{ShardingStrategy::kHybridShard, 2}}) {
    for (BackwardPrefetch prefetch :
         {BackwardPrefetch::kNone, BackwardPrefetch::kBackwardPost,
          BackwardPrefetch::kBackwardPre}) {
      FsdpOptions opts;
      opts.strategy = strategy;
      opts.hybrid_group_size = group;
      opts.prefetch = prefetch;
      opts.limit_all_gathers = true;
      const double before = stalls.value();
      const auto [peak, stats] = one_step_overlap(opts, 4);
      const std::string label =
          parallel::to_string(strategy) + "/" + parallel::to_string(prefetch);
      EXPECT_EQ(stalls.value(), before) << label;
      EXPECT_GE(peak, 1) << label;
      EXPECT_LE(peak, parallel::kAllGatherInflightCap) << label;
    }
  }
}

TEST(FsdpOverlap, StepStatsAccountEveryWait) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kFullShard;
  opts.prefetch = BackwardPrefetch::kBackwardPre;
  const auto [peak, stats] = one_step_overlap(opts, 4);
  // FULL_SHARD on one shard group: 11 gathers + 6 reduce-scatters waited.
  EXPECT_EQ(stats.waits, 17);
  EXPECT_GE(stats.busy_seconds, 0.0);
  EXPECT_GE(stats.exposed_wait_seconds, 0.0);
  EXPECT_GE(stats.overlapped_seconds(), 0.0);
  EXPECT_GE(stats.completed_before_wait, 0);
  EXPECT_LE(stats.completed_before_wait, stats.waits);
}

// ----- step plan ----------------------------------------------------------------

// The communication events a step plan's ops record, in plan order.
std::vector<std::pair<FsdpEvent::Type, int>> plan_events(
    const parallel::StepPlan& plan) {
  using Op = parallel::StepOp::Type;
  std::vector<std::pair<FsdpEvent::Type, int>> out;
  for (const auto& point : plan) {
    for (const auto& op : point.ops) {
      switch (op.type) {
        case Op::kGatherPost:
          out.push_back({FsdpEvent::Type::kAllGather, op.unit});
          break;
        case Op::kReshard:
          out.push_back({FsdpEvent::Type::kReshard, op.unit});
          break;
        case Op::kReduceScatterPost:
          out.push_back({FsdpEvent::Type::kReduceScatter, op.unit});
          break;
        case Op::kReplicaAllReducePost:
        case Op::kAllReducePost:
        case Op::kBucketAllReducePost:
          out.push_back({FsdpEvent::Type::kAllReduce, op.unit});
          break;
        case Op::kGatherWait:
        case Op::kDrain:
          break;
      }
    }
  }
  return out;
}

FsdpOptions ddp_options(i64 bucket_cap_bytes = 25ll * 1024 * 1024) {
  FsdpOptions opts;
  opts.strategy = ShardingStrategy::kDdp;
  opts.ddp_bucket_cap_bytes = bucket_cap_bytes;
  return opts;
}

// Gradient elements per stage unit and in the root unit of `model`.
std::vector<i64> stage_elements(nn::StagedModel& model) {
  std::vector<i64> out;
  for (nn::Module* stage : model.stages()) {
    out.push_back(0);
    for (nn::Parameter* p : stage->parameters()) out.back() += p->numel();
  }
  return out;
}

i64 root_elements(nn::StagedModel& model) {
  i64 n = 0;
  for (nn::Parameter* p : model.root_params()) n += p->numel();
  return n;
}

// The plan `fsdp` runs on `model`.
parallel::StepPlan plan_of(nn::StagedModel& model, const Fsdp& fsdp) {
  return parallel::plan_step(stage_elements(model), root_elements(model),
                             fsdp.options(), fsdp.shard_group_size(),
                             fsdp.replica_group_size());
}

// True if the runtime's recorded schedule for a steady-state step under
// `opts` on 4 ranks is exactly the plan's comm ops, in order, on every
// rank; otherwise names the first rank that differs in `mismatch`.
bool runtime_schedule_equals_plan(const FsdpOptions& opts,
                                  std::string* mismatch) {
  std::mutex mu;
  std::vector<std::string> mismatches;
  run_ranks(4, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, opts);
    Tensor batch = make_global_batch(2, 5);
    for (int step = 0; step < 2; ++step) {
      Rng mask_rng(static_cast<u64>(7 + step));
      fsdp.begin_step();
      mae.forward(batch, mask_rng, 0);
      mae.backward();
      fsdp.end_backward();
    }
    std::vector<std::pair<FsdpEvent::Type, int>> recorded;
    for (const FsdpEvent& e : fsdp.last_schedule()) {
      recorded.push_back({e.type, e.unit});
    }
    if (recorded != plan_events(plan_of(mae, fsdp))) {
      std::lock_guard<std::mutex> lk(mu);
      mismatches.push_back("rank " + std::to_string(c.rank()));
    }
    c.barrier();
  });
  if (!mismatches.empty()) *mismatch = mismatches.front();
  return mismatches.empty();
}

TEST(FsdpPlan, RuntimeScheduleEqualsPlan) {
  // Every strategy x prefetch x limiter combination on 4 ranks, and DDP
  // at a cap that splits units and at the 25 MB default: the collectives
  // the runtime records in a steady-state step are exactly the plan's comm
  // ops, in order, on every rank.
  const StrategyCase strategies[] = {
      {ShardingStrategy::kNoShard, 1, "no_shard"},
      {ShardingStrategy::kFullShard, 1, "full_shard"},
      {ShardingStrategy::kShardGradOp, 1, "shard_grad_op"},
      {ShardingStrategy::kHybridShard, 1, "hybrid_1"},
      {ShardingStrategy::kHybridShard, 2, "hybrid_2"},
      {ShardingStrategy::kHybridShard, 4, "hybrid_4"},
  };
  for (const StrategyCase& sc : strategies) {
    for (BackwardPrefetch prefetch :
         {BackwardPrefetch::kNone, BackwardPrefetch::kBackwardPost,
          BackwardPrefetch::kBackwardPre}) {
      for (bool limit : {true, false}) {
        FsdpOptions opts;
        opts.strategy = sc.strategy;
        opts.hybrid_group_size = sc.hybrid_group;
        opts.prefetch = prefetch;
        opts.limit_all_gathers = limit;
        const std::string label = std::string(sc.label) + "/" +
                                  parallel::to_string(prefetch) +
                                  (limit ? "/limit" : "/nolimit");
        std::string mismatch;
        EXPECT_TRUE(runtime_schedule_equals_plan(opts, &mismatch))
            << label << ": schedule differs from plan on " << mismatch;
      }
    }
  }
  for (i64 cap : {i64{4096}, i64{25} * 1024 * 1024}) {
    std::string mismatch;
    EXPECT_TRUE(runtime_schedule_equals_plan(ddp_options(cap), &mismatch))
        << "ddp/" << cap << " B: schedule differs from plan on " << mismatch;
  }
}

TEST(FsdpPlan, HookOutOfPlanOrderThrows) {
  run_ranks(1, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, FsdpOptions{});
    Tensor batch = make_global_batch(2, 5);
    Rng mask_rng(7);
    // A forward without begin_step(): before_forward(0) is not next.
    EXPECT_THROW(mae.forward(batch, mask_rng, 0), parallel::HookOrderError);
    // end_backward() straight after begin_step() skips the whole step.
    fsdp.begin_step();
    EXPECT_THROW(fsdp.end_backward(), parallel::HookOrderError);
    // begin_step() always restarts the plan, so a full step still runs.
    fsdp.begin_step();
    mae.forward(batch, mask_rng, 0);
    mae.backward();
    EXPECT_NO_THROW(fsdp.end_backward());
  });
}

TEST(FsdpPlan, LookaheadFollowsLimiter) {
  // FULL_SHARD forward, 5 units: with the limiter, begin_step posts units
  // 0 and 1 and before_forward(i) posts unit i + 1; without it, begin_step
  // posts all five.
  using Op = parallel::StepOp::Type;
  auto begin_gathers = [](bool limit) {
    FsdpOptions opts;
    opts.limit_all_gathers = limit;
    const auto plan =
        parallel::plan_step(std::vector<i64>(5, 64), 64, opts, 4, 1);
    int n = 0;
    for (const auto& op : plan.front().ops) {
      n += op.type == Op::kGatherPost;
    }
    return n;
  };
  EXPECT_EQ(begin_gathers(true), 1 + parallel::kAllGatherInflightCap);
  EXPECT_EQ(begin_gathers(false), 1 + 5);

  FsdpOptions opts;
  const auto plan =
      parallel::plan_step(std::vector<i64>(5, 64), 64, opts, 4, 1);
  for (const auto& point : plan) {
    if (point.hook != parallel::StepHook::kBeforeForward) continue;
    std::vector<parallel::StepOp> expect;
    if (point.stage > 0 && point.stage + 1 < 5) {
      expect.push_back({Op::kGatherPost, point.stage + 1});
    }
    expect.push_back({Op::kGatherWait, point.stage});
    EXPECT_EQ(point.ops, expect) << "before_forward(" << point.stage << ")";
  }
}

// ----- sharded storage accounting ----------------------------------------------

TEST(FsdpMemory, ShardElementsScaleInverselyWithGroupSize) {
  std::map<int, i64> shard_elems;
  std::mutex mu;
  for (int gs : {1, 2, 4}) {
    FsdpOptions opts;
    opts.strategy = ShardingStrategy::kHybridShard;
    opts.hybrid_group_size = gs;
    run_ranks(4, [&](Communicator& c) {
      Rng rng(1);
      models::MAE mae(test_mae_cfg(), rng);
      Fsdp fsdp(mae, c, opts);
      if (c.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        shard_elems[gs] = fsdp.shard_elements_per_rank();
      }
      c.barrier();
    });
  }
  // Halving/quartering (up to per-unit padding).
  EXPECT_NEAR(static_cast<double>(shard_elems[1]) / shard_elems[2], 2.0, 0.01);
  EXPECT_NEAR(static_cast<double>(shard_elems[1]) / shard_elems[4], 4.0, 0.02);
}

TEST(FsdpMemory, OptimizerParametersCoverAllUnits) {
  run_ranks(2, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    FsdpOptions opts;
    opts.strategy = ShardingStrategy::kFullShard;
    Fsdp fsdp(mae, c, opts);
    auto params = fsdp.optimizer_parameters();
    EXPECT_EQ(static_cast<int>(params.size()), fsdp.n_units() + 1);
    i64 total = 0;
    for (nn::Parameter* p : params) total += p->numel();
    EXPECT_EQ(total, fsdp.shard_elements_per_rank());
  });
}

// ----- DDP ---------------------------------------------------------------------

// The bucket ops of a DDP plan for `model` on 4 ranks, in posting order.
std::vector<parallel::StepOp> ddp_buckets(nn::StagedModel& model,
                                          i64 bucket_cap_bytes) {
  std::vector<parallel::StepOp> out;
  const auto plan =
      parallel::plan_step(stage_elements(model), root_elements(model),
                          ddp_options(bucket_cap_bytes), 1, 4);
  for (const auto& point : plan) {
    for (const auto& op : point.ops) {
      if (op.type == parallel::StepOp::Type::kBucketAllReducePost) {
        out.push_back(op);
      }
    }
  }
  return out;
}

TEST(Ddp, MatchesSingleRankTraining) {
  const auto ref = reference_params_after_training(8, 3);
  const auto got = fsdp_params_after_training(4, 8, 3, ddp_options());
  expect_params_close(got, ref, 2e-4f);
}

TEST(Ddp, BucketsRespectCapAndCoverEverything) {
  Rng rng(1);
  models::MAE mae(test_mae_cfg(), rng);
  // Tiny cap: many buckets.
  const auto buckets = ddp_buckets(mae, /*bucket_cap_bytes=*/4096);
  ASSERT_GT(buckets.size(), 1u);
  i64 sum = 0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    EXPECT_EQ(buckets[b].unit, static_cast<int>(b));
    const i64 e = parallel::bucket_elements(buckets[b].bucket);
    sum += e;
    // Every bucket holds exactly the cap; only the last may be short.
    if (b + 1 < buckets.size()) {
      EXPECT_EQ(e, 1024) << "bucket " << b;
    } else {
      EXPECT_GT(e, 0);
      EXPECT_LE(e, 1024);
    }
  }
  EXPECT_EQ(sum, mae.num_params());

  // The segments walk every unit's gradient once, in backward order:
  // stages last to first, then the root, each from offset 0 up.
  const auto stages = stage_elements(mae);
  std::vector<std::pair<int, i64>> walk;  // (unit, elements) per unit
  for (const auto& bucket : buckets) {
    for (const auto& seg : bucket.bucket) {
      if (walk.empty() || walk.back().first != seg.unit) {
        walk.push_back({seg.unit, 0});
      }
      EXPECT_EQ(seg.offset, walk.back().second) << "unit " << seg.unit;
      walk.back().second += seg.len;
    }
  }
  std::vector<std::pair<int, i64>> want;
  for (int u = static_cast<int>(stages.size()) - 1; u >= 0; --u) {
    want.push_back({u, stages[static_cast<size_t>(u)]});
  }
  want.push_back({-1, root_elements(mae)});
  EXPECT_EQ(walk, want);
}

TEST(Ddp, MoreBucketsForBiggerModelAtFixedCap) {
  // The paper's observation: DDP's constant message size means the number
  // of communication calls grows with model size.
  Rng rng(1);
  auto small_cfg = test_mae_cfg();
  models::MAE small(small_cfg, rng);
  auto big_cfg = test_mae_cfg();
  big_cfg.encoder.width = 32;
  big_cfg.encoder.mlp_dim = 64;
  big_cfg.encoder.depth = 6;
  models::MAE big(big_cfg, rng);
  EXPECT_GT(ddp_buckets(big, 8192).size(), ddp_buckets(small, 8192).size());
}

TEST(Ddp, LaunchesBucketsFromBackwardHooks) {
  // With a tiny bucket cap most buckets fill inside one stage, so their
  // all-reduces must post from the backward hooks — before end_backward()
  // is ever called — and every bucket is waited exactly once during the
  // drain.
  run_ranks(2, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    Fsdp fsdp(mae, c, ddp_options(/*bucket_cap_bytes=*/4096));
    const int n_buckets = static_cast<int>(ddp_buckets(mae, 4096).size());
    ASSERT_GT(n_buckets, 2);
    Tensor batch = make_global_batch(2, 5);
    Rng mask_rng(7);
    fsdp.begin_step();
    mae.forward(batch, mask_rng, 0);
    mae.backward();
    const int posted_in_backward =
        static_cast<int>(fsdp.last_schedule().size());
    fsdp.end_backward();
    EXPECT_GT(posted_in_backward, 0);
    EXPECT_LE(posted_in_backward, n_buckets);
    EXPECT_EQ(static_cast<int>(fsdp.last_schedule().size()), n_buckets);
    EXPECT_EQ(fsdp.last_step_stats().waits, n_buckets);
    c.barrier();
  });
}

TEST(Ddp, SmallBucketsMatchSingleRankTraining) {
  // Equivalence must survive the hook-posted, multi-bucket async path.
  const auto ref = reference_params_after_training(8, 3);
  const auto got =
      fsdp_params_after_training(4, 8, 3, ddp_options(/*bucket_cap_bytes=*/4096));
  expect_params_close(got, ref, 2e-4f);
}

TEST(Ddp, BucketedRuntimeBitwiseEqualsNoShard) {
  // DDP and NO_SHARD both sum every gradient element in rank order and
  // scale by 1/W; only the message boundaries differ. So however the
  // buckets split the units, the trained parameters are bitwise equal.
  FsdpOptions no_shard;
  no_shard.strategy = ShardingStrategy::kNoShard;
  const auto want = fsdp_params_after_training(4, 8, 3, no_shard);
  for (i64 cap : {i64{4096}, i64{25} * 1024 * 1024}) {
    EXPECT_EQ(fsdp_params_after_training(4, 8, 3, ddp_options(cap)), want)
        << cap << " B buckets";
  }
}

TEST(FsdpHybrid, RejectsNonDivisibleGroup) {
  run_ranks(4, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(test_mae_cfg(), rng);
    FsdpOptions opts;
    opts.strategy = ShardingStrategy::kHybridShard;
    opts.hybrid_group_size = 3;  // does not divide 4
    EXPECT_THROW(Fsdp(mae, c, opts), Error);
  });
}

}  // namespace
}  // namespace geofm
