#include "parallel/step_plan.hpp"

#include <algorithm>

namespace geofm::parallel {

std::string to_string(ShardingStrategy s) {
  switch (s) {
    case ShardingStrategy::kNoShard: return "NO_SHARD";
    case ShardingStrategy::kFullShard: return "FULL_SHARD";
    case ShardingStrategy::kShardGradOp: return "SHARD_GRAD_OP";
    case ShardingStrategy::kHybridShard: return "HYBRID_SHARD";
    case ShardingStrategy::kDdp: return "DDP";
  }
  return "?";
}

std::string to_string(BackwardPrefetch p) {
  switch (p) {
    case BackwardPrefetch::kNone: return "None";
    case BackwardPrefetch::kBackwardPost: return "BACKWARD_POST";
    case BackwardPrefetch::kBackwardPre: return "BACKWARD_PRE";
  }
  return "?";
}

std::string to_string(StepHook h) {
  static const char* const kNames[] = {
      "begin_step",      "before_forward", "after_forward",
      "before_backward", "after_backward", "end_backward"};
  return kNames[static_cast<int>(h)];
}

i64 bucket_elements(const std::vector<BucketSegment>& bucket) {
  i64 n = 0;
  for (const BucketSegment& seg : bucket) n += seg.len;
  return n;
}

int shard_group_size_for(const FsdpOptions& options, int world) {
  switch (options.strategy) {
    case ShardingStrategy::kNoShard:
    case ShardingStrategy::kDdp:
      return 1;
    case ShardingStrategy::kFullShard:
    case ShardingStrategy::kShardGradOp:
      return world;
    case ShardingStrategy::kHybridShard:
      GEOFM_CHECK(options.hybrid_group_size >= 1 &&
                      world % options.hybrid_group_size == 0,
                  "hybrid_group_size " << options.hybrid_group_size
                                       << " must divide world " << world);
      return options.hybrid_group_size;
  }
  return 1;
}

StepPlan plan_step(const std::vector<i64>& stage_elements, i64 root_elements,
                   const FsdpOptions& options, int shard_group_size,
                   int replica_group_size) {
  const int n_units = static_cast<int>(stage_elements.size());
  GEOFM_CHECK(n_units >= 1, "a step plan needs at least one stage unit");
  using Op = StepOp::Type;
  using Compute = StepPoint::Compute;
  const bool ddp = options.strategy == ShardingStrategy::kDdp;
  const bool sharded = shard_group_size > 1;
  const bool replicated = replica_group_size > 1;
  const bool chain_replicas = sharded && replicated;  // HYBRID
  const bool reshard_after_forward =
      sharded && options.strategy != ShardingStrategy::kShardGradOp;
  const int lookahead =
      options.limit_all_gathers ? kAllGatherInflightCap : n_units;
  const BackwardPrefetch prefetch = options.prefetch;

  StepPlan plan;
  plan.reserve(2 + 4 * static_cast<size_t>(n_units));  // keeps refs valid
  auto point = [&](StepHook hook, int stage, Compute compute = Compute::kNone,
                   int compute_unit = -1) -> std::vector<StepOp>& {
    plan.push_back({hook, stage, {}, compute, compute_unit});
    return plan.back().ops;
  };

  // DDP's bucket plan: gradient elements in backward order (stages n-1..0,
  // then the root) fill buckets of exactly `cap` elements, so a bucket may
  // split a unit and only the last bucket may be short. Each bucket posts
  // at the point whose unit fills it; the short one at end_backward.
  const i64 cap = options.ddp_bucket_cap_bytes / 4;
  GEOFM_CHECK(!ddp || cap >= 1, "DDP bucket cap "
                                    << options.ddp_bucket_cap_bytes
                                    << " B holds no gradient element");
  StepOp bucket{Op::kBucketAllReducePost, 0, {}};
  i64 fill = 0;
  auto post_bucket = [&](std::vector<StepOp>& ops) {
    if (bucket.bucket.empty()) return;
    const int next = bucket.unit + 1;
    ops.push_back(std::move(bucket));
    bucket = {Op::kBucketAllReducePost, next, {}};
    fill = 0;
  };
  auto fill_buckets = [&](std::vector<StepOp>& ops, int unit) {
    const i64 n = unit < 0 ? root_elements
                           : stage_elements[static_cast<size_t>(unit)];
    for (i64 offset = 0; offset < n;) {
      const i64 len = std::min(cap - fill, n - offset);
      bucket.bucket.push_back({unit, offset, len});
      fill += len;
      offset += len;
      if (fill == cap) post_bucket(ops);
    }
  };

  auto post_reduction = [&](std::vector<StepOp>& ops, int unit) {
    if (sharded) {
      ops.push_back({Op::kReduceScatterPost, unit});
    } else if (replicated && ddp) {
      fill_buckets(ops, unit);
    } else if (replicated) {
      ops.push_back({Op::kAllReducePost, unit});
    }
  };

  auto& begin = point(StepHook::kBeginStep, -1, Compute::kForward);
  if (sharded) {
    begin.push_back({Op::kGatherPost, -1});
    for (int u = 0; u < std::min(lookahead, n_units); ++u) {
      begin.push_back({Op::kGatherPost, u});
    }
    // The model reads root parameters before the first stage hook fires.
    begin.push_back({Op::kGatherWait, -1});
  }

  for (int i = 0; i < n_units; ++i) {
    auto& before = point(StepHook::kBeforeForward, i, Compute::kForward, i);
    if (sharded) {
      const int next = i + lookahead - 1;  // slides the window by one
      if (i > 0 && next < n_units) before.push_back({Op::kGatherPost, next});
      before.push_back({Op::kGatherWait, i});
    }
    auto& after = point(StepHook::kAfterForward, i);
    if (reshard_after_forward) after.push_back({Op::kReshard, i});
  }

  for (int i = n_units - 1; i >= 0; --i) {
    auto& before = point(StepHook::kBeforeBackward, i, Compute::kBackward, i);
    if (reshard_after_forward) {
      // Own gather, unless the stage above prefetched it.
      if (i == n_units - 1 || prefetch == BackwardPrefetch::kNone) {
        before.push_back({Op::kGatherPost, i});
      }
      if (prefetch == BackwardPrefetch::kBackwardPre && i > 0) {
        before.push_back({Op::kGatherPost, i - 1});
      }
      before.push_back({Op::kGatherWait, i});
    }
    // The root unit's backward follows stage 0's.
    auto& after = point(StepHook::kAfterBackward, i,
                        i == 0 ? Compute::kBackward : Compute::kNone);
    if (reshard_after_forward && prefetch == BackwardPrefetch::kBackwardPost &&
        i > 0) {
      after.push_back({Op::kGatherPost, i - 1});
    }
    // RS(i+1) had stage i's backward to finish.
    if (chain_replicas && i + 1 < n_units) {
      after.push_back({Op::kReplicaAllReducePost, i + 1});
    }
    post_reduction(after, i);
    if (sharded) after.push_back({Op::kReshard, i});
  }

  auto& end = point(StepHook::kEndBackward, -1);
  if (chain_replicas) end.push_back({Op::kReplicaAllReducePost, 0});
  post_reduction(end, -1);
  post_bucket(end);
  if (chain_replicas) end.push_back({Op::kReplicaAllReducePost, -1});
  end.push_back({Op::kDrain, -1});
  if (sharded) end.push_back({Op::kReshard, -1});
  return plan;
}

}  // namespace geofm::parallel
