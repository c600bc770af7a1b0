// The step plan (DESIGN §4.1): which collective runs at which hook point
// of a training step, for every FSDP strategy and for DDP. `parallel::Fsdp`
// executes it from its stage hooks and `sim::TrainingSimulator` times it,
// so neither derives forward lookahead, backward prefetch, the limiter,
// HYBRID chaining or DDP's gradient buckets itself.
#pragma once

#include <string>
#include <vector>

#include "util/common.hpp"

namespace geofm::parallel {

enum class ShardingStrategy {
  kNoShard,
  kFullShard,
  kShardGradOp,
  kHybridShard,
  kDdp,  // replicated like NO_SHARD, gradients all-reduced in fixed buckets
};

enum class BackwardPrefetch { kNone, kBackwardPost, kBackwardPre };

std::string to_string(ShardingStrategy s);
std::string to_string(BackwardPrefetch p);

struct FsdpOptions {
  ShardingStrategy strategy = ShardingStrategy::kFullShard;
  /// Ranks per sharding group for HYBRID_SHARD (e.g. 2 for HYBRID_2GPUs).
  /// Must divide the world size. Ignored by other strategies.
  int hybrid_group_size = 1;
  BackwardPrefetch prefetch = BackwardPrefetch::kBackwardPre;
  /// Rate-limit in-flight all-gathers (paper's limit_all_gathers): on, the
  /// plan's forward lookahead is kAllGatherInflightCap units and the
  /// runtime waits the oldest gather before issuing past the cap; off,
  /// every forward gather is issued at step start.
  bool limit_all_gathers = true;
  /// DDP gradient bucket size (PyTorch's default 25 MB). Ignored by the
  /// FSDP strategies.
  i64 ddp_bucket_cap_bytes = 25ll * 1024 * 1024;
};

/// In-flight stage all-gathers the rate limiter allows when enabled.
inline constexpr int kAllGatherInflightCap = 2;

/// Ranks per sharding group the strategy implies on `world` ranks.
int shard_group_size_for(const FsdpOptions& options, int world);

/// The points of a training step where plan ops run, in step order.
enum class StepHook {
  kBeginStep,
  kBeforeForward,
  kAfterForward,
  kBeforeBackward,
  kAfterBackward,
  kEndBackward,
};

std::string to_string(StepHook h);

/// A run of one unit's flat gradient inside a DDP bucket.
struct BucketSegment {
  int unit = -1;   // stage index, or -1 for the root unit
  i64 offset = 0;  // first element within the unit's flat gradient
  i64 len = 0;

  bool operator==(const BucketSegment&) const = default;
};

/// Gradient elements a DDP bucket holds.
i64 bucket_elements(const std::vector<BucketSegment>& bucket);

/// One plan op on `unit` (a stage index, or -1 for the root unit; for a
/// bucket post, the bucket's index in posting order).
struct StepOp {
  enum class Type {
    kGatherPost,            // issue the unit's parameter all-gather
    kGatherWait,            // block until the gathered parameters land
    kReshard,               // free the unit's gathered parameters
    kReduceScatterPost,     // issue the unit's gradient reduce-scatter
    kReplicaAllReducePost,  // wait the unit's reduce-scatter, then issue
                            // its replica all-reduce on the result
    kAllReducePost,         // issue an unsharded unit's gradient all-reduce
    kBucketAllReducePost,   // pack a DDP bucket, issue its all-reduce
    kDrain,                 // wait every reduction (buckets in posting
                            // order, unpacked), average the gradients
  };
  Type type;
  int unit = -1;  // ignored by kDrain
  std::vector<BucketSegment> bucket = {};  // kBucketAllReducePost only

  bool operator==(const StepOp&) const = default;
};

/// One hook point, the ops it runs, and the compute marker that follows
/// it: the forward or backward of `compute_unit` (-1 = root unit), if any.
struct StepPoint {
  enum class Compute { kNone, kForward, kBackward };
  StepHook hook;
  int stage = -1;  // -1 for begin_step / end_backward
  std::vector<StepOp> ops;
  Compute compute = Compute::kNone;
  int compute_unit = -1;
};

/// A whole step: every hook point in the order the step reaches them.
using StepPlan = std::vector<StepPoint>;

/// The step plan for stage units of `stage_elements[i]` gradient elements
/// each plus a root unit of `root_elements` under `options`, given the
/// group sizes the strategy resolves to. Only DDP's buckets read the sizes.
/// Pure: no communicator, no model.
StepPlan plan_step(const std::vector<i64>& stage_elements, i64 root_elements,
                   const FsdpOptions& options, int shard_group_size,
                   int replica_group_size);

}  // namespace geofm::parallel
