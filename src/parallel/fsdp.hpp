// Fully Sharded Data Parallel — a working reimplementation of the PyTorch
// FSDP mechanics the paper studies, over geofm's thread-rank communicator.
//
// Wrapping policy: one FlatParameter unit per transformer block (stage),
// plus one root unit for everything else — the paper's per-layer wrapping.
//
// Strategies (paper Sec. III-C):
//   NO_SHARD       — parameters/grads/optimizer state replicated; per-unit
//                    gradient all-reduce (the FSDP equivalent of DDP).
//   FULL_SHARD     — params, grads, and optimizer state sharded across the
//                    sharding group; params all-gathered before each
//                    stage's forward and backward and freed afterwards;
//                    grads reduce-scattered per stage.
//   SHARD_GRAD_OP  — grads/optimizer state sharded; params are gathered
//                    in forward and kept until the stage's backward ends
//                    ("sharded outside computation").
//   HYBRID_SHARD   — FULL_SHARD within a sharding group of `group_size`
//                    ranks + replication (gradient all-reduce) across
//                    groups. HYBRID_1GPU (group 1) degenerates to NO_SHARD
//                    semantics through the HYBRID code path, matching the
//                    paper's separate measurement of the two.
//   DDP            — NO_SHARD's replicated storage, but gradients are
//                    all-reduced in fixed-size buckets (PyTorch DDP's
//                    default 25 MB, FsdpOptions::ddp_bucket_cap_bytes)
//                    filled in backward order: a constant message size
//                    however large the model is (paper Sec. IV-C).
//
// What runs when is decided once, by the step plan (parallel/step_plan.hpp)
// that the simulator also times: each hook runs the ops of its plan point,
// in plan order, or throws HookOrderError. Gathers and reductions are
// nonblocking and waited only where the plan needs them, so communication
// overlaps compute: forward gathers run kAllGatherInflightCap units ahead
// (all at step start with the limiter off), and HYBRID chains each replica
// all-reduce onto its reduce-scatter one stage later. A DDP bucket posts
// at the after_backward hook of the stage that fills it, and end_backward
// waits and unpacks the buckets in posting order. unshard() also enforces
// `limit_all_gathers` itself (waits the oldest gather past
// kAllGatherInflightCap in flight); the plan never reaches that bound,
// gather_full_parameters() relies on it.
#pragma once

#include <deque>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "nn/staged_model.hpp"
#include "parallel/step_plan.hpp"

namespace geofm::parallel {

/// Thrown when a stage hook fires at a point the step plan does not expect
/// next (e.g. a forward without begin_step(), or stages out of order).
class HookOrderError : public Error {
 public:
  using Error::Error;
};

/// One contiguous run of a logical model parameter inside a rank's owned
/// flat shard (checkpoint support). Padding elements carry no ranges.
struct FsdpParamRange {
  const nn::Parameter* param = nullptr;  // wrapped model parameter
  i64 param_begin = 0;  // first covered element within the parameter
  i64 shard_begin = 0;  // offset of that element within the rank's shard
  i64 len = 0;          // covered elements
};

/// Per-unit checkpoint view: this rank's authoritative shard tensor, the
/// flat parameter the optimizer steps (whose state tensors share the
/// shard's layout element-for-element), and the logical-parameter ranges
/// the shard covers. Valid as long as the wrapper lives; the shard is the
/// single source of truth in every strategy, so checkpoints built from
/// this view never materialize the full model on any rank.
struct FsdpUnitLayout {
  Tensor shard;
  nn::Parameter* opt_param = nullptr;
  std::vector<FsdpParamRange> ranges;
};

/// One recorded communication event of a step (see last_schedule()).
struct FsdpEvent {
  enum class Type {
    kAllGather,      // unshard a unit's parameters
    kReduceScatter,  // reduce a unit's gradients into the shard
    kAllReduce,      // replica-group (or NO_SHARD world) gradient reduce
    kReshard,        // free a unit's unsharded parameters
  };
  Type type;
  int unit;  // stage index; -1 = root unit; a DDP bucket's index
  i64 elements;

  bool operator==(const FsdpEvent&) const = default;
};

class Fsdp {
 public:
  /// Wraps `model`, re-pointing its parameters into per-unit flat buffers,
  /// broadcasting rank 0's initialization, and sharding. Installs stage
  /// hooks on the model; the wrapper must outlive wrapped training.
  Fsdp(nn::StagedModel& model, comm::Communicator world, FsdpOptions options);
  ~Fsdp();

  Fsdp(const Fsdp&) = delete;
  Fsdp& operator=(const Fsdp&) = delete;

  /// Call before each forward: starts the step plan from its first point,
  /// zeroes gradients, resets the event schedule and overlap counters, and
  /// runs the plan's begin_step ops (root gather and the forward lookahead).
  void begin_step();

  /// Call after the model's backward: reduces root-unit gradients and
  /// drains every in-flight collective. After this, optimizer_parameters()
  /// hold averaged gradients.
  void end_backward();

  /// The parameters an optimizer should step: one flat (shard) parameter
  /// per unit. Stepping these updates the model (sharded modes update the
  /// local shard; the next gather publishes it).
  std::vector<nn::Parameter*> optimizer_parameters();

  /// Checkpoint/eval path: gathers every unit so the wrapped model's
  /// parameters are fully materialized and readable. They stay valid until
  /// the next begin_step() or hook-driven reshard. Gathers are issued
  /// asynchronously (subject to the rate limiter) and all waited here.
  void gather_full_parameters();

  /// Sharded checkpoint view: one entry per unit (stages in order, then
  /// the root unit). See FsdpUnitLayout.
  std::vector<FsdpUnitLayout> checkpoint_layout();

  /// Inverse of gather_full_parameters(): frees any materialized full
  /// parameters so the local shards are again the only authority. The
  /// checkpoint-restore path calls this before writing restored values
  /// into the shards, so a stale gathered copy can never be read. No-op
  /// for unsharded strategies (where the shard aliases the full buffer
  /// and writes pass through).
  void drop_full_parameters();

  // ----- introspection ---------------------------------------------------
  const FsdpOptions& options() const { return options_; }
  int world_size() const { return world_.size(); }
  int shard_group_size() const;
  int replica_group_size() const;
  int n_units() const { return static_cast<int>(units_.size()); }

  /// Persistent per-rank parameter storage in elements (the sharded size).
  i64 shard_elements_per_rank() const;
  /// Peak number of simultaneously unsharded stage units last step.
  int peak_unsharded_units() const { return peak_unsharded_; }
  /// Peak number of stage all-gathers simultaneously in flight (issued but
  /// not yet waited) since the last begin_step() — the quantity
  /// limit_all_gathers caps at kAllGatherInflightCap.
  int peak_inflight_gathers() const { return peak_inflight_gathers_; }
  /// Wait/overlap accounting since the last begin_step(): exposed wait vs
  /// communication hidden behind compute.
  const comm::CommStats& last_step_stats() const { return stats_; }
  /// The communication schedule recorded during the last step.
  const std::vector<FsdpEvent>& last_schedule() const { return schedule_; }

 private:
  struct Unit {
    std::vector<nn::Parameter*> params;
    i64 total = 0;   // real elements
    i64 padded = 0;  // rounded up to shard-group multiple
    i64 chunk = 0;   // padded / shard group size
    Tensor full;        // [padded] parameter storage; model params view in
    Tensor full_grad;   // [padded] gradient staging; model grads view in
    Tensor shard;       // [chunk] owned parameter slice
    Tensor shard_grad;  // [chunk] owned reduced-gradient slice
    nn::Parameter opt_param;
    bool unsharded = false;       // gather issued (params valid after ready)
    comm::CollectiveHandle gather;         // outstanding all-gather
    comm::CollectiveHandle reduce_scatter; // outstanding grad reduce-scatter
    comm::CollectiveHandle all_reduce;     // outstanding replica all-reduce
  };

  /// A DDP gradient bucket: the plan's segments, packed into `buffer`.
  struct Bucket {
    const std::vector<BucketSegment>* segments = nullptr;  // in plan_
    Tensor buffer;
    comm::CollectiveHandle handle;
  };

  void build_unit(Unit& unit, std::vector<nn::Parameter*> params,
                  const std::string& name);
  Unit& unit_at(int unit_index) {
    return unit_index < 0 ? root_ : units_[static_cast<size_t>(unit_index)];
  }
  /// Issues the unit's all-gather (respecting the rate limiter) without
  /// waiting for it.
  void unshard(Unit& unit, int unit_index);
  /// Blocks until the unit's gathered parameters are usable.
  void ensure_ready(Unit& unit, int unit_index);
  void reshard(Unit& unit, int unit_index);
  /// Runs the ops of the plan point `hook`/`stage`, which must be the next
  /// point of the step plan.
  void run_point(StepHook hook, int stage);
  void run_op(const StepOp& op);
  /// Waits every bucket (unpacking it) and every unit's reductions, and
  /// averages the gradients.
  void drain_reductions();

  nn::StagedModel& model_;
  comm::Communicator world_;
  FsdpOptions options_;
  // Sharding/replication sub-communicators (own storage; world-derived).
  std::unique_ptr<comm::Communicator> shard_comm_;
  std::unique_ptr<comm::Communicator> replica_comm_;

  std::vector<Unit> units_;  // one per stage
  Unit root_;
  nn::StageHooks hooks_;
  StepPlan plan_;
  size_t cursor_ = 0;  // next plan point
  std::vector<Bucket> buckets_;  // DDP only, in posting order

  std::vector<FsdpEvent> schedule_;
  int unsharded_count_ = 0;
  int peak_unsharded_ = 0;

  // Stage gathers issued but not yet waited, oldest first (limiter queue).
  std::deque<int> outstanding_gathers_;
  int peak_inflight_gathers_ = 0;
  comm::CommStats stats_;
};

}  // namespace geofm::parallel
