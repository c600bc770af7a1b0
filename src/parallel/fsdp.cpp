#include "parallel/fsdp.hpp"

#include <algorithm>
#include <limits>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace geofm::parallel {

Fsdp::Fsdp(nn::StagedModel& model, comm::Communicator world,
           FsdpOptions options)
    : model_(model), world_(world), options_(options) {
  const int gs = shard_group_size_for(options_, world_.size());
  // Sharding group: `gs` consecutive ranks. Replication group: ranks with
  // equal position within their sharding group.
  shard_comm_ = std::make_unique<comm::Communicator>(
      world_.split(world_.rank() / gs, world_.rank()));
  replica_comm_ = std::make_unique<comm::Communicator>(
      world_.split(world_.rank() % gs, world_.rank()));
  GEOFM_CHECK(shard_comm_->size() == gs);

  // One flat unit per stage, plus the root unit.
  auto stage_modules = model_.stages();
  units_.resize(stage_modules.size());
  for (size_t i = 0; i < stage_modules.size(); ++i) {
    build_unit(units_[i], stage_modules[i]->parameters(),
               "fsdp.unit" + std::to_string(i));
  }
  build_unit(root_, model_.root_params(), "fsdp.root");

  // Shard immediately, as PyTorch FSDP does at wrap time: from here on the
  // local shard is authoritative and every step runs the steady-state
  // gather schedule (the first step is not special).
  drop_full_parameters();

  std::vector<i64> stage_elements;
  for (const Unit& unit : units_) stage_elements.push_back(unit.total);
  plan_ = plan_step(stage_elements, root_.total, options_, shard_comm_->size(),
                    replica_comm_->size());
  for (const StepPoint& point : plan_) {
    for (const StepOp& op : point.ops) {
      if (op.type != StepOp::Type::kBucketAllReducePost) continue;
      buckets_.push_back(
          {&op.bucket, Tensor::zeros({bucket_elements(op.bucket)}), {}});
    }
  }
  auto run = [this](StepHook hook) {
    return [this, hook](int stage) { run_point(hook, stage); };
  };
  hooks_.before_forward = run(StepHook::kBeforeForward);
  hooks_.after_forward = run(StepHook::kAfterForward);
  hooks_.before_backward = run(StepHook::kBeforeBackward);
  hooks_.after_backward = run(StepHook::kAfterBackward);
  model_.install_stage_hooks(&hooks_);
}

Fsdp::~Fsdp() { model_.install_stage_hooks(nullptr); }

int Fsdp::shard_group_size() const { return shard_comm_->size(); }
int Fsdp::replica_group_size() const { return replica_comm_->size(); }

void Fsdp::build_unit(Unit& unit, std::vector<nn::Parameter*> params,
                      const std::string& name) {
  unit.params = std::move(params);
  unit.total = 0;
  for (nn::Parameter* p : unit.params) unit.total += p->numel();

  const int gs = shard_comm_->size();
  unit.padded = (unit.total + gs - 1) / gs * gs;
  unit.chunk = unit.padded / gs;

  unit.full = Tensor::zeros({unit.padded});
  unit.full_grad = Tensor::zeros({unit.padded});

  // Pack current parameter values, then adopt rank 0's initialization so
  // every replica starts identical regardless of construction seeds.
  i64 offset = 0;
  for (nn::Parameter* p : unit.params) {
    unit.full.flat_view(offset, p->numel()).copy_(p->value);
    offset += p->numel();
  }
  world_.broadcast(unit.full, /*root=*/0);

  // Re-point model parameters (and grads) into the flat buffers.
  offset = 0;
  for (nn::Parameter* p : unit.params) {
    const auto shape = p->value.shape();
    p->value = unit.full.flat_view(offset, p->numel()).view(shape);
    p->grad = unit.full_grad.flat_view(offset, p->numel()).view(shape);
    offset += p->numel();
  }

  if (gs > 1) {
    // Persistent local slice (separate storage: the gathered `full` buffer
    // is transient by contract).
    unit.shard = Tensor({unit.chunk});
    unit.shard.copy_(
        unit.full.flat_view(static_cast<i64>(shard_comm_->rank()) * unit.chunk,
                            unit.chunk));
    unit.shard_grad = Tensor::zeros({unit.chunk});
  } else {
    // Degenerate sharding group: the "shard" aliases the full buffer, so
    // optimizer steps write through and no gather is ever needed.
    unit.shard = unit.full.flat_view(0, unit.padded);
    unit.shard_grad = unit.full_grad.flat_view(0, unit.padded);
  }
  unit.unsharded = true;  // `full` currently holds valid parameters

  unit.opt_param.name = name;
  unit.opt_param.value = unit.shard;
  unit.opt_param.grad = unit.shard_grad;
}

void Fsdp::unshard(Unit& unit, int unit_index) {
  if (unit.unsharded) return;
  if (shard_comm_->size() > 1) {
    obs::TraceScope span("fsdp.unshard", "fsdp", "unit", unit_index, "bytes",
                         unit.padded * static_cast<i64>(sizeof(float)));
    // Functional limit_all_gathers: before issuing a stage gather past the
    // cap, retire the oldest outstanding one (all ranks do this in the same
    // order, so matching stays deterministic).
    const bool limited = unit_index >= 0 && options_.limit_all_gathers;
    while (limited && static_cast<int>(outstanding_gathers_.size()) >=
                          kAllGatherInflightCap) {
      const int oldest = outstanding_gathers_.front();
      obs::TraceScope stall("fsdp.limiter.stall", "fsdp", "unit", oldest);
      static auto& stalls =
          obs::MetricsRegistry::instance().counter("fsdp.limiter_stalls");
      stalls.add(1);
      ensure_ready(unit_at(oldest), oldest);
    }
    unit.gather = shard_comm_->iall_gather(unit.shard, unit.full);
    schedule_.push_back(
        {FsdpEvent::Type::kAllGather, unit_index, unit.padded});
    if (unit_index >= 0) {
      outstanding_gathers_.push_back(unit_index);
      peak_inflight_gathers_ =
          std::max(peak_inflight_gathers_,
                   static_cast<int>(outstanding_gathers_.size()));
      ++unsharded_count_;
      peak_unsharded_ = std::max(peak_unsharded_, unsharded_count_);
    }
  }
  unit.unsharded = true;
}

void Fsdp::ensure_ready(Unit& unit, int unit_index) {
  if (!unit.gather.pending()) return;
  obs::TraceScope span("fsdp.gather.wait", "fsdp", "unit", unit_index);
  unit.gather.wait(&stats_);
  std::erase(outstanding_gathers_, unit_index);
}

void Fsdp::reshard(Unit& unit, int unit_index) {
  if (!unit.unsharded) return;
  if (shard_comm_->size() > 1) {
    obs::TraceScope span("fsdp.reshard", "fsdp", "unit", unit_index);
    // A unit must never be freed with its gather still in flight.
    ensure_ready(unit, unit_index);
    // Poison the freed buffer: any use before the next gather is a bug and
    // will surface as NaN immediately.
    unit.full.fill_(std::numeric_limits<float>::quiet_NaN());
    schedule_.push_back({FsdpEvent::Type::kReshard, unit_index, unit.padded});
    if (unit_index >= 0) --unsharded_count_;
    unit.unsharded = false;
  }
  // Degenerate group: parameters live in `full` permanently; nothing to do.
}

void Fsdp::run_point(StepHook hook, int stage) {
  if (cursor_ >= plan_.size() || plan_[cursor_].hook != hook ||
      plan_[cursor_].stage != stage) {
    throw HookOrderError("FSDP hook " + to_string(hook) + "(" +
                         std::to_string(stage) +
                         ") fired out of step-plan order");
  }
  for (const StepOp& op : plan_[cursor_].ops) run_op(op);
  ++cursor_;
}

void Fsdp::run_op(const StepOp& op) {
  Unit& unit = unit_at(op.unit);
  switch (op.type) {
    case StepOp::Type::kGatherPost:
      unshard(unit, op.unit);
      break;
    case StepOp::Type::kGatherWait:
      ensure_ready(unit, op.unit);
      break;
    case StepOp::Type::kReshard:
      reshard(unit, op.unit);
      break;
    case StepOp::Type::kReduceScatterPost: {
      obs::TraceScope span("fsdp.reduce.issue", "fsdp", "unit", op.unit);
      unit.reduce_scatter = shard_comm_->ireduce_scatter(
          unit.full_grad, unit.shard_grad, comm::ReduceOp::kSum);
      schedule_.push_back(
          {FsdpEvent::Type::kReduceScatter, op.unit, unit.padded});
      break;
    }
    case StepOp::Type::kReplicaAllReducePost:
      // The all-reduce consumes the reduce-scatter's output.
      unit.reduce_scatter.wait(&stats_);
      [[fallthrough]];
    case StepOp::Type::kAllReducePost: {
      obs::TraceScope span("fsdp.reduce.issue", "fsdp", "unit", op.unit);
      unit.all_reduce =
          replica_comm_->iall_reduce(unit.shard_grad, comm::ReduceOp::kSum);
      schedule_.push_back({FsdpEvent::Type::kAllReduce, op.unit, unit.chunk});
      break;
    }
    case StepOp::Type::kBucketAllReducePost: {
      Bucket& bucket = buckets_[static_cast<size_t>(op.unit)];
      obs::TraceScope span("fsdp.reduce.issue", "fsdp", "bucket", op.unit);
      i64 offset = 0;
      for (const BucketSegment& seg : op.bucket) {
        bucket.buffer.flat_view(offset, seg.len)
            .copy_(unit_at(seg.unit).full_grad.flat_view(seg.offset, seg.len));
        offset += seg.len;
      }
      bucket.handle =
          replica_comm_->iall_reduce(bucket.buffer, comm::ReduceOp::kSum);
      schedule_.push_back(
          {FsdpEvent::Type::kAllReduce, op.unit, bucket.buffer.numel()});
      break;
    }
    case StepOp::Type::kDrain:
      drain_reductions();
      break;
  }
}

void Fsdp::drain_reductions() {
  obs::TraceScope span("fsdp.drain_reductions", "fsdp");
  // DDP: wait the buckets in posting order, each unpacked into the units'
  // gradients as it lands.
  for (Bucket& bucket : buckets_) {
    bucket.handle.wait(&stats_);
    i64 offset = 0;
    for (const BucketSegment& seg : *bucket.segments) {
      unit_at(seg.unit).full_grad.flat_view(seg.offset, seg.len)
          .copy_(bucket.buffer.flat_view(offset, seg.len));
      offset += seg.len;
    }
  }
  // The other strategies reduce every unit once per step: wait them in
  // posting order (stages last to first, then the root). All strategies
  // average over the data-parallel world.
  for (int u = n_units() - 1; u >= -1; --u) {
    Unit& unit = unit_at(u);
    unit.reduce_scatter.wait(&stats_);
    unit.all_reduce.wait(&stats_);
    if (world_.size() > 1) {
      unit.shard_grad.scale_(1.f / static_cast<float>(world_.size()));
    }
  }
}

void Fsdp::begin_step() {
  obs::TraceScope span("fsdp.begin_step", "fsdp");
  // A new step always starts at the plan's first point, also after a step
  // that an exception abandoned.
  cursor_ = 0;
  schedule_.clear();
  unsharded_count_ = 0;
  peak_unsharded_ = 0;
  peak_inflight_gathers_ = 0;
  stats_.reset();

  for (int u = -1; u < n_units(); ++u) {
    unit_at(u).full_grad.zero_();
    if (shard_comm_->size() > 1) unit_at(u).shard_grad.zero_();
  }

  run_point(StepHook::kBeginStep, -1);
}

void Fsdp::end_backward() {
  obs::TraceScope span("fsdp.end_backward", "fsdp");
  run_point(StepHook::kEndBackward, -1);
  static auto& exposed = obs::MetricsRegistry::instance().histogram(
      "fsdp.step.exposed_wait_seconds");
  static auto& peak = obs::MetricsRegistry::instance().gauge(
      "fsdp.peak_inflight_gathers");
  exposed.observe(stats_.exposed_wait_seconds);
  peak.set_max(peak_inflight_gathers_);
}

void Fsdp::gather_full_parameters() {
  for (int u = -1; u < n_units(); ++u) unshard(unit_at(u), u);
  for (int u = -1; u < n_units(); ++u) ensure_ready(unit_at(u), u);
}

std::vector<FsdpUnitLayout> Fsdp::checkpoint_layout() {
  std::vector<FsdpUnitLayout> out;
  out.reserve(units_.size() + 1);
  auto emit = [this](Unit& unit) {
    FsdpUnitLayout layout;
    layout.shard = unit.shard;
    layout.opt_param = &unit.opt_param;
    // This rank's owned global range within the unit's flat span, clipped
    // to the real elements (the tail shard may be pure padding).
    const i64 begin =
        static_cast<i64>(shard_comm_->rank()) * unit.chunk;
    const i64 end = std::min(begin + unit.chunk, unit.total);
    i64 offset = 0;  // walk of the unit's logical parameter layout
    for (nn::Parameter* p : unit.params) {
      const i64 pb = std::max(offset, begin);
      const i64 pe = std::min(offset + p->numel(), end);
      if (pb < pe) {
        layout.ranges.push_back({p, pb - offset, pb - begin, pe - pb});
      }
      offset += p->numel();
    }
    return layout;
  };
  for (auto& unit : units_) out.push_back(emit(unit));
  out.push_back(emit(root_));
  return out;
}

void Fsdp::drop_full_parameters() {
  for (int u = -1; u < n_units(); ++u) reshard(unit_at(u), u);
}

std::vector<nn::Parameter*> Fsdp::optimizer_parameters() {
  std::vector<nn::Parameter*> out;
  out.reserve(units_.size() + 1);
  for (auto& unit : units_) out.push_back(&unit.opt_param);
  out.push_back(&root_.opt_param);
  return out;
}

i64 Fsdp::shard_elements_per_rank() const {
  i64 n = root_.chunk;
  for (const auto& unit : units_) n += unit.chunk;
  return n;
}

}  // namespace geofm::parallel
