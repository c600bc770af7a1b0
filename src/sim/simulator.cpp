#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>

namespace geofm::sim {

using parallel::ShardingStrategy;

TrainingSimulator::TrainingSimulator(StepWorkload workload,
                                     MachineSpec machine, int nodes,
                                     ParallelPlan plan)
    : workload_(std::move(workload)),
      machine_(machine),
      nodes_(nodes),
      plan_(plan) {
  GEOFM_CHECK(nodes_ >= 1);
  const int world = world_size();

  shard_group_size_ = parallel::shard_group_size_for(plan_.fsdp, world);
  shard_shape_ = shard_group_shape(shard_group_size_, machine_.gpus_per_node);
  replica_shape_ = replica_group_shape(world / shard_group_size_,
                                       shard_group_size_,
                                       machine_.gpus_per_node);
}

double TrainingSimulator::gather_seconds(i64 elements) const {
  if (plan_.disable_comm || shard_group_size_ <= 1) return 0.0;
  const double shard_bytes =
      4.0 * static_cast<double>(elements) / shard_group_size_;
  double t = machine_.shard_op_overhead +
             all_gather_seconds(shard_bytes, shard_shape_, machine_);
  if (!plan_.fsdp.limit_all_gathers) {
    // Unbounded in-flight gathers contend for the NIC/HBM.
    t *= machine_.unlimited_gather_penalty;
  }
  return t;
}

double TrainingSimulator::reduce_scatter_grads_seconds(i64 elements) const {
  if (plan_.disable_comm || shard_group_size_ <= 1) return 0.0;
  return machine_.shard_op_overhead +
         reduce_scatter_seconds(4.0 * static_cast<double>(elements),
                                shard_shape_, machine_);
}

double TrainingSimulator::replica_all_reduce_seconds(i64 elements) const {
  if (plan_.disable_comm || replica_shape_.size <= 1) return 0.0;
  const double bytes =
      4.0 * static_cast<double>(elements) / shard_group_size_;
  double t = all_reduce_seconds(bytes, replica_shape_, machine_);
  if (plan_.fsdp.strategy == ShardingStrategy::kNoShard) {
    t *= machine_.no_shard_allreduce_penalty;
  }
  return t;
}

double TrainingSimulator::bucket_all_reduce_seconds(i64 elements) const {
  if (plan_.disable_comm || replica_shape_.size <= 1) return 0.0;
  const double bytes = 4.0 * static_cast<double>(elements);
  // Plus the pack and unpack traffic through HBM.
  return all_reduce_seconds(bytes, replica_shape_, machine_) +
         2.0 * bytes / machine_.gpu.hbm_bandwidth;
}

void TrainingSimulator::build_plan_tasks(std::vector<Task>& tasks) const {
  const int n_stages = static_cast<int>(workload_.stages.size());
  std::vector<i64> stage_elements;
  for (const StageWork& stage : workload_.stages) {
    stage_elements.push_back(stage.param_elements);
  }
  const parallel::StepPlan step =
      parallel::plan_step(stage_elements, workload_.root.param_elements,
                          plan_.fsdp, shard_group_size_, replica_shape_.size);
  const double flops = machine_.gpu.sustained_flops;

  auto add = [&](bool is_comm, double dur, std::vector<int> deps) -> int {
    tasks.push_back({is_comm, dur, std::move(deps)});
    return static_cast<int>(tasks.size()) - 1;
  };
  auto unit_work = [&](int unit) -> const StageWork& {
    return unit < 0 ? workload_.root
                    : workload_.stages[static_cast<size_t>(unit)];
  };
  // Host-order semantics: a post starts no earlier than the compute that
  // precedes its hook point; a wait gates the next compute.
  using Op = parallel::StepOp::Type;
  using Compute = parallel::StepPoint::Compute;
  int last_compute = -1;
  std::vector<int> waited;
  // Latest gather / reduction task per unit (slot unit + 1; 0 = root).
  std::vector<int> gather(static_cast<size_t>(n_stages) + 1, -1);
  std::vector<int> reduction(static_cast<size_t>(n_stages) + 1, -1);
  std::vector<int> buckets;
  for (const parallel::StepPoint& point : step) {
    for (const parallel::StepOp& op : point.ops) {
      const size_t slot = static_cast<size_t>(op.unit + 1);
      // A bucket post's `unit` is its bucket index.
      const i64 elements = op.type == Op::kBucketAllReducePost
                               ? parallel::bucket_elements(op.bucket)
                               : unit_work(op.unit).param_elements;
      switch (op.type) {
        case Op::kGatherPost:
          gather[slot] = add(true, gather_seconds(elements), {last_compute});
          break;
        case Op::kGatherWait:
          waited.push_back(gather[slot]);
          break;
        case Op::kReshard:
          break;
        case Op::kReduceScatterPost:
          reduction[slot] = add(true, reduce_scatter_grads_seconds(elements),
                                {last_compute});
          break;
        case Op::kReplicaAllReducePost:
          waited.push_back(reduction[slot]);  // its reduce-scatter
          [[fallthrough]];
        case Op::kAllReducePost:
          reduction[slot] = add(true, replica_all_reduce_seconds(elements),
                                {last_compute, reduction[slot]});
          break;
        case Op::kBucketAllReducePost:
          buckets.push_back(
              add(true, bucket_all_reduce_seconds(elements), {last_compute}));
          break;
        case Op::kDrain:
          waited.insert(waited.end(), reduction.begin(), reduction.end());
          waited.insert(waited.end(), buckets.begin(), buckets.end());
          break;
      }
    }
    if (point.compute == Compute::kNone) continue;
    const StageWork& work = unit_work(point.compute_unit);
    const double compute_flops = point.compute == Compute::kForward
                                     ? work.fwd_flops
                                     : work.bwd_flops;
    waited.push_back(last_compute);
    last_compute = add(false, compute_flops / flops, std::move(waited));
    waited.clear();
  }

  // Optimizer step over the local shard (memory-bound), after the drain.
  // Read params+grads+2 moments, write params+moments: ~6x traffic.
  const double shard_bytes =
      4.0 * static_cast<double>(workload_.total_param_elements) /
      shard_group_size_;
  waited.push_back(last_compute);
  add(false, 6.0 * shard_bytes / machine_.gpu.hbm_bandwidth,
      std::move(waited));
}

StepTiming TrainingSimulator::simulate_step() const {
  std::vector<Task> tasks;
  build_plan_tasks(tasks);

  // Two FIFO streams: tasks of each kind execute in construction order.
  double compute_free = 0, comm_free = 0;
  std::vector<double> end(tasks.size(), 0.0);
  double compute_busy = 0, comm_busy = 0;
  int comm_calls = 0;
  for (size_t t = 0; t < tasks.size(); ++t) {
    const Task& task = tasks[t];
    double start = task.is_comm ? comm_free : compute_free;
    for (int d : task.deps) {
      if (d >= 0) start = std::max(start, end[static_cast<size_t>(d)]);
    }
    end[t] = start + task.duration;
    if (task.is_comm) {
      comm_free = end[t];
      comm_busy += task.duration;
      if (task.duration > 0) ++comm_calls;
    } else {
      compute_free = end[t];
      compute_busy += task.duration;
    }
  }

  StepTiming out;
  double makespan = *std::max_element(end.begin(), end.end());
  // Overlapped communication is not free: RCCL kernels run on the same
  // compute units and slow concurrent GEMMs. Charge a fraction of the
  // hidden communication back to the step.
  const double exposed_raw = std::max(0.0, makespan - compute_busy);
  const double hidden = std::max(0.0, comm_busy - exposed_raw);
  makespan += machine_.comm_compute_contention * hidden;
  makespan += machine_.step_overhead;
  if (plan_.fsdp.strategy == ShardingStrategy::kDdp) {
    makespan += machine_.ddp_step_overhead;
  }

  out.step_seconds = makespan;
  out.compute_seconds = compute_busy;
  out.comm_seconds = comm_busy;
  out.exposed_comm_seconds =
      std::max(0.0, makespan - compute_busy - machine_.step_overhead);
  out.comm_calls = comm_calls;
  out.images_per_second_per_rank =
      static_cast<double>(workload_.images_per_step) / makespan;
  out.images_per_second_total =
      out.images_per_second_per_rank * world_size();
  return out;
}

MemoryFootprint TrainingSimulator::memory_footprint() const {
  MemoryFootprint m;
  const double P = 4.0 * static_cast<double>(workload_.total_param_elements);
  const double gs = static_cast<double>(shard_group_size_);

  double max_unit = static_cast<double>(workload_.root.param_elements);
  for (const auto& s : workload_.stages) {
    max_unit = std::max(max_unit, static_cast<double>(s.param_elements));
  }
  max_unit *= 4.0;

  // Allocator/fragmentation overhead on persistent state.
  constexpr double kOverhead = 1.1;
  switch (plan_.fsdp.strategy) {
    case ShardingStrategy::kNoShard:
    case ShardingStrategy::kDdp:
      m.params = P;
      m.grads = P;
      m.optimizer = 2.0 * P;
      break;
    case ShardingStrategy::kShardGradOp:
      m.params = P;  // unsharded during computation
      m.grads = P / gs;
      m.optimizer = 2.0 * P / gs;
      m.transient_unsharded = max_unit;  // one full-gradient staging unit
      break;
    case ShardingStrategy::kFullShard:
    case ShardingStrategy::kHybridShard: {
      m.params = P / gs;
      m.grads = P / gs;
      m.optimizer = 2.0 * P / gs;
      // A memory-model bound on resident gathered units, not the schedule.
      const int cap = plan_.fsdp.limit_all_gathers
                          ? parallel::kAllGatherInflightCap
                          : 6;
      m.transient_unsharded = (cap + 1) * max_unit;
      break;
    }
  }
  m.params *= kOverhead;
  m.grads *= kOverhead;
  m.optimizer *= kOverhead;
  m.activations = workload_.activation_bytes;
  return m;
}

PowerDraw TrainingSimulator::power_draw() const {
  const StepTiming t = simulate_step();
  PowerDraw p;
  p.compute_utilization = t.compute_seconds / t.step_seconds;
  p.comm_utilization = std::min(1.0, t.comm_seconds / t.step_seconds);
  p.average_watts = machine_.idle_power_w +
                    p.compute_utilization * machine_.compute_power_w +
                    p.comm_utilization * machine_.comm_power_w;
  return p;
}

double io_images_per_second_per_node(const MachineSpec& machine) {
  const double workers = static_cast<double>(
      machine.dataloader_workers_per_gpu * machine.gpus_per_node);
  const double decode_limited = workers / machine.decode_seconds_per_image;
  const double storage_limited =
      machine.storage_bandwidth_per_node / machine.stored_image_bytes;
  return std::min(decode_limited, storage_limited);
}

std::vector<WeakScalingPoint> weak_scaling(
    const StepWorkload& workload, const MachineSpec& machine,
    const std::vector<int>& node_counts, const ParallelPlan& plan) {
  std::vector<WeakScalingPoint> out;
  double ips_at_one_node = 0;
  for (int nodes : node_counts) {
    TrainingSimulator sim(workload, machine, nodes, plan);
    ParallelPlan no_comm = plan;
    no_comm.disable_comm = true;
    TrainingSimulator sim_nc(workload, machine, nodes, no_comm);

    const StepTiming syn = sim.simulate_step();
    const StepTiming nc = sim_nc.simulate_step();

    WeakScalingPoint p;
    p.nodes = nodes;
    p.syn_ips = syn.images_per_second_total;
    p.syn_no_comm_ips = nc.images_per_second_total;
    p.io_ips = io_images_per_second_per_node(machine) * nodes;
    // Real run: dataloader interaction costs a few percent even when IO is
    // not the bottleneck (handoff, H2D copies competing with compute).
    const double real_per_rank =
        std::min(syn.images_per_second_total * 0.97, p.io_ips);
    p.real_ips = real_per_rank;
    if (ips_at_one_node == 0) ips_at_one_node = p.real_ips / nodes;
    p.ideal_ips = ips_at_one_node * nodes;
    p.comm_fraction =
        syn.exposed_comm_seconds / std::max(1e-12, syn.step_seconds);
    p.memory_gb = sim.memory_footprint().total() / double(1ull << 30);
    out.push_back(p);
  }
  return out;
}

TrainingEstimate estimate_pretraining(const StepWorkload& workload,
                                      const MachineSpec& machine, int nodes,
                                      const ParallelPlan& plan,
                                      i64 corpus_images, i64 epochs) {
  GEOFM_CHECK(corpus_images > 0 && epochs > 0);
  TrainingSimulator sim(workload, machine, nodes, plan);
  const StepTiming step = sim.simulate_step();
  const PowerDraw power = sim.power_draw();

  const i64 global_batch =
      workload.images_per_step * static_cast<i64>(sim.world_size());
  const i64 steps_per_epoch =
      std::max<i64>(1, corpus_images / global_batch);  // drop_last

  TrainingEstimate out;
  out.step_seconds = step.step_seconds;
  out.steps = steps_per_epoch * epochs;
  out.wall_hours = static_cast<double>(out.steps) * step.step_seconds / 3600.0;
  out.node_hours = out.wall_hours * nodes;
  out.avg_gcd_watts = power.average_watts;
  out.energy_mwh = power.average_watts *
                   static_cast<double>(sim.world_size()) * out.wall_hours /
                   1e6;
  return out;
}

}  // namespace geofm::sim
