// Discrete-event simulation of one training step under a parallelization
// strategy, on the Frontier machine model.
//
// It times the step plan the functional runtime executes
// (`parallel::plan_step`, FSDP strategies and DDP alike) on two FIFO
// resources per rank — a compute stream and a communication stream — in
// host order: a post starts no earlier than the compute preceding its hook
// point, a wait gates the next compute. "Limiter off" is the plan's unbounded forward lookahead plus
// the cost model's unlimited_gather_penalty (the memory model keeps its own
// in-flight bound). Overlap, exposed communication and the crossovers of
// Figs 1-4 emerge from message sizes, call counts and link bandwidths.
#pragma once

#include <string>
#include <vector>

#include "parallel/step_plan.hpp"
#include "sim/collective.hpp"
#include "sim/machine.hpp"
#include "sim/workload.hpp"

namespace geofm::sim {

/// Parallelization configuration for a simulated run.
struct ParallelPlan {
  parallel::FsdpOptions fsdp;      // strategy (DDP included) and its knobs
  bool disable_comm = false;       // "syn no comm" mode of Fig 1
};

/// Simulated step outcome for one rank (SPMD-symmetric).
struct StepTiming {
  double step_seconds = 0;
  double compute_seconds = 0;   // busy time on the compute stream
  double comm_seconds = 0;      // busy time on the comm stream
  double exposed_comm_seconds = 0;  // step time not hidden behind compute
  double images_per_second_per_rank = 0;
  double images_per_second_total = 0;
  int comm_calls = 0;
};

/// Per-rank memory footprint (bytes), by contribution.
struct MemoryFootprint {
  double params = 0;
  double grads = 0;
  double optimizer = 0;
  double activations = 0;
  double transient_unsharded = 0;  // peak gathered full-parameter buffers
  double total() const {
    return params + grads + optimizer + activations + transient_unsharded;
  }
};

/// Average power draw per GCD over a step (for the Fig 4 trace).
struct PowerDraw {
  double average_watts = 0;
  double compute_utilization = 0;  // fraction of step on compute
  double comm_utilization = 0;
};

class TrainingSimulator {
 public:
  TrainingSimulator(StepWorkload workload, MachineSpec machine, int nodes,
                    ParallelPlan plan);

  /// Simulates one steady-state training step.
  StepTiming simulate_step() const;
  MemoryFootprint memory_footprint() const;
  PowerDraw power_draw() const;

  int world_size() const { return nodes_ * machine_.gpus_per_node; }

 private:
  struct Task {
    bool is_comm = false;
    double duration = 0;
    std::vector<int> deps;  // task ids that must complete first
  };

  /// Tasks of the step plan, then the optimizer step.
  void build_plan_tasks(std::vector<Task>& tasks) const;

  double gather_seconds(i64 elements) const;
  double reduce_scatter_grads_seconds(i64 elements) const;
  double replica_all_reduce_seconds(i64 elements) const;
  double bucket_all_reduce_seconds(i64 elements) const;

  StepWorkload workload_;
  MachineSpec machine_;
  int nodes_;
  ParallelPlan plan_;

  int shard_group_size_ = 1;
  CommGroupShape shard_shape_;
  CommGroupShape replica_shape_;
};

/// Dataloader/IO throughput model for Fig 1's IO curve: images/s a node's
/// worker pool can deliver, bounded by decode CPU and storage bandwidth.
double io_images_per_second_per_node(const MachineSpec& machine);

/// One row of a weak-scaling experiment.
struct WeakScalingPoint {
  int nodes = 0;
  double real_ips = 0;        // with dataloader interaction
  double syn_ips = 0;         // cached/synthetic data: compute + comm
  double syn_no_comm_ips = 0; // communication disabled
  double io_ips = 0;          // dataloader in isolation
  double ideal_ips = 0;       // linear from 1 node
  double comm_fraction = 0;   // exposed comm / step
  double memory_gb = 0;
};

/// Runs the Fig-1-style weak scaling sweep for a workload/plan.
std::vector<WeakScalingPoint> weak_scaling(
    const StepWorkload& workload, const MachineSpec& machine,
    const std::vector<int>& node_counts, const ParallelPlan& plan);

// ----- time-to-train estimation ------------------------------------------------

struct TrainingEstimate {
  double step_seconds = 0;
  i64 steps = 0;              // optimizer steps for the full run
  double wall_hours = 0;
  double node_hours = 0;      // wall_hours * nodes (allocation cost)
  double energy_mwh = 0;      // GCD power integrated over the run
  double avg_gcd_watts = 0;
};

/// Estimates a full pretraining campaign: `epochs` passes over
/// `corpus_images` with the per-rank workload's local batch on `nodes`
/// nodes. This is the planning question the paper's "practical guide"
/// framing targets (cf. Florence: 10 days x 512 A100s).
TrainingEstimate estimate_pretraining(const StepWorkload& workload,
                                      const MachineSpec& machine, int nodes,
                                      const ParallelPlan& plan,
                                      i64 corpus_images, i64 epochs);

}  // namespace geofm::sim
