// Cross-module integration tests: full pipelines that chain data ->
// model -> (distributed) training -> checkpoint -> downstream evaluation,
// plus ViT classification under FSDP (the MAE path is covered in
// test_fsdp.cpp).
#include <gtest/gtest.h>

#include <filesystem>

#include "geofm.hpp"
#include "tensor/ops.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::run_ranks;

TEST(Integration, PretrainCheckpointReloadProbe) {
  const std::string path = "/tmp/geofm_integration_ckpt.bin";
  auto cfg = models::mae_for(models::proxy_huge());

  // Pretrain briefly and checkpoint.
  double direct_top1 = 0;
  {
    Rng rng(5);
    models::MAE mae(cfg, rng);
    auto corpus = data::million_aid_pretrain(256, 32);
    train::PretrainConfig pc;
    pc.epochs = 4;
    pc.batch_size = 64;
    pc.base_lr = 3e-3;
    pc.seed = 11;
    auto result = train::pretrain_mae(mae, corpus, pc);
    EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
    ckpt::save_checkpoint(mae, path);

    train::ProbeConfig probe;
    probe.epochs = 10;
    probe.batch_size = 64;
    probe.seed = 3;
    direct_top1 =
        train::linear_probe(mae, data::ucm(32, {.divisor = 7}), probe)
            .final_top1;
  }

  // Reload into a *fresh* model: probing must give identical accuracy.
  {
    Rng rng(999);  // different init; checkpoint must fully determine it
    models::MAE mae(cfg, rng);
    ckpt::load_checkpoint(mae, path);
    train::ProbeConfig probe;
    probe.epochs = 10;
    probe.batch_size = 64;
    probe.seed = 3;
    const double reloaded_top1 =
        train::linear_probe(mae, data::ucm(32, {.divisor = 7}), probe)
            .final_top1;
    EXPECT_NEAR(reloaded_top1, direct_top1, 1e-9);
  }
  std::filesystem::remove(path);
}

TEST(Integration, VitClassifierFsdpMatchesSingleRank) {
  // Supervised ViT classification under FULL_SHARD vs single-rank.
  models::ViTConfig cfg{.name = "t", .width = 16, .depth = 2, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 8,
                        .in_channels = 3};
  const i64 global_batch = 8;
  Rng data_rng(42);
  Tensor images = Tensor::randn({global_batch, 3, 16, 16}, data_rng, 0.5f);
  std::vector<i64> labels;
  for (i64 i = 0; i < global_batch; ++i) labels.push_back(i % 4);

  auto train_steps = [&](models::ViTEncoder& vit,
                         std::vector<nn::Parameter*> opt_params,
                         parallel::Fsdp* fsdp, const Tensor& batch,
                         const std::vector<i64>& batch_labels) {
    optim::Sgd opt(std::move(opt_params), 0.05);
    for (int s = 0; s < 4; ++s) {
      if (fsdp != nullptr) {
        fsdp->begin_step();
      } else {
        vit.zero_grad();
      }
      Tensor logits = vit.forward(batch);
      auto ce = ops::softmax_cross_entropy(logits, batch_labels);
      vit.backward(ops::softmax_cross_entropy_backward(ce, batch_labels));
      if (fsdp != nullptr) fsdp->end_backward();
      opt.step();
    }
  };

  // Reference.
  std::vector<float> ref;
  {
    Rng rng(7);
    models::ViTEncoder vit(cfg, rng, 4);
    train_steps(vit, vit.parameters(), nullptr, images, labels);
    for (nn::Parameter* p : vit.parameters()) {
      for (i64 i = 0; i < p->numel(); ++i) ref.push_back(p->value[i]);
    }
  }

  // 4-rank FULL_SHARD.
  std::vector<float> sharded;
  std::mutex mu;
  run_ranks(4, [&](Communicator& c) {
    Rng rng(7);
    models::ViTEncoder vit(cfg, rng, 4);
    parallel::FsdpOptions opts;
    opts.strategy = parallel::ShardingStrategy::kFullShard;
    parallel::Fsdp fsdp(vit, c, opts);
    const i64 per = images.numel() / global_batch;
    Tensor mine({2, 3, 16, 16});
    mine.copy_(images.flat_view(c.rank() * 2 * per, 2 * per));
    std::vector<i64> my_labels{labels[static_cast<size_t>(c.rank() * 2)],
                               labels[static_cast<size_t>(c.rank() * 2 + 1)]};
    train_steps(vit, fsdp.optimizer_parameters(), &fsdp, mine, my_labels);
    fsdp.gather_full_parameters();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      for (nn::Parameter* p : vit.parameters()) {
        for (i64 i = 0; i < p->numel(); ++i) sharded.push_back(p->value[i]);
      }
    }
    c.barrier();
  });

  ASSERT_EQ(ref.size(), sharded.size());
  double max_err = 0;
  for (size_t i = 0; i < ref.size(); ++i) {
    max_err = std::max(max_err,
                       static_cast<double>(std::fabs(ref[i] - sharded[i])));
  }
  EXPECT_LT(max_err, 2e-4);
}

TEST(Integration, DataLoaderFeedsPretrainerAcrossEpochBoundaries) {
  // drop_last=false with a non-divisible corpus: the loop must handle the
  // short final batch.
  Rng rng(8);
  models::MAE mae(models::mae_for(models::proxy_base()), rng);
  auto corpus = data::million_aid_pretrain(100, 32);  // 100 % 64 != 0
  train::PretrainConfig pc;
  pc.epochs = 2;
  pc.batch_size = 64;
  pc.seed = 4;
  auto result = train::pretrain_mae(mae, corpus, pc);
  // drop_last in the trainer: 1 batch/epoch.
  EXPECT_EQ(result.step_losses.size(), 2u);
  EXPECT_EQ(result.images_seen, 2 * 64);
}

TEST(Integration, SimulatorAgreesWithFunctionalScheduleCounts) {
  // The simulator's comm-call count for FULL_SHARD must match what the
  // functional FSDP runtime records for the same stage count.
  auto cfg = models::mae_for(models::proxy_base());  // 2 enc + 2 dec stages
  int functional_calls = 0;
  run_ranks(2, [&](Communicator& c) {
    Rng rng(1);
    models::MAE mae(cfg, rng);
    parallel::FsdpOptions opts;
    opts.strategy = parallel::ShardingStrategy::kFullShard;
    parallel::Fsdp fsdp(mae, c, opts);
    Tensor batch = Tensor::randn({2, 3, 32, 32}, rng);
    fsdp.begin_step();
    Rng mask_rng(3);
    mae.forward(batch, mask_rng);
    mae.backward();
    fsdp.end_backward();
    if (c.rank() == 0) {
      for (const auto& e : fsdp.last_schedule()) {
        if (e.type != parallel::FsdpEvent::Type::kReshard) {
          ++functional_calls;
        }
      }
    }
    c.barrier();
  });

  sim::ParallelPlan plan;
  plan.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
  sim::TrainingSimulator simr(sim::mae_step_workload(cfg, 2),
                              sim::frontier(), 1, plan);
  // Same schedule, but the simulator's world is 8 ranks vs functional 2 —
  // call *structure* (not cost) is what must agree.
  EXPECT_EQ(simr.simulate_step().comm_calls, functional_calls);
}

TEST(Integration, ScalingAdvisorPicksFeasibleStrategies) {
  // For every Table I variant there must exist at least one strategy that
  // fits in HBM at 64 nodes (the paper trained all of them).
  const auto machine = sim::frontier();
  for (const auto& cfg : models::table1_variants()) {
    const auto workload = sim::vit_step_workload(cfg, 32);
    bool fits = false;
    for (int g : {1, 2, 4, 8, 16, 32}) {
      sim::ParallelPlan p;
      p.fsdp.strategy = parallel::ShardingStrategy::kHybridShard;
      p.fsdp.hybrid_group_size = g;
      sim::TrainingSimulator simr(workload, machine, 64, p);
      fits |= simr.memory_footprint().total() < machine.gpu.hbm_bytes;
    }
    sim::ParallelPlan fs;
    fs.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
    sim::TrainingSimulator simr(workload, machine, 64, fs);
    fits |= simr.memory_footprint().total() < machine.gpu.hbm_bytes;
    EXPECT_TRUE(fits) << cfg.name;
  }
}

}  // namespace
}  // namespace geofm
