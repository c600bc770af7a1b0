// Training-layer tests: MAE pretraining loop, linear probing protocol,
// checkpoint round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "models/config.hpp"
#include "ckpt/checkpoint.hpp"
#include "train/linear_probe.hpp"
#include "train/pretrain.hpp"

namespace geofm {
namespace {

models::MaeConfig tiny_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 2, .mlp_dim = 64,
                        .heads = 2, .img_size = 32, .patch_size = 8,
                        .in_channels = 3};
  return models::mae_for(enc);
}

TEST(Pretrain, LossDecreasesOverEpochs) {
  Rng rng(1);
  models::MAE mae(tiny_cfg(), rng);
  auto corpus = data::million_aid_pretrain(128, 32);
  train::PretrainConfig cfg;
  cfg.epochs = 4;
  cfg.batch_size = 32;
  cfg.base_lr = 4e-3;  // proxy scale trains faster with a larger lr
  cfg.loader_workers = 2;
  cfg.seed = 7;
  auto result = train::pretrain_mae(mae, corpus, cfg);

  ASSERT_EQ(result.epoch_losses.size(), 4u);
  EXPECT_EQ(static_cast<i64>(result.step_losses.size()), 4 * (128 / 32));
  EXPECT_EQ(result.images_seen, 4 * 128);
  EXPECT_LT(result.epoch_losses.back(), result.epoch_losses.front());
  for (float l : result.step_losses) EXPECT_TRUE(std::isfinite(l));
}

TEST(Pretrain, DeterministicAcrossRuns) {
  auto run_once = [] {
    Rng rng(3);
    models::MAE mae(tiny_cfg(), rng);
    auto corpus = data::million_aid_pretrain(64, 32);
    train::PretrainConfig cfg;
    cfg.epochs = 2;
    cfg.batch_size = 32;
    cfg.loader_workers = 3;
    cfg.seed = 11;
    return train::pretrain_mae(mae, corpus, cfg).step_losses;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Probe, ExtractFeaturesShapesAndDeterminism) {
  Rng rng(2);
  models::MAE mae(tiny_cfg(), rng);
  auto ds = data::ucm(32, {.divisor = 21});  // 50/50 samples
  auto [f1, y1] = train::extract_features(mae, ds, data::Split::kTrain, 16);
  auto [f2, y2] = train::extract_features(mae, ds, data::Split::kTrain, 32);
  EXPECT_EQ(f1.shape(), (std::vector<i64>{50, 16}));
  EXPECT_EQ(y1.size(), 50u);
  // Batch size must not affect features.
  EXPECT_TRUE(f1.allclose(f2, 1e-5f, 1e-6f));
  EXPECT_EQ(y1, y2);
}

TEST(Probe, BeatsChanceOnEasySetupAndImproves) {
  Rng rng(4);
  models::MAE mae(tiny_cfg(), rng);
  // Short pretraining so features carry some signal.
  auto corpus = data::million_aid_pretrain(512, 32);
  train::PretrainConfig pcfg;
  pcfg.epochs = 5;
  pcfg.batch_size = 64;
  pcfg.base_lr = 3e-3;
  pcfg.seed = 5;
  train::pretrain_mae(mae, corpus, pcfg);

  auto ds = data::ucm(32, {.divisor = 3});  // 350/350
  train::ProbeConfig cfg;
  cfg.epochs = 20;
  cfg.batch_size = 64;
  cfg.seed = 9;
  auto result = train::linear_probe(mae, ds, cfg);

  ASSERT_EQ(result.top1_per_epoch.size(), 20u);
  const double chance = 1.0 / ds.n_classes();
  EXPECT_GT(result.final_top1, 2.5 * chance);
  EXPECT_GE(result.final_top5, result.final_top1);
  // Later epochs beat the first epoch.
  EXPECT_GT(result.final_top1, result.top1_per_epoch.front() - 1e-9);
}

TEST(Checkpoint, RoundTripRestoresParameters) {
  const std::string path = "/tmp/geofm_test_ckpt.bin";
  Rng rng(6);
  models::MAE mae(tiny_cfg(), rng);
  ckpt::save_checkpoint(mae, path);

  // Snapshot, perturb, reload, compare.
  std::vector<float> snapshot;
  for (nn::Parameter* p : mae.parameters()) {
    for (i64 i = 0; i < p->numel(); ++i) snapshot.push_back(p->value[i]);
  }
  for (nn::Parameter* p : mae.parameters()) p->value.fill_(123.f);
  ckpt::load_checkpoint(mae, path);
  size_t k = 0;
  for (nn::Parameter* p : mae.parameters()) {
    for (i64 i = 0; i < p->numel(); ++i) {
      ASSERT_EQ(p->value[i], snapshot[k++]);
    }
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, MismatchedModelRejected) {
  const std::string path = "/tmp/geofm_test_ckpt2.bin";
  Rng rng(7);
  models::MAE small(tiny_cfg(), rng);
  ckpt::save_checkpoint(small, path);

  auto big_cfg = tiny_cfg();
  big_cfg.encoder.width = 32;
  big_cfg.encoder.mlp_dim = 128;
  models::MAE big(big_cfg, rng);
  EXPECT_THROW(ckpt::load_checkpoint(big, path), Error);
  std::filesystem::remove(path);
}

TEST(Checkpoint, ShapeMismatchReportedByParameterName) {
  const std::string path = "/tmp/geofm_test_ckpt_shape.bin";
  struct OneParam : nn::Module {
    nn::Parameter p;
    OneParam(std::vector<i64> shape, const char* name) {
      Rng rng(3);
      p.name = name;
      p.value = Tensor::randn(std::move(shape), rng);
    }
    std::vector<nn::Parameter*> parameters() override { return {&p}; }
  };
  OneParam saved({2, 3}, "enc.blocks.0.attn.w");
  ckpt::save_checkpoint(saved, path);

  // Same element count, transposed shape: the numel-only check of the
  // original loader accepted this silently; it must now be rejected with
  // the offending parameter named.
  OneParam transposed({3, 2}, "enc.blocks.0.attn.w");
  try {
    ckpt::load_checkpoint(transposed, path);
    FAIL() << "shape mismatch not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("enc.blocks.0.attn.w"), std::string::npos) << what;
    EXPECT_NE(what.find("shape mismatch"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileRejected) {
  Rng rng(8);
  models::MAE mae(tiny_cfg(), rng);
  EXPECT_THROW(ckpt::load_checkpoint(mae, "/tmp/geofm_does_not_exist.bin"),
               Error);
}

TEST(Checkpoint, GarbageFileRejected) {
  const std::string path = "/tmp/geofm_test_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a checkpoint";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  Rng rng(9);
  models::MAE mae(tiny_cfg(), rng);
  EXPECT_THROW(ckpt::load_checkpoint(mae, path), Error);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace geofm
