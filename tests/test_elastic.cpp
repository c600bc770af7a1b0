// Elastic in-run failure recovery: shrink-and-continue supervisor tests.
//
// The load-bearing acceptance check is *bitwise* trajectory equality: a
// 4-rank run that loses a rank mid-flight must continue at world 3 with
// exactly the losses a fresh 3-rank run resumed from the same checkpoint
// would produce. Everything the supervisor does — quarantine, re-form,
// reshard-restore, loader rescale — is behind that one float comparison.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"
#include "train/elastic.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::run_ranks;
using parallel::Fsdp;
using parallel::FsdpOptions;
using parallel::ShardingStrategy;
namespace fs = std::filesystem;

models::MaeConfig elastic_mae_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  return models::mae_for(enc);
}

std::string fresh_root(const std::string& name) {
  const std::string root = "/tmp/" + name;
  fs::remove_all(root);
  ckpt::reset_save_state(root);
  return root;
}

train::ElasticConfig base_config(const std::string& ckpt_root) {
  train::ElasticConfig cfg;
  cfg.model = elastic_mae_cfg();
  cfg.model_seed = 42;
  cfg.world = 4;
  cfg.fsdp.strategy = ShardingStrategy::kFullShard;
  cfg.train.steps = 8;
  cfg.train.global_batch = 12;  // divides 4, 3, and 2 — shrink-friendly
  cfg.train.lr = 1e-3;
  cfg.train.seed = 5;
  cfg.train.loader_workers = 0;
  cfg.train.verbose = false;
  cfg.train.checkpoint_every_n_steps = 3;
  cfg.train.checkpoint_dir = ckpt_root;
  cfg.train.async_checkpoint = false;  // saves land before the next fault
  return cfg;
}

// The supervisor's determinism claim, checked from the outside: a fresh
// `world`-rank run resumed from `from` (no supervisor, no faults, no
// saves) — the trajectory the post-recovery attempt must equal bitwise.
std::vector<float> fresh_resumed_losses(int world, const std::string& from,
                                        const train::ElasticConfig& ecfg,
                                        const data::SceneDataset& corpus) {
  std::vector<float> losses;
  std::mutex mu;
  run_ranks(world, [&](Communicator& c) {
    Rng rng(ecfg.model_seed);
    models::MAE mae(ecfg.model, rng);
    Fsdp fsdp(mae, c, ecfg.fsdp);
    auto tc = ecfg.train;
    tc.checkpoint_every_n_steps = 0;
    tc.checkpoint_dir.clear();
    tc.resume_from = from;
    auto r = train::pretrain_mae_distributed(mae, fsdp, c, corpus, tc);
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      losses = r.step_losses;
    }
  });
  return losses;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "diverged at post-recovery step " << i;
  }
}

// ----- the acceptance scenario: kill one rank, shrink 4 -> 3 -----------------

TEST(ElasticRecovery, KillMidStepShrinksAndContinues) {
  const std::string root = fresh_root("geofm_test_elastic_kill");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  // Saves publish after steps 2 and 5; the kill fires at step 5's fault
  // point (before its save), so recovery resumes from step 2's snapshot.
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 5));

  obs::TraceRecorder::instance().enable();
  auto& registry = obs::MetricsRegistry::instance();
  const double count_before = registry.counter("recovery.count").value();

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_GT(res.recovery_seconds, 0.0);

  const auto& a0 = res.attempts[0];
  EXPECT_EQ(a0.world, 4);
  EXPECT_FALSE(a0.completed);
  EXPECT_EQ(a0.quarantined, (std::vector<int>{1}));
  EXPECT_EQ(a0.faults_fired, 1);
  EXPECT_NE(a0.failure.find("killed by fault plan"), std::string::npos);

  const auto& a1 = res.attempts[1];
  EXPECT_EQ(a1.world, 3);
  EXPECT_TRUE(a1.completed);
  EXPECT_EQ(a1.start_step, 3);
  ASSERT_EQ(a1.losses.size(), 5u);
  ASSERT_FALSE(a1.resumed_from.empty());
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(res.final_result.start_step, 3);

  // The heart of the feature: post-recovery losses are bitwise the
  // trajectory of a fresh 3-rank run resumed from the same checkpoint.
  expect_bitwise(a1.losses,
                 fresh_resumed_losses(3, a1.resumed_from, cfg, corpus));

  // Recovery is observable: metrics counted and recover.* spans recorded.
  EXPECT_GE(registry.counter("recovery.count").value(), count_before + 1);
  bool saw_detect = false, saw_reform = false, saw_reshard = false;
  for (const auto& e : obs::TraceRecorder::instance().snapshot()) {
    const std::string name = e.name ? e.name : "";
    saw_detect |= name == "recover.detect";
    saw_reform |= name == "recover.reform";
    saw_reshard |= name == "recover.reshard";
  }
  EXPECT_TRUE(saw_detect);
  EXPECT_TRUE(saw_reform);
  EXPECT_TRUE(saw_reshard);
  fs::remove_all(root);
}

// ----- two faults in one run: 4 -> 3 -> 2 ------------------------------------

TEST(ElasticRecovery, TwoFaultsShrinkTwice) {
  const std::string root = fresh_root("geofm_test_elastic_two");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 9;
  cfg.train.checkpoint_every_n_steps = 2;  // saves after steps 1,3,5,7
  // Identity 2 dies at step 3 (before that step's save -> resume at 2);
  // identity 0 dies at step 6 in the shrunken world (latest save then is
  // step 5 -> resume at 6). Unfired events carry across attempts.
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(2, 3));
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(0, 6));

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 3u);
  EXPECT_EQ(res.recoveries, 2);
  EXPECT_EQ(res.attempts[0].world, 4);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{2}));
  EXPECT_EQ(res.attempts[1].world, 3);
  // start_step is only recorded for completing attempts; the middle
  // attempt's provenance shows in what it resumed from (step 1 -> step 2).
  EXPECT_NE(res.attempts[1].resumed_from.find("step_00000001"),
            std::string::npos);
  EXPECT_FALSE(res.attempts[1].completed);
  EXPECT_EQ(res.attempts[1].quarantined, (std::vector<int>{0}));

  const auto& last = res.attempts[2];
  EXPECT_EQ(last.world, 2);
  EXPECT_TRUE(last.completed);
  EXPECT_EQ(last.start_step, 6);
  ASSERT_EQ(last.losses.size(), 3u);
  EXPECT_EQ(res.final_identities, (std::vector<int>{1, 3}));

  expect_bitwise(last.losses,
                 fresh_resumed_losses(2, last.resumed_from, cfg, corpus));
  fs::remove_all(root);
}

// ----- a stall (not a crash) is diagnosed and quarantined --------------------

TEST(ElasticRecovery, StallQuarantinedByWatchdog) {
  const std::string root = fresh_root("geofm_test_elastic_stall");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 6;
  cfg.train.checkpoint_every_n_steps = 2;
  // Rank 2 goes silent for 2.5s mid-step-4; nobody crashes. Without the
  // watchdog this deadlocks — with it, the stall becomes a diagnosed
  // abort and rank 2 is quarantined like a dead rank.
  cfg.faults.events.push_back(comm::FaultEvent::stall_at_step(2, 4, 2.5));
  cfg.watchdog_deadline_seconds = 0.75;

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{2}));
  EXPECT_NE(res.attempts[0].failure.find("stalled"), std::string::npos);
  EXPECT_EQ(res.attempts[1].world, 3);
  EXPECT_TRUE(res.attempts[1].completed);
  EXPECT_EQ(res.attempts[1].start_step, 4);
  expect_bitwise(
      res.attempts[1].losses,
      fresh_resumed_losses(3, res.attempts[1].resumed_from, cfg, corpus));
  fs::remove_all(root);
}

// ----- fault matrix: every FaultPlan kind x sharding strategy ----------------

struct MatrixCase {
  const char* label;
  comm::FaultEvent::Kind kind;
  ShardingStrategy strategy;
};

// gtest would print the raw struct bytes, label pointer included, into the
// listed test names, so the names ctest discovers would change with every
// load address. The label alone is stable.
void PrintTo(const MatrixCase& c, std::ostream* os) { *os << c.label; }

class ElasticFaultMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ElasticFaultMatrix, RunsToCompletion) {
  const auto p = GetParam();
  const std::string root =
      fresh_root(std::string("geofm_test_elastic_matrix_") + p.label);
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 6;
  cfg.train.checkpoint_every_n_steps = 2;
  cfg.fsdp.strategy = p.strategy;
  cfg.fsdp.ddp_bucket_cap_bytes = 4096;  // DDP: buckets that split units
  cfg.watchdog_deadline_seconds = 0.75;

  switch (p.kind) {
    case comm::FaultEvent::Kind::kKill:
      cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 3));
      break;
    case comm::FaultEvent::Kind::kStall:
      cfg.faults.events.push_back(comm::FaultEvent::stall_at_step(1, 3, 2.5));
      break;
    case comm::FaultEvent::Kind::kSlowRank:
      // Latency, not death: the run must complete at full world with no
      // watchdog false positive (delays stay far under the deadline).
      cfg.faults.events.push_back(comm::FaultEvent::slow_rank(2, 2, 0.005, 6));
      break;
    case comm::FaultEvent::Kind::kCorrupt:
      cfg.faults.seed = 7;
      cfg.faults.events.push_back(comm::FaultEvent::corrupt_at_post(1, 3));
      break;
    default:  // IO kinds: covered by the StorageFaults suite, not here
      break;
  }

  const auto res = train::run_elastic(cfg, corpus);

  const bool lethal = p.kind == comm::FaultEvent::Kind::kKill ||
                      p.kind == comm::FaultEvent::Kind::kStall;
  if (lethal) {
    ASSERT_EQ(res.attempts.size(), 2u);
    EXPECT_EQ(res.recoveries, 1);
    EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{1}));
    EXPECT_EQ(res.attempts[1].world, 3);
    EXPECT_TRUE(res.attempts[1].completed);
  } else {
    // Non-lethal faults degrade or perturb the run but never shrink it.
    ASSERT_EQ(res.attempts.size(), 1u);
    EXPECT_EQ(res.recoveries, 0);
    EXPECT_EQ(res.attempts[0].world, 4);
    EXPECT_TRUE(res.attempts[0].completed);
    EXPECT_EQ(res.attempts[0].faults_fired, 1);
    EXPECT_EQ(res.final_result.step_losses.size(), 6u);
  }
  fs::remove_all(root);
}

// The `*_ddp` rows run NO_SHARD, the FSDP strategy with DDP's replicated
// per-unit all-reduce; `kill_ddp_buckets` runs the DDP strategy itself.
INSTANTIATE_TEST_SUITE_P(
    KindsByStrategy, ElasticFaultMatrix,
    ::testing::Values(
        MatrixCase{"kill_ddp", comm::FaultEvent::Kind::kKill,
                   ShardingStrategy::kNoShard},
        MatrixCase{"kill_ddp_buckets", comm::FaultEvent::Kind::kKill,
                   ShardingStrategy::kDdp},
        MatrixCase{"kill_fsdp", comm::FaultEvent::Kind::kKill,
                   ShardingStrategy::kFullShard},
        MatrixCase{"stall_ddp", comm::FaultEvent::Kind::kStall,
                   ShardingStrategy::kNoShard},
        MatrixCase{"stall_fsdp", comm::FaultEvent::Kind::kStall,
                   ShardingStrategy::kFullShard},
        MatrixCase{"slow_ddp", comm::FaultEvent::Kind::kSlowRank,
                   ShardingStrategy::kNoShard},
        MatrixCase{"slow_fsdp", comm::FaultEvent::Kind::kSlowRank,
                   ShardingStrategy::kFullShard},
        MatrixCase{"corrupt_ddp", comm::FaultEvent::Kind::kCorrupt,
                   ShardingStrategy::kNoShard},
        MatrixCase{"corrupt_fsdp", comm::FaultEvent::Kind::kCorrupt,
                   ShardingStrategy::kFullShard}),
    [](const ::testing::TestParamInfo<MatrixCase>& info) {
      return info.param.label;
    });

// ----- supervisor edge cases -------------------------------------------------

TEST(ElasticRecovery, NoFaultsIsAPlainRun) {
  const std::string root = fresh_root("geofm_test_elastic_clean");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 4;

  const auto res = train::run_elastic(cfg, corpus);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_EQ(res.recoveries, 0);
  EXPECT_TRUE(res.attempts[0].completed);
  EXPECT_TRUE(res.attempts[0].resumed_from.empty());
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(res.final_result.step_losses.size(), 4u);
  fs::remove_all(root);
}

TEST(ElasticRecovery, GivesUpBelowMinWorld) {
  const std::string root = fresh_root("geofm_test_elastic_minworld");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 6;
  cfg.min_world = 4;  // any quarantine drops below this
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(3, 2));
  EXPECT_THROW(train::run_elastic(cfg, corpus), Error);
  fs::remove_all(root);
}

TEST(ElasticRecovery, FaultBeforeFirstSaveRestartsFromScratch) {
  const std::string root = fresh_root("geofm_test_elastic_nosave");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 5;
  cfg.train.checkpoint_every_n_steps = 3;  // first save after step 2...
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(0, 1));  // ...dies first

  const auto res = train::run_elastic(cfg, corpus);
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_TRUE(res.attempts[1].resumed_from.empty());
  EXPECT_EQ(res.attempts[1].start_step, 0);
  EXPECT_EQ(res.attempts[1].world, 3);
  EXPECT_TRUE(res.attempts[1].completed);
  EXPECT_EQ(res.final_result.step_losses.size(), 5u);
  fs::remove_all(root);
}

// ----- grow-back: re-admission at checkpoint boundaries ----------------------

// Like expect_bitwise, but `got` is a truncated attempt: compare against
// the leading steps of the reference trajectory.
void expect_bitwise_prefix(const std::vector<float>& got,
                           const std::vector<float>& want) {
  ASSERT_LE(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "diverged at step " << i;
  }
}

class ElasticGrowBack : public ::testing::TestWithParam<ShardingStrategy> {};

// The acceptance scenario: a kill plus divisibility trimming shrink
// 4 -> 2; at the next checkpoint boundary both quarantined identities
// pass probation and the run grows back to 4. The grown attempt must be
// bitwise the trajectory of a fresh 4-rank run resumed from the boundary
// checkpoint, and the armed watchdog must never flag the parked ranks.
TEST_P(ElasticGrowBack, ShrinkThenGrowBackBitwise) {
  const std::string root = fresh_root(std::string("geofm_test_growback_") +
                                      parallel::to_string(GetParam()));
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.fsdp.strategy = GetParam();
  cfg.fsdp.ddp_bucket_cap_bytes = 4096;  // DDP: buckets that split units
  cfg.train.steps = 9;
  cfg.train.global_batch = 8;  // divides 4 and 2 but not 3: the kill of
                               // identity 1 trims identity 3 too (4 -> 2)
  cfg.train.loader_workers = 1;  // resume overlaps restore with prefetch
  cfg.watchdog_deadline_seconds = 0.75;
  cfg.readmission.readmit_quarantined = true;
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 4));

  obs::TraceRecorder::instance().enable();
  auto& registry = obs::MetricsRegistry::instance();
  const double readmits_before = registry.counter("readmit.count").value();

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 3u);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.readmissions, 1);
  EXPECT_TRUE(res.probation_rejected.empty());

  const auto& a0 = res.attempts[0];
  EXPECT_EQ(a0.world, 4);
  EXPECT_FALSE(a0.completed);
  EXPECT_EQ(a0.quarantined, (std::vector<int>{1, 3}));

  // The shrunken attempt stops at the boundary the driver checkpoints
  // (step 6 = next multiple of checkpoint_every_n_steps past resume).
  const auto& a1 = res.attempts[1];
  EXPECT_EQ(a1.world, 2);
  EXPECT_TRUE(a1.completed);
  EXPECT_TRUE(a1.truncated_for_growth);
  EXPECT_EQ(a1.start_step, 3);
  ASSERT_EQ(a1.losses.size(), 3u);
  EXPECT_NE(a1.resumed_from.find("step_00000002"), std::string::npos);

  const auto& a2 = res.attempts[2];
  EXPECT_EQ(a2.world, 4);
  EXPECT_TRUE(a2.completed);
  EXPECT_FALSE(a2.truncated_for_growth);
  EXPECT_EQ(a2.readmitted, (std::vector<int>{1, 3}));
  EXPECT_EQ(a2.start_step, 6);
  ASSERT_EQ(a2.losses.size(), 3u);
  EXPECT_NE(a2.resumed_from.find("step_00000005"), std::string::npos);
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 1, 2, 3}));

  // Bitwise parity on both sides of the boundary: the shrunken prefix
  // equals a fresh 2-rank resume, the grown tail a fresh 4-rank resume.
  expect_bitwise_prefix(
      a1.losses, fresh_resumed_losses(2, a1.resumed_from, cfg, corpus));
  expect_bitwise(a2.losses,
                 fresh_resumed_losses(4, a2.resumed_from, cfg, corpus));

  EXPECT_GE(registry.counter("readmit.count").value(), readmits_before + 1);
  bool saw_readmit = false, saw_overlap_arg = false;
  for (const auto& e : obs::TraceRecorder::instance().snapshot()) {
    const std::string name = e.name ? e.name : "";
    saw_readmit |= name == "recover.readmit";
    // Restore/fetch overlap is accounted on the reshard span: with
    // loader workers the resume primes the epoch before restoring.
    if (name == "recover.reshard" && e.arg_name != nullptr &&
        std::string(e.arg_name) == "loader_overlap" && e.arg == 1) {
      saw_overlap_arg = true;
    }
  }
  EXPECT_TRUE(saw_readmit);
  EXPECT_TRUE(saw_overlap_arg);
  fs::remove_all(root);
}

// The `ddp` row runs NO_SHARD, the FSDP strategy with DDP's replicated
// per-unit all-reduce; `ddp_buckets` runs the DDP strategy itself.
INSTANTIATE_TEST_SUITE_P(
    Strategies, ElasticGrowBack,
    ::testing::Values(ShardingStrategy::kNoShard,
                      ShardingStrategy::kFullShard, ShardingStrategy::kDdp),
    [](const ::testing::TestParamInfo<ShardingStrategy>& info) {
      switch (info.param) {
        case ShardingStrategy::kFullShard: return "full_shard";
        case ShardingStrategy::kDdp: return "ddp_buckets";
        default: return "ddp";
      }
    });

// A spare identity that was never in the initial world joins at the
// boundary (replacement node), and the grown run is still bitwise a
// fresh 4-rank resume.
TEST(ElasticGrowBackScenarios, ReplacementIdentityJoins) {
  const std::string root = fresh_root("geofm_test_growback_spare");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 9;
  cfg.readmission.spare_identities = 1;  // identity 4, parked from launch
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 4));

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 3u);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{1}));
  EXPECT_EQ(res.attempts[1].world, 3);
  EXPECT_TRUE(res.attempts[1].truncated_for_growth);
  const auto& last = res.attempts[2];
  EXPECT_EQ(last.world, 4);
  EXPECT_EQ(last.readmitted, (std::vector<int>{4}));
  EXPECT_TRUE(last.completed);
  // The dead identity stays retired; the spare takes its slot.
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 2, 3, 4}));
  expect_bitwise(last.losses,
                 fresh_resumed_losses(4, last.resumed_from, cfg, corpus));
  fs::remove_all(root);
}

// A returning rank that hangs in its health check is re-quarantined by
// the probation watchdog instead of stalling the run; training finishes
// at the shrunken world.
TEST(ElasticGrowBackScenarios, FlakyReturningRankRequarantined) {
  const std::string root = fresh_root("geofm_test_growback_flaky");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 9;
  cfg.readmission.readmit_quarantined = true;
  cfg.readmission.probation_deadline_seconds = 0.75;
  cfg.readmission.probation_hook = [](int identity) {
    if (identity == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2500));
    }
  };
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 4));

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 3u);
  EXPECT_EQ(res.readmissions, 0);
  EXPECT_EQ(res.probation_rejected, (std::vector<int>{1}));
  EXPECT_TRUE(res.attempts[1].truncated_for_growth);
  const auto& last = res.attempts[2];
  EXPECT_EQ(last.world, 3);  // nobody joined; the run stays shrunken
  EXPECT_TRUE(last.readmitted.empty());
  EXPECT_TRUE(last.completed);
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 2, 3}));
  expect_bitwise(last.losses,
                 fresh_resumed_losses(3, last.resumed_from, cfg, corpus));
  fs::remove_all(root);
}

// Regression: plan events targeting an identity outside the current
// attempt are held back, not dropped — a re-admitted identity's later
// faults must still fire. Identity 1 dies, rejoins, and dies again.
TEST(ElasticGrowBackScenarios, ReadmittedIdentityFaultsFireAgain) {
  const std::string root = fresh_root("geofm_test_growback_refault");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 10;
  cfg.train.checkpoint_every_n_steps = 2;
  cfg.readmission.readmit_quarantined = true;
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 4));
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 7));

  const auto res = train::run_elastic(cfg, corpus);

  // kill -> boundary stop -> grow -> kill again -> boundary stop -> grow.
  ASSERT_EQ(res.attempts.size(), 5u);
  EXPECT_EQ(res.recoveries, 2);
  EXPECT_EQ(res.readmissions, 2);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{1}));
  EXPECT_EQ(res.attempts[2].readmitted, (std::vector<int>{1}));
  // The second event survived the attempt where identity 1 was absent
  // and fired after re-admission.
  EXPECT_EQ(res.attempts[2].quarantined, (std::vector<int>{1}));
  EXPECT_EQ(res.attempts[2].faults_fired, 1);
  EXPECT_EQ(res.attempts[4].readmitted, (std::vector<int>{1}));
  ASSERT_EQ(res.fired_plan.events.size(), 2u);
  EXPECT_EQ(res.fired_plan.events[0].rank, 1);
  EXPECT_EQ(res.fired_plan.events[1].rank, 1);
  EXPECT_TRUE(res.attempts[4].completed);
  EXPECT_EQ(res.final_identities, (std::vector<int>{0, 1, 2, 3}));
  expect_bitwise(
      res.attempts[4].losses,
      fresh_resumed_losses(4, res.attempts[4].resumed_from, cfg, corpus));
  fs::remove_all(root);
}

// ----- FaultPlan record/replay: the realized schedule re-runs bitwise --------

TEST(FaultTrace, ElasticRunReplaysBitwise) {
  auto corpus = data::million_aid_pretrain(64, 16);
  const std::string root1 = fresh_root("geofm_test_replay_record");
  auto cfg = base_config(root1);
  cfg.faults.seed = 21;
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 5));
  // An event that never fires (step past the end) must not appear in the
  // recorded plan.
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(2, 99));
  const auto recorded = train::run_elastic(cfg, corpus);
  ASSERT_EQ(recorded.fired_plan.events.size(), 1u);
  EXPECT_EQ(recorded.fired_plan.seed, 21u);

  // Round-trip the realized schedule through JSON and drive a second run
  // with it: every attempt must replay bitwise.
  const std::string json = comm::plan_to_json(recorded.fired_plan);
  const std::string root2 = fresh_root("geofm_test_replay_play");
  auto cfg2 = base_config(root2);
  cfg2.faults = comm::plan_from_json(json);
  const auto replayed = train::run_elastic(cfg2, corpus);

  ASSERT_EQ(replayed.attempts.size(), recorded.attempts.size());
  for (size_t i = 0; i < recorded.attempts.size(); ++i) {
    const auto& want = recorded.attempts[i];
    const auto& got = replayed.attempts[i];
    EXPECT_EQ(got.world, want.world) << "attempt " << i;
    EXPECT_EQ(got.quarantined, want.quarantined) << "attempt " << i;
    expect_bitwise(got.losses, want.losses);
  }
  EXPECT_EQ(replayed.final_identities, recorded.final_identities);
  fs::remove_all(root1);
  fs::remove_all(root2);
}

}  // namespace
}  // namespace geofm
