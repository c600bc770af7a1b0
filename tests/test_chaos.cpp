// Chaos engine tests: seeded campaign generation, the data-path fault
// seam (worker death + respawn, hung renders + watchdog takeover,
// poisoned samples + quarantine), record/replay through postmortem
// bundles, and the system invariant checker — including planted
// violations, so a green invariant report is known to be able to turn
// red.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/invariants.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "comm/fault.hpp"
#include "data/dataloader.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "obs/metrics.hpp"
#include "train/elastic.hpp"

namespace geofm {
namespace {

using comm::FaultEvent;
using comm::FaultPlan;
using data::DataLoader;
namespace fs = std::filesystem;

std::string fresh_root(const std::string& name) {
  const std::string root = "/tmp/" + name;
  fs::remove_all(root);
  ckpt::reset_save_state(root);
  return root;
}

models::MaeConfig chaos_mae_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  return models::mae_for(enc);
}

train::ElasticConfig chaos_elastic_config(const std::string& ckpt_root) {
  train::ElasticConfig cfg;
  cfg.model = chaos_mae_cfg();
  cfg.model_seed = 42;
  cfg.world = 4;
  cfg.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
  cfg.train.steps = 8;
  cfg.train.global_batch = 12;
  cfg.train.lr = 1e-3;
  cfg.train.seed = 5;
  cfg.train.loader_workers = 2;  // the data-path seam needs workers
  cfg.train.verbose = false;
  cfg.train.checkpoint_every_n_steps = 3;
  cfg.train.checkpoint_dir = ckpt_root;
  cfg.train.async_checkpoint = false;
  cfg.train.tolerate_checkpoint_failures = true;
  return cfg;
}

double counter_value(const std::string& name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// All batches of one epoch through a loader configured by `tweak`.
std::vector<data::Batch> collect_epoch(const data::SceneDataset& ds,
                                       void (*tweak)(DataLoader::Options&),
                                       comm::FaultInjector* injector) {
  DataLoader::Options opts;
  opts.batch_size = 8;
  opts.n_workers = 2;
  opts.seed = 7;
  opts.fault_injector = injector;
  if (tweak != nullptr) tweak(opts);
  DataLoader loader(ds, data::Split::kTrain, opts);
  loader.start_epoch(0);
  std::vector<data::Batch> out;
  while (auto b = loader.next()) out.push_back(std::move(*b));
  return out;
}

void expect_batches_bitwise(const std::vector<data::Batch>& got,
                            const std::vector<data::Batch>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t b = 0; b < got.size(); ++b) {
    ASSERT_EQ(got[b].sample_indices, want[b].sample_indices) << "batch " << b;
    ASSERT_EQ(got[b].images.numel(), want[b].images.numel()) << "batch " << b;
    const float* g = got[b].images.data();
    const float* w = want[b].images.data();
    for (i64 i = 0; i < got[b].images.numel(); ++i) {
      ASSERT_EQ(g[i], w[i]) << "batch " << b << " element " << i;
    }
  }
}

// ---------------------------------------------------------------- campaigns

TEST(ChaosCampaign, SameSeedSameCampaignBitwise) {
  chaos::CampaignConfig cfg;
  cfg.seed = 0xabcdefULL;
  cfg.bursts = 3;
  cfg.max_faults_per_burst = 4;
  const chaos::Campaign a = chaos::generate_campaign(cfg);
  const chaos::Campaign b = chaos::generate_campaign(cfg);
  EXPECT_EQ(comm::plan_to_json(a.plan), comm::plan_to_json(b.plan));
  EXPECT_EQ(a.overload_steps, b.overload_steps);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_FALSE(a.plan.events.empty());
}

TEST(ChaosCampaign, KillBudgetAndTargetRangesHold) {
  for (u64 seed = 0; seed < 64; ++seed) {
    chaos::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.bursts = 3;
    cfg.max_faults_per_burst = 4;
    cfg.max_kills = 1;
    const chaos::Campaign c = chaos::generate_campaign(cfg);
    int kills = 0;
    for (const FaultEvent& e : c.plan.events) {
      if (e.kind == FaultEvent::Kind::kKill) ++kills;
      EXPECT_LT(e.rank, cfg.world) << "seed " << seed;
      if (e.seam == comm::Seam::kStep) {
        EXPECT_LT(e.at, cfg.steps) << "seed " << seed;
      }
    }
    EXPECT_LE(kills, cfg.max_kills) << "seed " << seed;
    for (const i64 s : c.overload_steps) {
      EXPECT_GE(s, 0) << "seed " << seed;
      EXPECT_LT(s, cfg.steps) << "seed " << seed;
    }
  }
}

TEST(ChaosCampaign, DisabledSubsystemsDrawNoEvents) {
  for (u64 seed = 0; seed < 32; ++seed) {
    chaos::CampaignConfig cfg;
    cfg.seed = seed;
    cfg.bursts = 3;
    cfg.max_faults_per_burst = 4;
    cfg.comm_faults = false;
    cfg.storage_faults = false;
    cfg.serve_overload = false;
    const chaos::Campaign c = chaos::generate_campaign(cfg);
    EXPECT_TRUE(c.overload_steps.empty()) << "seed " << seed;
    for (const FaultEvent& e : c.plan.events) {
      EXPECT_EQ(e.seam, comm::Seam::kRender)
          << "seed " << seed << ": non-loader event "
          << comm::kind_name(e.kind);
    }
  }
}

// ---------------------------------------------------------------- loader seam

TEST(ChaosLoader, WorkerDeathRespawnsAndEpochIsBitwise) {
  auto ds = data::million_aid_pretrain(48, 16);
  const auto baseline = collect_epoch(ds, nullptr, nullptr);

  FaultPlan plan;
  plan.events.push_back(FaultEvent::loader_worker_kill(0, 2));
  comm::FaultInjector injector(plan);
  const double deaths_before = counter_value("loader.worker_deaths");
  const double respawns_before = counter_value("loader.respawns");
  const auto faulted = collect_epoch(ds, nullptr, &injector);

  expect_batches_bitwise(faulted, baseline);
  EXPECT_EQ(counter_value("loader.worker_deaths") - deaths_before, 1.0);
  EXPECT_EQ(counter_value("loader.respawns") - respawns_before, 1.0);
}

TEST(ChaosLoader, WatchdogTakesOverHungRender) {
  auto ds = data::million_aid_pretrain(48, 16);
  const auto baseline = collect_epoch(ds, nullptr, nullptr);

  FaultPlan plan;
  plan.events.push_back(FaultEvent::loader_slow_render(0, 1, 0.6));
  comm::FaultInjector injector(plan);
  const double takeovers_before = counter_value("loader.stall_requeues");
  const auto faulted = collect_epoch(
      ds,
      [](DataLoader::Options& o) {
        o.n_workers = 1;  // the one worker hangs; only the watchdog saves us
        o.watchdog_seconds = 0.05;
      },
      &injector);

  expect_batches_bitwise(faulted, baseline);
  EXPECT_GE(counter_value("loader.stall_requeues") - takeovers_before, 1.0);
}

TEST(ChaosLoader, PoisonedSampleIsQuarantinedNotFatal) {
  auto ds = data::million_aid_pretrain(48, 16);
  const auto baseline = collect_epoch(ds, nullptr, nullptr);

  FaultPlan plan;
  plan.seed = 31337;
  plan.events.push_back(FaultEvent::loader_poison(0, 0));
  comm::FaultInjector injector(plan);
  const double quarantined_before = counter_value("loader.quarantined");

  DataLoader::Options opts;
  opts.batch_size = 8;
  opts.n_workers = 2;
  opts.seed = 7;
  opts.fault_injector = &injector;
  opts.quarantine_poisoned = true;
  DataLoader loader(ds, data::Split::kTrain, opts);
  loader.start_epoch(0);
  std::vector<data::Batch> faulted;
  while (auto b = loader.next()) faulted.push_back(std::move(*b));

  EXPECT_EQ(counter_value("loader.quarantined") - quarantined_before, 1.0);
  const std::vector<i64> quarantined = loader.quarantined_samples();
  ASSERT_EQ(quarantined.size(), 1u);

  // Every surviving value is finite, and the batches match the clean run
  // everywhere except the quarantined sample's row, which is zeroed.
  ASSERT_EQ(faulted.size(), baseline.size());
  i64 zeroed_rows = 0;
  for (size_t b = 0; b < faulted.size(); ++b) {
    const i64 rows = faulted[b].images.dim(0);
    const i64 row_elems = faulted[b].images.numel() / rows;
    const float* g = faulted[b].images.data();
    const float* w = baseline[b].images.data();
    for (i64 r = 0; r < rows; ++r) {
      bool row_equal = true;
      for (i64 i = r * row_elems; i < (r + 1) * row_elems; ++i) {
        ASSERT_TRUE(std::isfinite(g[i]))
            << "non-finite survived quarantine at batch " << b;
        if (g[i] != w[i]) row_equal = false;
      }
      if (row_equal) continue;
      ++zeroed_rows;
      EXPECT_EQ(faulted[b].sample_indices[static_cast<size_t>(r)],
                quarantined[0]);
      for (i64 i = r * row_elems; i < (r + 1) * row_elems; ++i) {
        EXPECT_EQ(g[i], 0.0f);
      }
    }
  }
  EXPECT_EQ(zeroed_rows, 1);
}

// ------------------------------------------------------------ elastic + audit

// A generated mixed campaign (comm + storage + loader) through the full
// elastic supervisor: the run completes, the invariant audit holds, and
// replaying the identical campaign reproduces the identical realized
// fault schedule — the record/replay contract at campaign granularity.
TEST(ChaosElastic, MixedCampaignSurvivesAuditsAndReplaysBitwise) {
  const std::string root = fresh_root("geofm_test_chaos_mixed");
  auto corpus = data::million_aid_pretrain(64, 16);

  chaos::CampaignConfig ccfg;
  ccfg.seed = 806662;  // drawn schedule includes loader faults
  ccfg.world = 4;
  ccfg.steps = 8;
  ccfg.io_ops = 6;
  const chaos::Campaign campaign = chaos::generate_campaign(ccfg);
  ASSERT_FALSE(campaign.plan.events.empty());

  auto cfg = chaos_elastic_config(root);
  cfg.faults = campaign.plan;
  const auto res = train::run_elastic(cfg, corpus);
  ASSERT_TRUE(res.attempts.back().completed);

  chaos::InvariantInputs in;
  in.config = &cfg;
  in.result = &res;
  in.corpus = &corpus;
  in.publish_roots = {root};
  const chaos::InvariantReport report = chaos::check_invariants(in);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GE(report.checked.size(), 3u);

  // Same campaign, fresh run: the realized schedule is bitwise stable.
  const std::string second_root = fresh_root("geofm_test_chaos_mixed2");
  auto cfg2 = chaos_elastic_config(second_root);
  cfg2.faults = campaign.plan;
  const auto res2 = train::run_elastic(cfg2, corpus);
  EXPECT_EQ(comm::plan_to_json(res2.fired_plan),
            comm::plan_to_json(res.fired_plan));

  fs::remove_all(root);
  fs::remove_all(second_root);
}

// ------------------------------------------------------------- record/replay

TEST(ChaosPostmortem, BundleFiredPlanParsesBackToTheRealizedSchedule) {
  const std::string root = fresh_root("geofm_test_chaos_postmortem");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = chaos_elastic_config(root);
  cfg.faults.seed = 99;
  cfg.faults.events.push_back(FaultEvent::loader_poison(2, 3));
  cfg.faults.events.push_back(FaultEvent::kill_at_step(1, 5));

  const auto res = train::run_elastic(cfg, corpus);
  ASSERT_EQ(res.attempts.size(), 2u);
  const train::ElasticAttempt& aborted = res.attempts.front();
  ASSERT_FALSE(aborted.postmortem.empty());
  ASSERT_TRUE(fs::exists(aborted.postmortem));

  const chaos::Campaign parsed =
      chaos::plan_from_postmortem_file(aborted.postmortem);
  EXPECT_EQ(parsed.seed, cfg.faults.seed);
  ASSERT_EQ(parsed.plan.events.size(),
            static_cast<size_t>(aborted.faults_fired));
  const bool has_kill = std::any_of(
      parsed.plan.events.begin(), parsed.plan.events.end(),
      [](const FaultEvent& e) { return e.kind == FaultEvent::Kind::kKill; });
  const bool has_poison =
      std::any_of(parsed.plan.events.begin(), parsed.plan.events.end(),
                  [](const FaultEvent& e) {
                    return e.kind == FaultEvent::Kind::kLoaderPoison;
                  });
  EXPECT_TRUE(has_kill);
  EXPECT_TRUE(has_poison);
  fs::remove_all(root);
}

TEST(ChaosPostmortem, BarePlanJsonAndGarbageInputs) {
  FaultPlan plan;
  plan.seed = 4242;
  plan.events.push_back(FaultEvent::kill_at_step(1, 5));
  plan.events.push_back(FaultEvent::io_torn_write(0, 1));
  plan.events.push_back(FaultEvent::loader_slow_render(-1, 3, 0.03125, 2));
  const std::string json = comm::plan_to_json(plan);

  const chaos::Campaign parsed = chaos::plan_from_postmortem(json);
  EXPECT_EQ(comm::plan_to_json(parsed.plan), json);

  EXPECT_THROW(chaos::plan_from_postmortem("not json at all"), Error);
  EXPECT_THROW(chaos::plan_from_postmortem("{\"notes\": {}}"), Error);
  EXPECT_THROW(chaos::plan_from_postmortem_file("/nonexistent/bundle.json"),
               Error);
}

// --------------------------------------------------------- planted violations

TEST(ChaosInvariants, PlantedServeViolationsAreFlagged) {
  // A dropped future: 5 issued, 4 resolved.
  chaos::InvariantInputs in;
  in.serve.issued = 5;
  in.serve.resolved = 4;
  in.serve.stats.requests = 3;
  in.serve.stats.shed_overload = 2;
  chaos::InvariantReport rep = chaos::check_invariants(in);
  ASSERT_EQ(rep.checked, std::vector<std::string>{"futures-conserved"});
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations[0].invariant, "futures-conserved");

  // Typed accounting that does not add up to the issued count.
  in.serve.resolved = 5;
  in.serve.stats.shed_overload = 1;  // 3 fulfilled + 1 shed != 5 issued
  rep = chaos::check_invariants(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.violations[0].invariant, "futures-conserved");

  // And the balanced ledger passes.
  in.serve.stats.shed_overload = 2;
  EXPECT_TRUE(chaos::check_invariants(in).ok());
}

TEST(ChaosInvariants, TornVisiblePublicationIsFlagged) {
  const std::string root = fresh_root("geofm_test_chaos_torn_pub");
  Rng rng(3);
  models::MAE model(chaos_mae_cfg(), rng);
  ckpt::SaveRequest req;
  req.dir = root;
  req.step = 4;
  req.rank = 0;
  req.world = 1;
  req.counters = {{"step", i64{4}}};
  req.state = ckpt::replicated_state(model, nullptr, 0, 1, /*for_save=*/true);
  ckpt::Checkpointer saver(/*async=*/false);
  saver.save(req);

  chaos::InvariantInputs in;
  in.publish_roots = {root};
  EXPECT_TRUE(chaos::check_invariants(in).ok());

  // Corrupt a shard *behind* the published manifest — the exact torn
  // state the publication protocol exists to make impossible.
  const ckpt::PublishedManifest m = ckpt::latest_published_manifest(root);
  ASSERT_TRUE(m.found());
  const ckpt::format::Manifest man = ckpt::format::read_manifest(m.dir);
  ASSERT_FALSE(man.shards.empty());
  const std::string shard = m.dir + "/" + man.shards.front();
  fs::resize_file(shard, fs::file_size(shard) / 2);

  const chaos::InvariantReport rep = chaos::check_invariants(in);
  ASSERT_FALSE(rep.ok());
  for (const auto& v : rep.violations) {
    EXPECT_EQ(v.invariant, "publications-atomic");
  }
  fs::remove_all(root);
}

TEST(ChaosInvariants, PlantedTrainingViolationsAreFlagged) {
  const std::string root = fresh_root("geofm_test_chaos_planted");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = chaos_elastic_config(root);
  cfg.faults.events.push_back(FaultEvent::kill_at_step(1, 5));
  const train::ElasticResult res = train::run_elastic(cfg, corpus);

  chaos::InvariantInputs in;
  in.config = &cfg;
  in.result = &res;
  in.corpus = &corpus;
  in.publish_roots = {root};
  ASSERT_TRUE(chaos::check_invariants(in).ok());

  const auto violated = [&](const train::ElasticResult& bad,
                            const std::string& invariant) {
    chaos::InvariantInputs bin = in;
    bin.result = &bad;
    const chaos::InvariantReport rep = chaos::check_invariants(bin);
    EXPECT_FALSE(rep.ok()) << "expected a " << invariant << " violation";
    return !rep.ok() && rep.violations[0].invariant == invariant;
  };

  // Recovery count over the bound.
  train::ElasticResult over = res;
  over.recoveries = cfg.max_recoveries + 1;
  EXPECT_TRUE(violated(over, "recovery-bounded"));

  // Recovery time over an explicit ceiling.
  {
    chaos::InvariantInputs bin = in;
    bin.max_recovery_seconds = 1e-9;
    const chaos::InvariantReport rep = chaos::check_invariants(bin);
    ASSERT_FALSE(rep.ok());
    EXPECT_EQ(rep.violations[0].invariant, "recovery-bounded");
  }

  // A failed attempt whose postmortem bundle went missing — and one that
  // never archived at all.
  train::ElasticResult missing = res;
  missing.attempts.front().postmortem = "/nonexistent/postmortem.json";
  EXPECT_TRUE(violated(missing, "postmortems-present"));
  train::ElasticResult unarchived = res;
  unarchived.attempts.front().postmortem.clear();
  EXPECT_TRUE(violated(unarchived, "postmortems-present"));

  // Post-recovery losses that do not match the fresh shrunken run.
  train::ElasticResult diverged = res;
  diverged.attempts.back().losses.back() += 1.0f;
  EXPECT_TRUE(violated(diverged, "recovery-bitwise"));

  fs::remove_all(root);
}

}  // namespace
}  // namespace geofm
