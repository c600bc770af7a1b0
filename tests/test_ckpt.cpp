// Checkpoint/restart subsystem tests. The load-bearing properties:
//
//   * Parity — save at step k, restore into a fresh process, continue:
//     parameters, optimizer moments, and counters must match an
//     uninterrupted run bitwise, for single-rank, DDP, and every FSDP
//     sharding strategy.
//   * Elasticity — a checkpoint written at world size W / strategy S
//     restores at W' != W or S' != S with bitwise-identical parameters
//     (FSDP<->DDP, 4->2->1 ranks and back).
//   * Fault tolerance — a rank killed mid-step leaves the last complete
//     checkpoint intact; resuming reproduces the uninterrupted loss
//     trajectory.
//   * Integrity — corrupted, truncated, or incomplete checkpoints are
//     rejected with the offending tensor named.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/io_fault.hpp"
#include "ckpt/reshard.hpp"
#include "ckpt/state.hpp"
#include "comm/communicator.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "optim/optimizer.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"

namespace geofm {
namespace {

namespace fs = std::filesystem;
using comm::Communicator;
using comm::run_ranks;
using parallel::Fsdp;
using parallel::FsdpOptions;
using parallel::ShardingStrategy;

models::MaeConfig ckpt_mae_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  return models::mae_for(enc);
}

Tensor make_batch(i64 n, u64 seed) {
  Rng rng(seed);
  return Tensor::randn({n, 3, 16, 16}, rng, 0.5f);
}

Tensor batch_slice(const Tensor& global, i64 begin, i64 count) {
  const i64 per = global.numel() / global.dim(0);
  Tensor out({count, global.dim(1), global.dim(2), global.dim(3)});
  out.copy_(global.flat_view(begin * per, count * per));
  return out;
}

// A clean per-test checkpoint root: gone from disk AND from the
// in-process save coordinator (tests share one process).
std::string fresh_root(const std::string& name) {
  const std::string root = "/tmp/" + name;
  fs::remove_all(root);
  ckpt::reset_save_state(root);
  return root;
}

std::vector<float> flatten_params(nn::Module& m) {
  std::vector<float> out;
  for (nn::Parameter* p : m.parameters()) {
    for (i64 i = 0; i < p->numel(); ++i) out.push_back(p->value[i]);
  }
  return out;
}

std::vector<float> flatten_slots(optim::Optimizer& opt) {
  std::vector<float> out;
  for (const auto& slot : opt.state_view().slots) {
    for (i64 i = 0; i < slot.tensor.numel(); ++i) out.push_back(slot.tensor[i]);
  }
  return out;
}

// Every logical tensor (parameters and optimizer slots) of a state
// description, by name. Assumes the description covers each in full, as a
// replicated rank's does.
std::map<std::string, std::vector<float>> logical_tensors(
    const ckpt::StateDesc& desc) {
  std::map<std::string, std::vector<float>> out;
  for (const ckpt::TensorSlice& slice : desc.slices) {
    std::vector<float>& v = out[slice.name];
    v.resize(static_cast<size_t>(slice.begin + slice.data.numel()));
    for (i64 i = 0; i < slice.data.numel(); ++i) {
      v[static_cast<size_t>(slice.begin + i)] = slice.data[i];
    }
  }
  return out;
}

// Bitwise equality; reports the count and first index of any divergence.
void expect_exact(const std::vector<float>& got,
                  const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  size_t mismatches = 0;
  size_t first = 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      if (mismatches == 0) first = i;
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first divergence at element " << first << ": "
                            << got[first] << " vs " << want[first];
}

void train_steps(models::MAE& mae, optim::AdamW& opt, const Tensor& batch,
                 int first_step, int n_steps) {
  for (int s = first_step; s < first_step + n_steps; ++s) {
    Rng mask_rng(static_cast<u64>(9000 + s));
    opt.zero_grad();
    mae.forward(batch, mask_rng, /*sample_offset=*/0);
    mae.backward();
    opt.step();
  }
}

// One FSDP training run with optional restore-at-entry and save-after-a-
// step, returning rank 0's gathered full parameters. The recipe matches
// test_fsdp.cpp's so runs are comparable across world sizes/strategies.
std::vector<float> run_fsdp_ckpt(int n_ranks, const FsdpOptions& opts,
                                 i64 global_batch, int train_from,
                                 int train_to,
                                 const std::string& restore_from,
                                 const std::string& save_dir,
                                 int save_after_step, bool async_save) {
  GEOFM_CHECK(global_batch % n_ranks == 0);
  const i64 local = global_batch / n_ranks;
  std::vector<float> rank0_params;
  std::mutex mu;

  run_ranks(n_ranks, [&](Communicator& c) {
    Rng rng(42);
    models::MAE mae(ckpt_mae_cfg(), rng);
    Fsdp fsdp(mae, c, opts);
    optim::AdamW opt(fsdp.optimizer_parameters(), 1e-3, 0.9, 0.95, 1e-8,
                     0.01);
    if (!restore_from.empty()) {
      ckpt::CheckpointReader reader(restore_from);
      fsdp.drop_full_parameters();
      reader.restore(ckpt::fsdp_state(fsdp, &opt));
      ckpt::restore_optimizer_scalars(reader, opt);
    }
    Tensor global = make_batch(global_batch, 777);
    Tensor mine = batch_slice(global, c.rank() * local, local);

    for (int s = train_from; s < train_to; ++s) {
      Rng mask_rng(static_cast<u64>(9000 + s));
      fsdp.begin_step();
      mae.forward(mine, mask_rng, c.rank() * local);
      mae.backward();
      fsdp.end_backward();
      opt.step();
      if (s == save_after_step) {
        ckpt::Checkpointer saver(async_save);
        ckpt::SaveRequest req;
        req.dir = save_dir;
        req.step = s;
        req.rank = c.rank();
        req.world = n_ranks;
        req.state = ckpt::fsdp_state(fsdp, &opt);
        req.counters = {{"step", s}};
        for (const auto& [name, value] : ckpt::optimizer_scalars(opt)) {
          req.counters[name] = value;
        }
        saver.save(req);
        saver.wait_idle();
      }
    }

    fsdp.gather_full_parameters();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      rank0_params = flatten_params(mae.module());
    }
    c.barrier();
  });
  return rank0_params;
}

// ----- reshard planning -------------------------------------------------------

TEST(PlanReads, SingleExactRange) {
  const auto plan = ckpt::plan_reads({{0, 10}}, 0, 10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0], (ckpt::RangeCopy{0, 0, 0, 10}));
}

TEST(PlanReads, AssemblesWindowAcrossShards) {
  // Two ranks stored [0,10) and [10,20); a resized world wants [5,15).
  const auto plan = ckpt::plan_reads({{0, 10}, {10, 10}}, 5, 10);
  ASSERT_EQ(plan.size(), 2u);
  EXPECT_EQ(plan[0], (ckpt::RangeCopy{0, 5, 0, 5}));
  EXPECT_EQ(plan[1], (ckpt::RangeCopy{1, 0, 5, 5}));
}

TEST(PlanReads, MisalignedStoredPiecesCoverMiddleWindow) {
  const auto plan = ckpt::plan_reads({{0, 7}, {7, 5}, {12, 8}}, 5, 10);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], (ckpt::RangeCopy{0, 5, 0, 2}));
  EXPECT_EQ(plan[1], (ckpt::RangeCopy{1, 0, 2, 5}));
  EXPECT_EQ(plan[2], (ckpt::RangeCopy{2, 0, 7, 3}));
}

TEST(PlanReads, OverlappingRangesPickFurthestExtending) {
  // Hybrid-shard replicas overlap; the longer cover wins in one copy.
  const auto plan = ckpt::plan_reads({{0, 4}, {0, 10}}, 0, 10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].source, 1u);
  EXPECT_EQ(plan[0].len, 10);
}

TEST(PlanReads, GapIsRejectedWithLocation) {
  try {
    ckpt::plan_reads({{0, 4}, {6, 4}}, 0, 10);
    FAIL() << "gap not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gap at element 4"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanReads, EmptyRequestNeedsNoCopies) {
  EXPECT_TRUE(ckpt::plan_reads({{0, 10}}, 3, 0).empty());
}

// ----- shard file format ------------------------------------------------------

TEST(ShardFormat, RoundTripPreservesEverything) {
  const std::string path = "/tmp/geofm_test_shard_roundtrip.bin";
  const std::vector<float> w = {1, 2, 3, 4, 5, 6};
  const std::vector<float> b = {7.5f, -8};

  ckpt::format::ShardData shard;
  shard.rank = 1;
  shard.world = 3;
  shard.counters = {{"step", 41}, {"optim.step", 42}};
  shard.rng_streams = {{"mask_stream", 0xdeadbeefcafe1234ULL}};
  shard.records.push_back({"enc.w", {2, 3}, 0, 6, w.data()});
  shard.records.push_back({"enc.b", {4}, 2, 2, b.data()});
  ckpt::format::write_shard_file(path, shard);

  const auto header = ckpt::format::read_shard_header(path);
  EXPECT_EQ(header.rank, 1);
  EXPECT_EQ(header.world, 3);
  EXPECT_EQ(header.counters.at("step"), 41);
  EXPECT_EQ(header.counters.at("optim.step"), 42);
  EXPECT_EQ(header.rng_streams.at("mask_stream"), 0xdeadbeefcafe1234ULL);
  ASSERT_EQ(header.records.size(), 2u);

  EXPECT_EQ(header.records[0].name, "enc.w");
  EXPECT_EQ(header.records[0].shape, (std::vector<i64>{2, 3}));
  EXPECT_EQ(header.records[0].begin, 0);
  EXPECT_EQ(header.records[0].len, 6);
  EXPECT_EQ(ckpt::format::read_shard_record(path, header.records[0]), w);

  EXPECT_EQ(header.records[1].name, "enc.b");
  EXPECT_EQ(header.records[1].begin, 2);
  EXPECT_EQ(ckpt::format::read_shard_record(path, header.records[1]), b);
  fs::remove(path);
}

TEST(ShardFormat, CorruptedPayloadFailsChecksum) {
  const std::string path = "/tmp/geofm_test_shard_corrupt.bin";
  const std::vector<float> w = {1, 2, 3, 4};
  ckpt::format::ShardData shard;
  shard.records.push_back({"w", {4}, 0, 4, w.data()});
  ckpt::format::write_shard_file(path, shard);

  const auto header = ckpt::format::read_shard_header(path);
  ASSERT_EQ(header.records.size(), 1u);
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(header.records[0].data_offset) + 1,
               SEEK_SET);
    const char flip = 0x5a;
    std::fwrite(&flip, 1, 1, f);
    std::fclose(f);
  }
  try {
    ckpt::format::read_shard_record(path, header.records[0]);
    FAIL() << "corruption not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  fs::remove(path);
}

TEST(ShardFormat, TruncatedFileRejected) {
  const std::string path = "/tmp/geofm_test_shard_trunc.bin";
  const std::vector<float> w(64, 1.f);
  ckpt::format::ShardData shard;
  shard.records.push_back({"w", {64}, 0, 64, w.data()});
  ckpt::format::write_shard_file(path, shard);

  // Cut into the payload: the header parses but the record read fails.
  const auto header = ckpt::format::read_shard_header(path);
  fs::resize_file(path, header.records[0].data_offset + 8);
  EXPECT_THROW(ckpt::format::read_shard_record(path, header.records[0]),
               Error);

  // Cut into the header: rejected at open.
  fs::resize_file(path, 12);
  EXPECT_THROW(ckpt::format::read_shard_header(path), Error);
  fs::remove(path);
}

TEST(RngState, SaveRestoreContinuesExactSequence) {
  Rng a(123);
  a.next_u64();
  a.next_u64();
  Rng b(7);
  b.set_state(a.state());
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ----- parity: save / restore / continue == uninterrupted --------------------

TEST(CheckpointParity, SingleRankBitwise) {
  const std::string path = "/tmp/geofm_test_ckpt_single.bin";
  fs::remove(path);
  Tensor batch = make_batch(8, 777);
  const auto cfg = ckpt_mae_cfg();

  // Uninterrupted: 5 steps straight through.
  Rng rng_ref(42);
  models::MAE ref(cfg, rng_ref);
  optim::AdamW ref_opt(ref.parameters(), 1e-3, 0.9, 0.95, 1e-8, 0.01);
  train_steps(ref, ref_opt, batch, 0, 5);

  // Interrupted: 3 steps, save everything, stop.
  Rng rng_a(42);
  models::MAE a(cfg, rng_a);
  optim::AdamW a_opt(a.parameters(), 1e-3, 0.9, 0.95, 1e-8, 0.01);
  train_steps(a, a_opt, batch, 0, 3);
  auto counters = ckpt::optimizer_scalars(a_opt);
  counters["step"] = 2;
  ckpt::save_file(path, ckpt::replicated_state(a, &a_opt, 0, 1, true),
                  counters);

  // Fresh process: different init, restore, continue 2 more steps.
  Rng rng_b(31337);
  models::MAE b(cfg, rng_b);
  optim::AdamW b_opt(b.parameters(), 1e-3, 0.9, 0.95, 1e-8, 0.01);
  ckpt::CheckpointReader reader(path);
  EXPECT_EQ(reader.saved_world(), 1);
  EXPECT_EQ(reader.counter("step", -1), 2);
  reader.restore(ckpt::replicated_state(b, &b_opt, 0, 1, false));
  ckpt::restore_optimizer_scalars(reader, b_opt);

  // Parameters AND optimizer moments restored bitwise...
  expect_exact(flatten_params(b), flatten_params(a));
  expect_exact(flatten_slots(b_opt), flatten_slots(a_opt));
  // ...and the continued trajectory is indistinguishable.
  train_steps(b, b_opt, batch, 3, 2);
  expect_exact(flatten_params(b), flatten_params(ref));
  expect_exact(flatten_slots(b_opt), flatten_slots(ref_opt));
  fs::remove(path);
}

struct CkptStrategyCase {
  ShardingStrategy strategy;
  int hybrid_group;
  bool async_save;
  const char* label;
};

class FsdpCheckpointParity
    : public ::testing::TestWithParam<CkptStrategyCase> {};

INSTANTIATE_TEST_SUITE_P(
    Strategies, FsdpCheckpointParity,
    ::testing::Values(
        CkptStrategyCase{ShardingStrategy::kNoShard, 1, false, "no_shard"},
        CkptStrategyCase{ShardingStrategy::kFullShard, 1, true, "full_shard"},
        CkptStrategyCase{ShardingStrategy::kShardGradOp, 1, false,
                         "shard_grad_op"},
        CkptStrategyCase{ShardingStrategy::kHybridShard, 2, true, "hybrid_2"}),
    [](const auto& info) { return info.param.label; });

TEST_P(FsdpCheckpointParity, SaveRestoreContinueBitwise) {
  const auto& p = GetParam();
  FsdpOptions opts;
  opts.strategy = p.strategy;
  opts.hybrid_group_size = p.hybrid_group;
  const std::string root =
      fresh_root(std::string("geofm_test_ckpt_") + p.label);

  const auto ref = run_fsdp_ckpt(4, opts, 8, 0, 5, "", "", -1, false);
  run_fsdp_ckpt(4, opts, 8, 0, 3, "", root, 2, p.async_save);
  EXPECT_EQ(ckpt::latest_step(root), 2);
  const auto resumed = run_fsdp_ckpt(4, opts, 8, 3, 5, root, "", -1, false);
  expect_exact(resumed, ref);
  fs::remove_all(root);
}

TEST(CheckpointParity, DdpSaveRestoresIntoFsdpAndPlainModule) {
  const std::string root = fresh_root("geofm_test_ckpt_ddp");
  const auto cfg = ckpt_mae_cfg();
  std::vector<float> ddp_params;
  std::map<std::string, std::vector<float>> ddp_tensors;
  std::mutex mu;

  // DDP at 2 ranks with buckets that split units: memory is replicated,
  // and the checkpoint goes through the same shard layout NO_SHARD's does.
  FsdpOptions ddp;
  ddp.strategy = ShardingStrategy::kDdp;
  ddp.ddp_bucket_cap_bytes = 4096;
  run_ranks(2, [&](Communicator& c) {
    Rng rng(42);
    models::MAE mae(cfg, rng);
    Fsdp fsdp(mae, c, ddp);
    optim::AdamW opt(fsdp.optimizer_parameters(), 1e-3, 0.9, 0.95, 1e-8,
                     0.01);
    Tensor global = make_batch(8, 777);
    Tensor mine = batch_slice(global, c.rank() * 4, 4);
    for (int s = 0; s < 3; ++s) {
      Rng mask_rng(static_cast<u64>(9000 + s));
      fsdp.begin_step();
      mae.forward(mine, mask_rng, c.rank() * 4);
      mae.backward();
      fsdp.end_backward();
      opt.step();
    }
    ckpt::Checkpointer saver(/*async=*/true);
    ckpt::SaveRequest req;
    req.dir = root;
    req.step = 2;
    req.rank = c.rank();
    req.world = 2;
    req.state = ckpt::fsdp_state(fsdp, &opt);
    req.counters = {{"step", 2}};
    for (const auto& [name, value] : ckpt::optimizer_scalars(opt)) {
      req.counters[name] = value;
    }
    saver.save(req);
    saver.wait_idle();
    if (c.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      ddp_params = flatten_params(mae.module());
      ddp_tensors = logical_tensors(ckpt::fsdp_state(fsdp, &opt));
    }
    c.barrier();
  });
  ASSERT_EQ(ckpt::latest_step(root), 2);

  // DDP -> FSDP FULL_SHARD at world 4: restore-only, gather, compare.
  FsdpOptions full;
  full.strategy = ShardingStrategy::kFullShard;
  const auto fsdp_got = run_fsdp_ckpt(4, full, 8, 3, 3, root, "", -1, false);
  expect_exact(fsdp_got, ddp_params);

  // DDP -> plain single-process module (and its optimizer moments).
  Rng rng(5);
  models::MAE solo(cfg, rng);
  optim::AdamW solo_opt(solo.parameters(), 1e-3, 0.9, 0.95, 1e-8, 0.01);
  ckpt::CheckpointReader reader(root);
  EXPECT_EQ(reader.saved_world(), 2);
  reader.restore(ckpt::replicated_state(solo, &solo_opt, 0, 1, false));
  ckpt::restore_optimizer_scalars(reader, solo_opt);
  expect_exact(flatten_params(solo), ddp_params);
  const auto solo_tensors =
      logical_tensors(ckpt::replicated_state(solo, &solo_opt, 0, 1, false));
  ASSERT_EQ(solo_tensors.size(), ddp_tensors.size());
  for (const auto& [name, values] : ddp_tensors) {
    SCOPED_TRACE(name);
    ASSERT_EQ(solo_tensors.count(name), 1u);
    expect_exact(solo_tensors.at(name), values);
  }
  fs::remove_all(root);
}

// ----- elasticity: reshard across world sizes --------------------------------

TEST(ElasticReshard, FullShardWorldRoundTripsBitwise) {
  FsdpOptions full;
  full.strategy = ShardingStrategy::kFullShard;

  // Written at world 4 (after 3 training steps), restored at 2 and 1.
  const std::string w4 = fresh_root("geofm_test_reshard_w4");
  const auto ref4 = run_fsdp_ckpt(4, full, 8, 0, 3, "", w4, 2, true);
  expect_exact(run_fsdp_ckpt(2, full, 8, 3, 3, w4, "", -1, false), ref4);
  expect_exact(run_fsdp_ckpt(1, full, 8, 3, 3, w4, "", -1, false), ref4);

  // And the reverse: written at world 1, restored at 4.
  const std::string w1 = fresh_root("geofm_test_reshard_w1");
  const auto ref1 = run_fsdp_ckpt(1, full, 8, 0, 3, "", w1, 2, false);
  expect_exact(run_fsdp_ckpt(4, full, 8, 3, 3, w1, "", -1, false), ref1);
}

// ----- integrity: rejection of damaged checkpoints ---------------------------

// A two-rank directory checkpoint of one 8-element tensor "w", built
// without threads (the save coordinator only needs both arrivals).
std::string build_two_shard_checkpoint(const std::string& name,
                                       const std::vector<float>& values) {
  const std::string root = fresh_root(name);
  GEOFM_CHECK(values.size() == 8);
  Tensor t = Tensor::zeros({static_cast<i64>(values.size())});
  for (size_t i = 0; i < values.size(); ++i) t.data()[i] = values[i];
  for (int rank = 0; rank < 2; ++rank) {
    ckpt::SaveRequest req;
    req.dir = root;
    req.step = 0;
    req.rank = rank;
    req.world = 2;
    ckpt::TensorSlice slice;
    slice.name = "w";
    slice.shape = {4, 2};
    slice.begin = rank * 4;
    slice.data = t.flat_view(rank * 4, 4);
    req.state.slices.push_back(slice);
    ckpt::Checkpointer saver(/*async=*/false);
    saver.save(req);
  }
  return root;
}

ckpt::StateDesc full_tensor_desc(const std::string& name,
                                 std::vector<i64> shape, Tensor& out) {
  ckpt::StateDesc desc;
  ckpt::TensorSlice slice;
  slice.name = name;
  slice.shape = std::move(shape);
  slice.begin = 0;
  slice.data = out;
  desc.slices.push_back(slice);
  return desc;
}

TEST(CheckpointIntegrity, DirectoryRoundTripAssemblesShards) {
  const std::vector<float> values = {0, 1, 2, 3, 4, 5, 6, 7};
  const std::string root =
      build_two_shard_checkpoint("geofm_test_ckpt_dir_ok", values);
  Tensor out = Tensor::zeros({8});
  ckpt::CheckpointReader reader(root);
  reader.restore(full_tensor_desc("w", {4, 2}, out));
  for (i64 i = 0; i < 8; ++i) EXPECT_EQ(out[i], values[i]);
  fs::remove_all(root);
}

TEST(CheckpointIntegrity, CorruptedShardRejected) {
  const std::string root = build_two_shard_checkpoint(
      "geofm_test_ckpt_dir_corrupt", {0, 1, 2, 3, 4, 5, 6, 7});
  const std::string shard1 = ckpt::resolve_checkpoint(root) + "/" +
                             ckpt::format::shard_file_name(1);
  const auto header = ckpt::format::read_shard_header(shard1);
  ASSERT_EQ(header.records.size(), 1u);
  {
    std::FILE* f = std::fopen(shard1.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(header.records[0].data_offset), SEEK_SET);
    const char flip = 0x13;
    std::fwrite(&flip, 1, 1, f);
    std::fclose(f);
  }
  Tensor out = Tensor::zeros({8});
  ckpt::CheckpointReader reader(root);
  try {
    reader.restore(full_tensor_desc("w", {4, 2}, out));
    FAIL() << "corruption not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos)
        << e.what();
  }
  fs::remove_all(root);
}

TEST(CheckpointIntegrity, TruncatedShardRejected) {
  const std::string root = build_two_shard_checkpoint(
      "geofm_test_ckpt_dir_trunc", {0, 1, 2, 3, 4, 5, 6, 7});
  fs::resize_file(ckpt::resolve_checkpoint(root) + "/" +
                      ckpt::format::shard_file_name(0),
                  10);
  EXPECT_THROW(ckpt::CheckpointReader reader(root), Error);
  fs::remove_all(root);
}

TEST(CheckpointIntegrity, MissingAndMismatchedTensorsNamed) {
  const std::string root = build_two_shard_checkpoint(
      "geofm_test_ckpt_dir_meta", {0, 1, 2, 3, 4, 5, 6, 7});
  ckpt::CheckpointReader reader(root);

  Tensor out = Tensor::zeros({8});
  try {
    reader.restore(full_tensor_desc("nope", {4, 2}, out));
    FAIL() << "missing tensor not detected";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nope"), std::string::npos)
        << e.what();
  }
  try {
    // Same element count, different shape — must be rejected by name.
    reader.restore(full_tensor_desc("w", {2, 4}, out));
    FAIL() << "shape mismatch not detected";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("shape mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("w"), std::string::npos) << what;
  }
  fs::remove_all(root);
}

TEST(CheckpointIntegrity, IncompleteStepDirectoryIgnored) {
  const std::string root = fresh_root("geofm_test_ckpt_incomplete");
  EXPECT_EQ(ckpt::latest_step(root), -1);
  EXPECT_THROW(ckpt::resolve_checkpoint(root), Error);
  // A step directory without a manifest (crash before publish) is not a
  // checkpoint.
  fs::create_directories(root + "/" + ckpt::format::step_dir_name(4));
  EXPECT_EQ(ckpt::latest_step(root), -1);
  EXPECT_THROW(ckpt::resolve_checkpoint(root), Error);
  fs::remove_all(root);
}

TEST(Checkpointer, AsyncWriteFailureSurfacesOnWaitIdle) {
  // A regular file where the checkpoint root should be: the background
  // writer cannot create the step directory, and the failure must reach
  // the training thread instead of vanishing.
  const std::string root = "/tmp/geofm_test_ckpt_notdir";
  fs::remove_all(root);
  {
    std::FILE* f = std::fopen(root.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  const std::vector<float> w = {1, 2};
  Tensor t = Tensor::zeros({2});
  t.data()[0] = w[0];
  t.data()[1] = w[1];
  ckpt::SaveRequest req;
  req.dir = root;
  req.step = 0;
  req.rank = 0;
  req.world = 1;
  ckpt::TensorSlice slice;
  slice.name = "w";
  slice.shape = {2};
  slice.begin = 0;
  slice.data = t;
  req.state.slices.push_back(slice);

  ckpt::Checkpointer saver(/*async=*/true);
  saver.save(req);
  EXPECT_THROW(saver.wait_idle(), std::exception);
  fs::remove_all(root);
}

// ----- bounded retention -----------------------------------------------------

ckpt::SaveRequest retention_request(const std::string& root, i64 step,
                                    const ckpt::RetentionPolicy& policy) {
  ckpt::SaveRequest req;
  req.dir = root;
  req.step = step;
  req.rank = 0;
  req.world = 1;
  req.counters = {{"step", step}};
  req.retention = policy;
  ckpt::TensorSlice slice;
  slice.name = "w";
  slice.shape = {2};
  slice.begin = 0;
  slice.data = Tensor::full({2}, static_cast<float>(step));
  req.state.slices.push_back(slice);
  return req;
}

// Published step numbers on disk (sorted), plus a scan for leaked GC temps.
std::vector<i64> published_steps(const std::string& root) {
  std::vector<i64> steps;
  for (const auto& entry : fs::directory_iterator(root)) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find(".gc_"), std::string::npos)
        << "leaked GC temp: " << name;
    if (name.rfind("step_", 0) != 0) continue;
    steps.push_back(std::stoll(name.substr(5)));
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

TEST(Retention, KeepsLastAndEveryNth) {
  const std::string root = fresh_root("geofm_test_retention_basic");
  ckpt::RetentionPolicy policy;
  policy.keep_last = 2;
  policy.keep_multiple_of = 4;
  ckpt::Checkpointer saver(/*async=*/false);
  for (i64 step = 0; step < 10; ++step) {
    saver.save(retention_request(root, step, policy));
  }
  // Survivors: the 2 newest (8, 9) plus every 4th anchor (0, 4, 8).
  EXPECT_EQ(published_steps(root), (std::vector<i64>{0, 4, 8, 9}));
  EXPECT_EQ(ckpt::latest_step(root), 9);
  // The survivors are real checkpoints, not husks.
  ckpt::CheckpointReader reader(root + "/" + ckpt::format::step_dir_name(4));
  EXPECT_EQ(reader.counter("step", -1), 4);
  fs::remove_all(root);
}

TEST(Retention, DisabledPolicyKeepsEverything) {
  const std::string root = fresh_root("geofm_test_retention_off");
  ckpt::Checkpointer saver(/*async=*/false);
  for (i64 step = 0; step < 5; ++step) {
    saver.save(retention_request(root, step, {}));
  }
  EXPECT_EQ(published_steps(root), (std::vector<i64>{0, 1, 2, 3, 4}));
  fs::remove_all(root);
}

TEST(Retention, ApplyRetentionReportsRemovedSteps) {
  const std::string root = fresh_root("geofm_test_retention_apply");
  ckpt::Checkpointer saver(/*async=*/false);
  for (i64 step = 0; step < 8; ++step) {
    saver.save(retention_request(root, step, {}));
  }
  // An unpublished step directory (no manifest) is not a checkpoint:
  // retention must neither count it against keep_last nor touch it.
  fs::create_directories(root + "/" + ckpt::format::step_dir_name(11));
  ckpt::RetentionPolicy policy;
  policy.keep_last = 1;
  policy.keep_multiple_of = 3;
  const auto removed = ckpt::apply_retention(root, policy);
  EXPECT_EQ(removed, (std::vector<i64>{1, 2, 4, 5}));  // keep 0,3,6 + last 7
  EXPECT_EQ(published_steps(root), (std::vector<i64>{0, 3, 6, 7, 11}));
  EXPECT_EQ(ckpt::latest_step(root), 7);
  fs::remove_all(root);
}

TEST(Retention, AppliedByDistributedDriver) {
  const std::string root = fresh_root("geofm_test_retention_driver");
  auto corpus = data::million_aid_pretrain(32, 16);
  train::DistributedPretrainConfig cfg;
  cfg.steps = 6;
  cfg.global_batch = 4;
  cfg.seed = 11;
  cfg.loader_workers = 0;
  cfg.verbose = false;
  cfg.checkpoint_every_n_steps = 1;
  cfg.checkpoint_dir = root;
  cfg.async_checkpoint = false;
  cfg.checkpoint_keep_last = 2;
  run_ranks(1, [&](Communicator& c) {
    Rng rng(42);
    models::MAE mae(ckpt_mae_cfg(), rng);
    FsdpOptions opts;
    Fsdp fsdp(mae, c, opts);
    train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
  });
  EXPECT_EQ(published_steps(root), (std::vector<i64>{4, 5}));
  // ...and what retention left behind is still a valid resume source.
  EXPECT_EQ(ckpt::latest_step(root), 5);
  ckpt::CheckpointReader reader(root);
  EXPECT_EQ(reader.counter("step", -1), 5);
  fs::remove_all(root);
}

// ----- fault tolerance: kill mid-run, resume, match --------------------------

TEST(FaultTolerance, MidRunKillResumesOnUninterruptedTrajectory) {
  const std::string root = fresh_root("geofm_test_fault");
  auto corpus = data::million_aid_pretrain(64, 16);

  train::DistributedPretrainConfig base;
  base.steps = 8;
  base.global_batch = 16;
  base.lr = 1e-3;
  base.seed = 5;
  base.loader_workers = 0;
  base.verbose = false;

  auto run2 = [&](const train::DistributedPretrainConfig& cfg) {
    std::vector<float> losses;
    i64 start = -1;
    std::mutex mu;
    run_ranks(2, [&](Communicator& c) {
      Rng rng(42);
      models::MAE mae(ckpt_mae_cfg(), rng);
      FsdpOptions opts;
      opts.strategy = ShardingStrategy::kFullShard;
      Fsdp fsdp(mae, c, opts);
      auto r = train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
      if (c.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        losses = r.step_losses;
        start = r.start_step;
      }
    });
    return std::make_pair(losses, start);
  };

  // The reference trajectory, never interrupted, never checkpointed.
  const auto [ref_losses, ref_start] = run2(base);
  ASSERT_EQ(ref_start, 0);
  ASSERT_EQ(ref_losses.size(), 8u);

  // Kill rank 1 mid-step-5 (after backward, before the optimizer step),
  // through the comm engine's abort path so the surviving rank's
  // collectives fail instead of hanging. Checkpoints every 3 steps put
  // the last complete one at step 2; rank 0's own step-5 save can never
  // publish without rank 1's shard.
  auto faulted = base;
  faulted.checkpoint_every_n_steps = 3;
  faulted.checkpoint_dir = root;
  faulted.async_checkpoint = true;
  faulted.fault_injector = std::make_shared<comm::FaultInjector>(
      comm::FaultPlan{0, {comm::FaultEvent::kill_at_step(1, 5)}});
  EXPECT_THROW(run2(faulted), Error);
  ckpt::install_io_fault_injector(nullptr);
  EXPECT_EQ(ckpt::latest_step(root), 2);

  // Resume from the wreckage: picks up at step 3 and reproduces the
  // uninterrupted losses step for step.
  auto resume = base;
  resume.checkpoint_every_n_steps = 3;
  resume.checkpoint_dir = root;
  resume.resume_from = root;
  const auto [res_losses, res_start] = run2(resume);
  EXPECT_EQ(res_start, 3);
  ASSERT_EQ(res_losses.size(), 5u);
  for (size_t i = 0; i < res_losses.size(); ++i) {
    EXPECT_NEAR(res_losses[i], ref_losses[3 + i], 1e-6)
        << "diverged at step " << 3 + i;
  }
  // The resumed run's own checkpoints published cleanly over the aborted
  // run's leftover temp directory.
  EXPECT_EQ(ckpt::latest_step(root), 5);
  fs::remove_all(root);
}

}  // namespace
}  // namespace geofm
