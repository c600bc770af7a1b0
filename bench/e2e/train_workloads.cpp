// Training workloads: MAE pretraining driven through the public entry point
// train::pretrain_mae_distributed under comm::run_ranks, the way a user of
// the library launches a run.
//
// A run repeats short fixed-length trials (fresh model, wrapper and loader
// each time) until --seconds is spent, and reports medians over trials, so a
// burst of load from elsewhere on the machine moves one trial, not the
// result. Each trial trains a fixed number of steps from the same seed: the
// final loss is a loss after a fixed sample count, and every trial must
// reproduce the first one's loss trajectory bitwise.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include "bench_e2e.hpp"
#include "ckpt/checkpoint.hpp"
#include "comm/communicator.hpp"
#include "data/dataloader.hpp"
#include "obs/metrics.hpp"
#include "sim/workload.hpp"
#include "train/distributed.hpp"
#include "util/thread_context.hpp"

namespace geofm::bench_e2e {
namespace {

namespace fs = std::filesystem;

struct TrialShape {
  i64 warm = 1;   // steps before the measured window (>= 1)
  i64 steps = 2;  // steps per trial
  // Range of final_loss() at this step count over seeds 0..60, 101..120,
  // 40 random 32-bit seeds and 123456789 (quick: 1..40), widened by its
  // width on each side: loss spikes are heavy-tailed at these short schedules
  // (train-noshard4-ckpt reaches 1.29 at one seed against a median of 0.47,
  // train-fsdp4 0.74 at seed 123456789 against 0.44). A loss outside the
  // band means the numerics changed, not the speed.
  double loss_lo = 0;
  double loss_hi = 0;
};

struct TrainSpec {
  models::MaeConfig model;
  int world = 1;
  parallel::FsdpOptions fsdp;
  i64 global_batch = 64;
  int loader_workers = 1;  // per rank
  i64 checkpoint_every = 0;
  i64 checkpoint_keep_last = 0;
  bool fig1 = false;  // also run the paper's Fig-1 decomposition points
  TrialShape full;
  TrialShape quick;
};

TrainSpec train_spec(const std::string& name) {
  TrainSpec s;
  if (name == "train-w1") {
    // Compute-bound single-rank baseline: no collectives at all.
    s.model = mid_model();
    s.world = 1;
    s.fsdp.strategy = parallel::ShardingStrategy::kNoShard;
    s.loader_workers = 2;
    s.full = {4, 20, 0, 1.46};
    s.quick = {2, 6, 0.88, 1.06};
  } else if (name == "train-fsdp4") {
    // The paper's chosen FSDP configuration on the smallest-message model:
    // comm-bound, exposed gathers are a large share of each step.
    s.model = models::mae_for(models::proxy_3b());
    s.world = 4;
    s.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
    s.fsdp.prefetch = parallel::BackwardPrefetch::kBackwardPre;
    s.fsdp.limit_all_gathers = true;
    s.fig1 = true;
    s.full = {10, 90, 0, 1.14};
    s.quick = {4, 24, 0.30, 0.68};
  } else if (name == "train-noshard4-ckpt") {
    // DDP-equivalent all-reduce path plus the async checkpoint write path.
    s.model = mid_model();
    s.world = 4;
    s.fsdp.strategy = parallel::ShardingStrategy::kNoShard;
    s.checkpoint_every = 10;
    s.checkpoint_keep_last = 2;
    // The measured window (steps 5..34) holds three checkpoint periods.
    s.full = {5, 35, 0, 2.18};
    s.quick = {2, 10, 0.83, 1.09};
  } else {
    throw Error("unknown training workload " + name);
  }
  return s;
}

// The corpus is the benchmark's fixed dataset; the seed drives model init,
// shuffle and masks. (Scenes drawn per seed change how hard the corpus is,
// which moves the loss after a fixed sample count by more than any
// numerics change would.) Large enough that no trial crosses an epoch
// boundary: an epoch restart re-primes the loader mid-measurement.
constexpr i64 kCorpusImages = 64 * 200;
constexpr u64 kCorpusSeed = 0xbe9c0;

// Losses are per batch, so the final loss is the mean of the last few.
constexpr size_t kFinalLossSteps = 5;

double final_loss(const std::vector<float>& losses) {
  double sum = 0;
  for (size_t i = losses.size() - kFinalLossSteps; i < losses.size(); ++i) {
    sum += losses[i];
  }
  return sum / kFinalLossSteps;
}

/// Step-completion clock for untraced runs. pretrain_mae_distributed
/// observes the `train.step_seconds` histogram once per rank per step,
/// after the step's loss all-reduce; this thread polls its count and stamps
/// the time each step completed on every rank. Polling costs one relaxed
/// load per 200 us.
class StepClock {
 public:
  StepClock(int world, i64 steps)
      : hist_(obs::MetricsRegistry::instance().histogram("train.step_seconds")),
        base_(hist_.count()),
        world_(static_cast<u64>(world)),
        steps_(static_cast<size_t>(steps)),
        thread_([this] { loop(); }) {}
  ~StepClock() { stop(); }

  StepClock(const StepClock&) = delete;
  StepClock& operator=(const StepClock&) = delete;

  /// Stops polling; returns the completion time of each step seen.
  std::vector<double> stop() {
    done_.store(true);
    if (thread_.joinable()) thread_.join();
    return stamps_;
  }

 private:
  void loop() {
    while (stamps_.size() < steps_) {
      // Read the stop flag before the count: once stop() has been called
      // every step has been observed, so this last poll sees all of them.
      const bool last = done_.load();
      const size_t completed =
          static_cast<size_t>((hist_.count() - base_) / world_);
      const double now = monotonic_seconds();
      while (stamps_.size() < completed) stamps_.push_back(now);
      if (last) return;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  obs::Histogram& hist_;
  const u64 base_;
  const u64 world_;
  const size_t steps_;
  std::vector<double> stamps_;  // owned by the polling thread until stop()
  std::atomic<bool> done_{false};
  std::thread thread_;
};

struct Trial {
  double setup_s = 0;           // trial start to the first completed step
  std::vector<double> stamps;   // completion time of each step
  std::vector<float> losses;    // globally averaged loss per step
  train::DistributedPretrainResult rank0;
  std::vector<parallel::FsdpEvent> schedule;  // rank 0, last step
};

Trial run_trial(const TrainSpec& spec, const data::SceneDataset& corpus,
                i64 steps, u64 seed, const std::string& ckpt_dir) {
  train::DistributedPretrainConfig cfg;
  cfg.steps = steps;
  cfg.global_batch = spec.global_batch;
  cfg.seed = derive_seed(seed, "train");
  cfg.loader_workers = spec.loader_workers;
  if (spec.checkpoint_every > 0) {
    cfg.checkpoint_every_n_steps = spec.checkpoint_every;
    cfg.checkpoint_dir = ckpt_dir;
    cfg.checkpoint_keep_last = spec.checkpoint_keep_last;
    cfg.async_checkpoint = true;
  }
  const u64 model_seed = derive_seed(seed, "model");

  Trial trial;
  StepClock clock(spec.world, steps);
  const double t0 = monotonic_seconds();
  comm::run_ranks(spec.world, [&](comm::Communicator& c) {
    Rng rng(model_seed);
    models::MAE mae(spec.model, rng);
    parallel::Fsdp fsdp(mae, c, spec.fsdp);
    auto result = train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
    if (c.rank() == 0) {
      trial.rank0 = std::move(result);
      trial.schedule = fsdp.last_schedule();
    }
  });
  trial.stamps = clock.stop();
  trial.losses = trial.rank0.step_losses;
  if (!trial.stamps.empty()) trial.setup_s = trial.stamps.front() - t0;
  return trial;
}

double images_per_s(const Trial& t, i64 warm, i64 global_batch) {
  const size_t last = t.stamps.size() - 1;
  const double window =
      t.stamps[last] - t.stamps[static_cast<size_t>(warm - 1)];
  return static_cast<double>((static_cast<i64>(last) + 1 - warm) *
                             global_batch) /
         window;
}

void append_periods(const Trial& t, i64 warm, std::vector<double>* out) {
  for (size_t i = static_cast<size_t>(warm); i < t.stamps.size(); ++i) {
    out->push_back(t.stamps[i] - t.stamps[i - 1]);
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

void check_checkpoints(Result& res, const TrainSpec& spec, i64 steps,
                       const std::string& dir) {
  const i64 saves = steps / spec.checkpoint_every;
  const i64 last = saves * spec.checkpoint_every - 1;
  i64 published = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("step_", 0) == 0) {
      ++published;
    }
  }
  res.check(ckpt::latest_step(dir) == last,
            "latest published checkpoint is step " +
                std::to_string(ckpt::latest_step(dir)) + ", expected " +
                std::to_string(last));
  res.check(published == std::min(saves, spec.checkpoint_keep_last),
            "retention kept " + std::to_string(published) + " checkpoints");
  const ckpt::CheckpointReader reader(dir);
  res.check(reader.counter("step", -1) == last,
            "restored checkpoint carries the wrong step counter");
  fs::remove_all(dir);
}

void check_trial(Result& res, const TrainSpec& spec, i64 steps,
                 const Trial& trial, const Trial* reference,
                 const std::string& ckpt_dir) {
  res.check(static_cast<i64>(trial.stamps.size()) == steps &&
                static_cast<i64>(trial.losses.size()) == steps,
            "trial completed " + std::to_string(trial.losses.size()) + " of " +
                std::to_string(steps) + " steps");
  if (reference != nullptr) {
    res.check(same_bits(trial.losses, reference->losses),
              "loss trajectory differs from the first trial at the same seed");
  }
  if (spec.checkpoint_every > 0) check_checkpoints(res, spec, steps, ckpt_dir);
}

void check_loss(Result& res, const TrialShape& shape, double loss) {
  res.check(std::isfinite(loss) && loss >= shape.loss_lo &&
                loss <= shape.loss_hi,
            "final loss " + std::to_string(loss) + " outside the band [" +
                std::to_string(shape.loss_lo) + ", " +
                std::to_string(shape.loss_hi) + "]");
}

void e2e_run(const TrainSpec& spec, const TrialShape& shape,
             const Options& opts, const data::SceneDataset& corpus,
             Result& res) {
  std::vector<Trial> trials;
  const size_t min_trials = opts.quick ? 2 : 3;
  const double start = monotonic_seconds();
  double last_trial_s = 0;
  while (trials.size() < min_trials ||
         (!opts.quick &&
          monotonic_seconds() - start + last_trial_s <= opts.seconds)) {
    const double t0 = monotonic_seconds();
    const std::string dir =
        opts.work_dir + "/ckpt-" + std::to_string(trials.size());
    trials.push_back(run_trial(spec, corpus, shape.steps, opts.seed, dir));
    last_trial_s = monotonic_seconds() - t0;
    // Memory of one training run in a fresh process, as a user launches
    // it. Later trials reuse the first one's allocator arenas in whatever
    // order their threads start, which only adds allocator noise.
    if (trials.size() == 1) res.set("peak_rss_mb", peak_rss_mb());
    res.attempted += shape.steps;
    check_trial(res, spec, shape.steps, trials.back(),
                trials.size() > 1 ? &trials.front() : nullptr, dir);
    if (!res.correct()) return;
  }
  check_loss(res, shape, final_loss(trials.front().losses));

  std::vector<double> setup, rates, periods;
  for (const Trial& t : trials) {
    setup.push_back(t.setup_s);
    rates.push_back(images_per_s(t, shape.warm, spec.global_batch));
    append_periods(t, shape.warm, &periods);
  }
  std::fprintf(stderr, "%s: %zu trials of %lld steps, final loss %.6f\n",
               opts.workload.c_str(), trials.size(),
               static_cast<long long>(shape.steps),
               final_loss(trials.front().losses));
  res.set("setup_s", median(setup));
  res.set("throughput_per_s", median(rates));
  res.set("latency_p50_ms", 1e3 * percentile(periods, 50));
  res.set("latency_tail_ms", 1e3 * percentile(periods, 90));
}

bool named(const char* s, const char* want) {
  return s != nullptr && std::strcmp(s, want) == 0;
}

const char* const kKernelFamilies[] = {
    "gemm",          "softmax", "softmax_bwd", "layernorm",
    "layernorm_bwd", "adamw",   "patchify",    "unpatchify"};

/// Folds the traced trial's spans over its measured window into the
/// per-layer rows, each as time per rank per step. Returns the share of
/// step time spent blocked on the loader.
double fold_train_trace(const TrainSpec& spec, const TrialShape& shape,
                        const Trial& traced,
                        const std::vector<obs::TraceEvent>& events,
                        Result& res) {
  // Window: from the first measured step's fetch to the end of the last
  // step, on every rank.
  u64 t0 = ~u64{0};
  u64 t1 = 0;
  for (const auto& e : events) {
    if (!named(e.arg_name, "step")) continue;
    if (named(e.name, "step.fetch") && e.arg == shape.warm) {
      t0 = std::min(t0, e.ts_ns);
    }
    if (named(e.name, "step") && e.arg == shape.steps - 1) {
      t1 = std::max(t1, e.ts_ns + e.dur_ns);
    }
  }
  res.check(t0 < t1, "traced run recorded no measured step spans");
  if (!res.correct()) return 0;

  const i64 enc_depth = spec.model.encoder.depth;
  std::map<std::string, double> sec;
  std::map<std::string, double> flops;
  std::map<std::string, i64> count;
  std::map<std::pair<int, i64>, double> period;  // (rank, step) -> seconds
  double exposed = 0, enc_fwd = 0, dec_fwd = 0, enc_bwd = 0, dec_bwd = 0;
  for (const auto& e : events) {
    if (!in_window(e, t0, t1)) continue;
    const double s = static_cast<double>(e.dur_ns) * 1e-9;
    const std::string name = e.name;
    sec[name] += s;
    count[name] += 1;
    if (named(e.arg_name, "flops")) flops[name] += static_cast<double>(e.arg);
    if (named(e.cat, "comm.exposed")) exposed += s;
    if (name == "stage.forward") (e.arg < enc_depth ? enc_fwd : dec_fwd) += s;
    if (name == "stage.backward") (e.arg < enc_depth ? enc_bwd : dec_bwd) += s;
    if ((name == "step" || name == "step.fetch") && named(e.arg_name, "step")) {
      period[{e.rank, e.arg}] += s;
    }
  }

  const double rank_steps =
      static_cast<double>(spec.world * (shape.steps - shape.warm));
  const auto per_step_ms = [&](double seconds) {
    return 1e3 * seconds / rank_steps;
  };
  const auto gflops = [&](const std::string& span) {
    return sec[span] > 0 ? flops[span] / sec[span] * 1e-9 : 0.0;
  };

  std::vector<double> periods;
  for (const auto& [key, s] : period) periods.push_back(s);
  res.set("train.step_ms.p50", 1e3 * percentile(periods, 50));
  res.set("train.step_ms.p90", 1e3 * percentile(periods, 90));
  const double attributed = sec["step.forward"] + sec["step.backward"] +
                            sec["step.end_backward"] + sec["step.optimizer"] +
                            sec["step.loss_allreduce"] +
                            sec["fsdp.begin_step"] + sec["ckpt.snapshot"] +
                            sec["ckpt.stall"];
  res.set("train.unattributed_frac", 1.0 - attributed / sec["step"]);

  res.set("data.next_ms", per_step_ms(sec["step.fetch"]));
  res.set("models.forward_ms", per_step_ms(sec["step.forward"]));
  res.set("models.backward_ms", per_step_ms(sec["step.backward"]));
  res.set("models.stage_fwd_ms.enc", per_step_ms(enc_fwd));
  res.set("models.stage_fwd_ms.dec", per_step_ms(dec_fwd));
  res.set("models.stage_bwd_ms.enc", per_step_ms(enc_bwd));
  res.set("models.stage_bwd_ms.dec", per_step_ms(dec_bwd));

  // Achieved encoder-block rate against the simulator's FLOP model.
  const auto& enc = spec.model.encoder;
  const i64 local_batch = spec.global_batch / spec.world;
  const i64 visible =
      std::max<i64>(1, std::llround(static_cast<double>(enc.n_patches()) *
                                    (1.0 - spec.model.mask_ratio))) +
      1;
  const double enc_block_flops =
      sim::block_forward_flops(visible, enc.width, enc.mlp_dim, enc.heads) *
      static_cast<double>(local_batch * enc.depth) * rank_steps;
  res.set("nn.enc_block.fwd_gflops",
          enc_fwd > 0 ? enc_block_flops / enc_fwd * 1e-9 : 0.0);

  for (const char* family : kKernelFamilies) {
    const std::string span = std::string("kernel.") + family;
    res.set(std::string("tensor.") + family + ".ms_per_step",
            per_step_ms(sec[span]));
  }
  for (const char* family : {"gemm", "softmax", "layernorm", "adamw"}) {
    res.set(std::string("tensor.") + family + ".gflops",
            gflops(std::string("kernel.") + family));
  }
  res.set("optim.step_ms", per_step_ms(sec["step.optimizer"]));

  const auto& r0 = traced.rank0;
  const double all_steps = static_cast<double>(shape.steps);
  res.set("parallel.begin_step_ms", per_step_ms(sec["fsdp.begin_step"]));
  res.set("parallel.end_backward_ms", per_step_ms(sec["step.end_backward"]));
  res.set("parallel.exposed_comm_ms", per_step_ms(exposed));
  res.set("parallel.exposed_comm_frac", exposed / sec["step"]);
  res.set("parallel.comm_busy_ms", 1e3 * r0.comm_busy_seconds / all_steps);
  res.set("parallel.overlap_frac",
          r0.collectives_waited > 0
              ? static_cast<double>(r0.collectives_overlapped) /
                    static_cast<double>(r0.collectives_waited)
              : 0.0);
  res.set("parallel.gather_wait_ms", per_step_ms(sec["fsdp.gather.wait"]));
  res.set("parallel.limiter_stall_ms", per_step_ms(sec["fsdp.limiter.stall"]));
  res.set("parallel.peak_inflight_gathers", r0.peak_inflight_gathers);
  double collectives = 0, bytes = 0;
  for (const parallel::FsdpEvent& ev : traced.schedule) {
    if (ev.type == parallel::FsdpEvent::Type::kReshard) continue;
    collectives += 1;
    bytes += static_cast<double>(ev.elements) * sizeof(float);
  }
  res.set("parallel.collectives_per_step", collectives);
  res.set("parallel.bytes_per_step", bytes);
  res.set("comm.loss_allreduce_ms", per_step_ms(sec["step.loss_allreduce"]));

  const auto mean_ms = [&](const std::string& span) {
    return count[span] > 0 ? 1e3 * sec[span] / static_cast<double>(count[span])
                           : 0.0;
  };
  res.set("ckpt.snapshot_ms", mean_ms("ckpt.snapshot"));
  res.set("ckpt.write_ms", mean_ms("ckpt.write"));

  // The simulator's FLOP model against the runtime's GEMM FLOP counter.
  const sim::StepWorkload work =
      sim::mae_step_workload(spec.model, local_batch);
  double sim_flops = work.root.fwd_flops + work.root.bwd_flops;
  for (const sim::StageWork& st : work.stages) {
    sim_flops += st.fwd_flops + st.bwd_flops;
  }
  res.set("sim.flops_ratio", flops["kernel.gemm"] / rank_steps / sim_flops);
  return sec["step.fetch"] / (sec["step.fetch"] + sec["step"]);
}

void trace_run(const TrainSpec& spec, const TrialShape& shape,
               const Options& opts, const data::SceneDataset& corpus,
               Result& res) {
  const std::string dir_a = opts.work_dir + "/ckpt-untraced";
  const std::string dir_b = opts.work_dir + "/ckpt-traced";
  const Trial untraced =
      run_trial(spec, corpus, shape.steps, opts.seed, dir_a);
  res.attempted += shape.steps;
  check_trial(res, spec, shape.steps, untraced, nullptr, dir_a);
  if (!res.correct()) return;

  Trial traced;
  std::vector<obs::TraceEvent> events;
  u64 dropped = 0;
  {
    TraceOn on;
    traced = run_trial(spec, corpus, shape.steps, opts.seed, dir_b);
    auto& rec = obs::TraceRecorder::instance();
    events = rec.snapshot();
    dropped = rec.dropped_events();
  }
  res.attempted += shape.steps;
  check_trial(res, spec, shape.steps, traced, &untraced, dir_b);
  res.check(dropped == 0,
            std::to_string(dropped) + " trace events dropped");
  if (!res.correct()) return;
  check_loss(res, shape, final_loss(untraced.losses));
  res.set("train.loss_final", final_loss(untraced.losses));
  res.set("obs.dropped_events", static_cast<double>(dropped));

  const double fetch_share =
      fold_train_trace(spec, shape, traced, events, res);
  if (!res.correct()) return;
  std::vector<double> p_untraced, p_traced;
  append_periods(untraced, shape.warm, &p_untraced);
  append_periods(traced, shape.warm, &p_traced);
  res.set("obs.trace_overhead_frac",
          percentile(p_traced, 50) / percentile(p_untraced, 50) - 1.0);

  // The loader alone, as one rank runs it (the paper's Fig-1 IO point).
  const i64 local_batch = spec.global_batch / spec.world;
  data::DataLoader::Options lopts;
  lopts.batch_size = spec.global_batch;
  lopts.n_workers = spec.loader_workers;
  lopts.seed = derive_seed(opts.seed, "train");
  lopts.slice_count = local_batch;
  res.set("fig1.io_ips", loader_images_per_s(corpus, lopts, 40));

  if (spec.fig1) {
    // Per-rank points: real; synthetic data (loader wait removed); no comm
    // (the same per-rank work on one rank, so no collective runs).
    const double real =
        images_per_s(untraced, shape.warm, spec.global_batch) / spec.world;
    res.set("fig1.real_ips", real);
    res.set("fig1.syn_ips", real / (1.0 - fetch_share));
    TrainSpec nocomm = spec;
    nocomm.world = 1;
    nocomm.global_batch = local_batch;
    const Trial solo = run_trial(nocomm, corpus, shape.steps, opts.seed,
                                 opts.work_dir + "/ckpt-nocomm");
    res.attempted += shape.steps;
    check_trial(res, nocomm, shape.steps, solo, nullptr, "");
    if (!res.correct()) return;
    res.set("fig1.nocomm_ips", images_per_s(solo, shape.warm, local_batch));
  }

  set_isolated_metrics(res, spec.model, derive_seed(opts.seed, "model"),
                       opts.work_dir + "/publish");
}

}  // namespace

models::MaeConfig mid_model() {
  models::ViTConfig enc{.name = "mid", .width = 64, .depth = 6,
                        .mlp_dim = 256, .heads = 4, .img_size = 32,
                        .patch_size = 4, .in_channels = 3};
  return models::mae_for(enc);
}

bool is_train_workload(const std::string& name) {
  return name == "train-w1" || name == "train-fsdp4" ||
         name == "train-noshard4-ckpt";
}

Result run_train(const Options& opts) {
  Result res;
  try {
    const TrainSpec spec = train_spec(opts.workload);
    const TrialShape& shape = opts.quick ? spec.quick : spec.full;
    const data::SceneDataset corpus("bench-corpus", 51, kCorpusImages, 0, 32,
                                    kCorpusSeed);
    if (opts.trace) {
      trace_run(spec, shape, opts, corpus, res);
    } else {
      e2e_run(spec, shape, opts, corpus, res);
    }
  } catch (const std::exception& e) {
    res.failed += 1;
    res.check(false, e.what());
  }
  return res;
}

}  // namespace geofm::bench_e2e
