// Trace-span budget gate (CI): runs a representative distributed
// pretraining workload with tracing enabled, aggregates time per span
// name across every rank, and fails (exit 1) if any budgeted span's share
// of total step time exceeds its budget in scripts/span_budgets.txt, or
// if an exact work count is off: the loader's per-rank render count (which
// replaced the `step.fetch` share budget) and the telemetry sampler's
// visited events and ticks (which replaced the `telemetry.sample` one).
//
// Budgets are *fractions of summed `step` span time*, not absolute
// seconds, so the gate is stable across machine speeds; they are set with
// generous headroom above healthy-run observations and exist to catch
// structural regressions — a collective that stopped overlapping, an
// unshard that re-materializes eagerly, a loader that renders the full
// global batch again, a checkpoint snapshot that grew a synchronous
// write — not to police noise.
//
// Usage:  bench_span_budget_gate [budgets-file]
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "geofm.hpp"

using namespace geofm;

namespace {

// "span_name  max_fraction" per line; '#' starts a comment.
std::map<std::string, double> load_budgets(const std::string& path) {
  std::map<std::string, double> budgets;
  std::ifstream in(path);
  if (!in.good()) return budgets;
  std::string line;
  while (std::getline(in, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string name;
    double fraction = 0;
    if (ls >> name >> fraction) budgets[name] = fraction;
  }
  return budgets;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string budget_path =
      argc > 1 ? argv[1] : "scripts/span_budgets.txt";
  const auto budgets = load_budgets(budget_path);
  if (budgets.empty()) {
    std::fprintf(stderr, "span budget gate: no budgets loaded from %s\n",
                 budget_path.c_str());
    return 2;
  }

  auto& recorder = obs::TraceRecorder::instance();
  recorder.enable();
  recorder.clear();

  // The workload: the distributed example's shape at CI scale — 4 ranks,
  // FULL_SHARD with backward prefetch, worker-side batch slicing, async
  // checkpointing. Every budgeted span is on this path.
  auto corpus = data::million_aid_pretrain(256, 32);
  const std::string ckpt_root = "/tmp/geofm_span_budget_gate_ckpt";
  std::filesystem::remove_all(ckpt_root);

  // The 10 Hz telemetry sampler runs across both training phases. Its
  // cost is checked by counted work, not as a share of step time: a tick
  // must visit only the events published since the previous one.
  const std::string telemetry_dir = "/tmp/geofm_span_budget_gate_telemetry";
  std::filesystem::remove_all(telemetry_dir);
  auto& ticks = obs::MetricsRegistry::instance().counter("telemetry.ticks");
  auto& visited =
      obs::MetricsRegistry::instance().counter("telemetry.events_visited");
  const double ticks_before = ticks.value();
  const double visited_before = visited.value();
  obs::telemetry::TelemetryOptions topts;
  topts.dir = telemetry_dir;
  topts.interval_seconds = 0.1;
  const double telemetry_t0 = monotonic_seconds();
  obs::telemetry::start(topts);

  train::DistributedPretrainConfig cfg;
  cfg.steps = 10;
  cfg.global_batch = 64;
  cfg.lr = 3e-3;
  cfg.seed = 9;
  cfg.loader_workers = 2;
  cfg.verbose = false;
  cfg.checkpoint_every_n_steps = 4;
  cfg.checkpoint_dir = ckpt_root;
  cfg.async_checkpoint = true;

  // Phase 1's render counts: each rank renders only its slice of every
  // global batch, so samples == batches x local batch exactly. A loader
  // that renders the full global batch on every rank reads 4x.
  auto& batches_rendered =
      obs::MetricsRegistry::instance().counter("loader.batches_rendered");
  auto& samples_rendered =
      obs::MetricsRegistry::instance().counter("loader.samples_rendered");
  const double batches_before = batches_rendered.value();
  const double samples_before = samples_rendered.value();
  constexpr int kRanks = 4;
  comm::run_ranks(kRanks, [&](comm::Communicator& c) {
    Rng rng(1);
    models::MAE mae(models::mae_for(models::proxy_huge()), rng);
    parallel::FsdpOptions opts;
    opts.strategy = parallel::ShardingStrategy::kFullShard;
    opts.prefetch = parallel::BackwardPrefetch::kBackwardPre;
    parallel::Fsdp fsdp(mae, c, opts);
    train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
  });
  const double batches = batches_rendered.value() - batches_before;
  const double samples = samples_rendered.value() - samples_before;
  const double local_batch = static_cast<double>(cfg.global_batch / kRanks);

  // Phase 2: the same shape under a mid-run rank kill, driven by the
  // elastic supervisor, so the recovery path (recover.detect /
  // recover.reform / recover.reshard) is on the gate — an absent
  // recover.* span means in-run recovery silently stopped working. The
  // killed rank re-joins at the next checkpoint boundary
  // (recover.readmit), and every published checkpoint is mirrored by the
  // retrying uploader (upload.exposed is the publish-side hook cost).
  const std::string elastic_root = ckpt_root + "_elastic";
  const std::string mirror_root = elastic_root + "_mirror";
  std::filesystem::remove_all(elastic_root);
  std::filesystem::remove_all(mirror_root);
  {
    train::ElasticConfig ecfg;
    ecfg.model = models::mae_for(models::proxy_huge());
    ecfg.model_seed = 1;
    ecfg.world = 4;
    ecfg.fsdp.strategy = parallel::ShardingStrategy::kFullShard;
    ecfg.fsdp.prefetch = parallel::BackwardPrefetch::kBackwardPre;
    ecfg.train = cfg;
    ecfg.train.steps = 8;
    ecfg.train.global_batch = 48;  // divides the shrunken world of 3
    ecfg.train.checkpoint_every_n_steps = 3;
    ecfg.train.checkpoint_dir = elastic_root;
    ecfg.train.async_checkpoint = false;
    ecfg.train.upload.destination = mirror_root;
    ecfg.readmission.readmit_quarantined = true;
    ecfg.faults.events.push_back(comm::FaultEvent::kill_at_step(2, 5));
    train::run_elastic(ecfg, corpus);
  }
  std::filesystem::remove_all(elastic_root);
  std::filesystem::remove_all(mirror_root);

  // The training phases last only ~0.3 s, about three ticks, too few to
  // tell a sampler at full rate from one at half. Keep the sampler running
  // idle until its window spans kTickWindowSeconds, so the tick count
  // below is a rate over ~25 intervals.
  constexpr double kTickWindowSeconds = 2.5;
  while (monotonic_seconds() - telemetry_t0 < kTickWindowSeconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  // Stop the sampler before the serving phase; its final tick lands here,
  // and the series itself is discarded. Every training thread has joined,
  // so the only event recorded after the final tick's drain is that tick's
  // own span: every other event since clear() must have been visited
  // exactly once. A tick that re-scans the trace visits events again; one
  // that skips a track misses them.
  obs::telemetry::stop();
  const double telemetry_seconds = monotonic_seconds() - telemetry_t0;
  const double telemetry_ticks = ticks.value() - ticks_before;
  const double events_visited = visited.value() - visited_before;
  const double events_recorded =
      static_cast<double>(recorder.snapshot().size()) - 1;
  std::filesystem::remove_all(telemetry_dir);

  // Phase 3: the serving tier over the phase-1 checkpoints — start a
  // ModelServer on the latest published step, drive a burst of requests
  // (some repeated keys so the embedding cache hits), publish a newer
  // checkpoint and hot-swap to it, then drive a second burst. Puts
  // serve.encode (batched forwards) and serve.reload (initial load + one
  // swap) on the gate: a per-request unbatched forward, a cache that
  // stops hitting, or a reload storm all show up as budget violations,
  // and lost serve instrumentation trips the absent-span rule.
  {
    const auto model_cfg = models::mae_for(models::proxy_huge());
    serve::ServerConfig scfg;
    scfg.checkpoint_root = ckpt_root;
    scfg.model = model_cfg;
    scfg.max_batch = 8;
    scfg.max_delay_us = 200;
    scfg.cache_capacity = 64;
    scfg.poll_interval_seconds = 0;  // swaps driven explicitly below
    serve::ModelServer server(scfg);

    const auto& enc = model_cfg.encoder;
    const i64 per_image = enc.in_channels * enc.img_size * enc.img_size;
    Rng img_rng(77);
    auto drive_burst = [&](const char* tag) {
      std::vector<std::future<serve::EmbedResult>> futs;
      for (int i = 0; i < 24; ++i) {
        serve::EmbedRequest req;
        // 12 distinct scenes, each requested twice: the second round of
        // each key is a cache hit and skips the encoder.
        req.key = std::string(tag) + "/scene_" + std::to_string(i % 12);
        Rng scene_rng(img_rng.split(static_cast<u64>(i % 12)));
        req.image = Tensor({enc.in_channels, enc.img_size, enc.img_size});
        float* px = req.image.flat_view(0, per_image).data();
        for (i64 j = 0; j < per_image; ++j) {
          px[j] = static_cast<float>(scene_rng.uniform(-1.0, 1.0));
        }
        futs.push_back(server.submit(std::move(req)));
      }
      for (auto& f : futs) f.get();
    };
    drive_burst("a");

    // Publish a newer step (a fresh world-1 save above phase 1's latest)
    // and hot-swap to it mid-service.
    const i64 next_step = ckpt::latest_step(ckpt_root) + 1;
    {
      Rng rng(2);
      models::MAE fresh(model_cfg, rng);
      ckpt::Checkpointer writer(/*async=*/false);
      ckpt::SaveRequest sreq;
      sreq.dir = ckpt_root;
      sreq.step = next_step;
      sreq.state = ckpt::replicated_state(fresh, nullptr, 0, 1,
                                          /*for_save=*/true);
      writer.save(sreq);
    }
    if (!server.reload_now() || server.model_step() != next_step) {
      std::fprintf(stderr, "span budget gate: serving hot-swap failed\n");
      return 2;
    }
    drive_burst("b");
    server.stop();
  }

  std::map<std::string, double> seconds_by_span;
  for (const auto& e : recorder.snapshot()) {
    if (e.phase != obs::TraceEvent::Phase::kComplete) continue;
    seconds_by_span[e.name] += static_cast<double>(e.dur_ns) * 1e-9;
  }
  recorder.disable();
  std::filesystem::remove_all(ckpt_root);

  const auto step_it = seconds_by_span.find("step");
  if (step_it == seconds_by_span.end() || step_it->second <= 0) {
    std::fprintf(stderr, "span budget gate: no `step` spans recorded\n");
    return 2;
  }
  const double step_total = step_it->second;
  if (recorder.dropped_events() > 0) {
    std::fprintf(stderr,
                 "span budget gate: warning: %llu trace events dropped "
                 "(shares are lower bounds)\n",
                 static_cast<unsigned long long>(recorder.dropped_events()));
  }

  std::printf("span budget gate: %.2f s of step time across 4 ranks\n",
              step_total);
  int violations = 0;
  for (const auto& [name, budget] : budgets) {
    const auto it = seconds_by_span.find(name);
    if (it == seconds_by_span.end()) {
      // A budgeted span that never fired means the instrumentation (or
      // the feature) silently disappeared — that IS the regression.
      std::printf("  FAIL  %-22s absent from trace (budget %.3f)\n",
                  name.c_str(), budget);
      ++violations;
      continue;
    }
    const double share = it->second / step_total;
    const bool ok = share <= budget;
    std::printf("  %s  %-22s %6.3f of step time (budget %.3f)\n",
                ok ? "ok  " : "FAIL", name.c_str(), share, budget);
    if (!ok) ++violations;
  }
  const bool renders_ok = batches > 0 && samples == batches * local_batch;
  std::printf("  %s  %-22s %.0f = %.0f batches x %.0f local (exact)\n",
              renders_ok ? "ok  " : "FAIL", "loader.samples_rendered",
              samples, batches, local_batch);
  if (!renders_ok) ++violations;
  const bool visits_ok = events_visited == events_recorded;
  std::printf("  %s  %-22s %.0f visited = %.0f recorded (exact)\n",
              visits_ok ? "ok  " : "FAIL", "telemetry.events", events_visited,
              events_recorded);
  if (!visits_ok) ++violations;
  // The loop waits one interval between ticks and stop() adds a final one.
  // A tick can run late under load (preempted for tens of ms) but never
  // early, so the count must reach 80% of the window's intervals and
  // exceed them by at most 2; a sampler at half its rate reads ~55%.
  const double ticks_expected = telemetry_seconds / topts.interval_seconds;
  const bool ticks_ok = telemetry_ticks >= 0.8 * ticks_expected &&
                        telemetry_ticks <= ticks_expected + 2;
  std::printf("  %s  %-22s %.0f ticks in %.2f s at %.0f Hz (expect %.1f, "
              "80%% .. +2)\n",
              ticks_ok ? "ok  " : "FAIL", "telemetry.ticks", telemetry_ticks,
              telemetry_seconds, 1 / topts.interval_seconds, ticks_expected);
  if (!ticks_ok) ++violations;
  if (violations > 0) {
    std::fprintf(stderr, "span budget gate: %d check(s) failed\n",
                 violations);
    return 1;
  }
  std::printf("span budget gate: all budgets and counts met\n");
  return 0;
}
