// Observability overhead micro-bench: what does watching a run cost?
//
// Three configurations of the same distributed pretraining workload:
//   off        tracing disabled, no sampler (the baseline)
//   trace      tracing enabled (every span the run emits is recorded)
//   telemetry  tracing + the 10 Hz background sampler writing JSONL
//
// plus the hot-path primitives in isolation: a disabled TraceScope (one
// relaxed load + branch), an enabled TraceScope (two clock reads + a
// ring-buffer store), and a full flight-recorder capture (trace + metrics
// snapshot — the abort-path cost, paid once per failure).
//
// Prints a table and writes <cache>/BENCH_obs.json — the regression
// anchor for the observability stack; the span budget gate checks the
// sampler's counted work (visited events, ticks) on every CI run.
#include <algorithm>
#include <filesystem>

#include "bench_common.hpp"
#include "geofm.hpp"

using namespace geofm;

namespace {

double run_workload(int steps, const std::string& telemetry_dir) {
  auto corpus = data::million_aid_pretrain(128, 16);
  train::DistributedPretrainConfig cfg;
  cfg.steps = steps;
  cfg.global_batch = 16;
  cfg.lr = 1e-3;
  cfg.seed = 17;
  cfg.loader_workers = 0;
  cfg.verbose = false;

  if (!telemetry_dir.empty()) {
    obs::telemetry::TelemetryOptions topts;
    topts.dir = telemetry_dir;
    topts.interval_seconds = 0.1;  // the production 10 Hz shape
    obs::telemetry::start(topts);
  }
  const double t0 = monotonic_seconds();
  comm::run_ranks(2, [&](comm::Communicator& c) {
    models::ViTConfig enc{.name = "bench", .width = 32, .depth = 4,
                          .mlp_dim = 64, .heads = 4, .img_size = 16,
                          .patch_size = 4, .in_channels = 3};
    Rng rng(3);
    models::MAE mae(models::mae_for(enc), rng);
    parallel::FsdpOptions opts;
    opts.strategy = parallel::ShardingStrategy::kFullShard;
    parallel::Fsdp fsdp(mae, c, opts);
    train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
  });
  const double elapsed = monotonic_seconds() - t0;
  if (!telemetry_dir.empty()) obs::telemetry::stop();
  return elapsed;
}

double scope_cost_ns(int iters_total) {
  // Batches sized under the ring capacity, cleared between: the enabled
  // measurement must time the record path, never the overflow-drop path.
  auto& r = obs::TraceRecorder::instance();
  const int batch = 32768;
  double total = 0;
  for (int done = 0; done < iters_total; done += batch) {
    const int n = std::min(batch, iters_total - done);
    r.clear();
    const double t0 = monotonic_seconds();
    for (int i = 0; i < n; ++i) {
      obs::TraceScope s("bench.obs.scope", "bench");
    }
    total += monotonic_seconds() - t0;
  }
  return total / iters_total * 1e9;
}

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 0;
  for (int i = 0; i < reps; ++i) {
    const double t = fn();
    if (i == 0 || t < best) best = t;
  }
  return best;
}

}  // namespace

int main() {
  bench::banner("observability overhead",
                "tracing / telemetry / flight-recorder cost (repo §obs)");
  const int steps = bench::quick_mode() ? 6 : 20;
  const int scope_iters = bench::quick_mode() ? 200000 : 2000000;
  auto& recorder = obs::TraceRecorder::instance();

  // --- hot-path primitives ---------------------------------------------------
  recorder.disable();
  recorder.clear();
  const double scope_off_ns = scope_cost_ns(scope_iters);
  recorder.enable();
  const double scope_on_ns = scope_cost_ns(scope_iters);

  // Flight capture: the once-per-failure abort-path cost with a loaded
  // trace buffer (the scope loop above filled this thread's track).
  auto& flight = obs::FlightRecorder::instance();
  flight.enable(256);
  const double cap0 = monotonic_seconds();
  flight.capture_now("bench capture");
  const double capture_ms = (monotonic_seconds() - cap0) * 1e3;
  flight.discard();
  flight.disable();
  recorder.disable();
  recorder.clear();

  // --- end-to-end workload ---------------------------------------------------
  // Best-of-N per configuration: run-to-run scheduling noise on a small
  // workload dwarfs single-digit-percent overheads.
  const int reps = bench::quick_mode() ? 2 : 3;
  const std::string tdir = "/tmp/geofm_bench_obs_telemetry";
  std::filesystem::remove_all(tdir);
  run_workload(steps, "");  // warm-up: page in weights/data paths once
  const double base_s = best_of(reps, [&] { return run_workload(steps, ""); });
  recorder.enable();
  recorder.clear();
  const double trace_s = best_of(reps, [&] {
    recorder.clear();
    return run_workload(steps, "");
  });
  const double telem_s = best_of(reps, [&] {
    recorder.clear();
    return run_workload(steps, tdir);
  });
  recorder.disable();
  recorder.clear();
  std::filesystem::remove_all(tdir);

  const double trace_frac = base_s > 0 ? trace_s / base_s - 1.0 : 0;
  const double telem_frac = base_s > 0 ? telem_s / base_s - 1.0 : 0;

  TextTable table({"case", "value", "unit"});
  table.add_row({"trace_scope disabled", fmt_f(scope_off_ns, 1), "ns/span"});
  table.add_row({"trace_scope enabled", fmt_f(scope_on_ns, 1), "ns/span"});
  table.add_row({"flight capture", fmt_f(capture_ms, 3), "ms"});
  table.add_row({"workload baseline", fmt_f(base_s, 3), "s"});
  table.add_row({"workload + trace", fmt_f(trace_s, 3), "s"});
  table.add_row({"workload + telemetry", fmt_f(telem_s, 3), "s"});
  table.add_row({"trace overhead", fmt_f(trace_frac * 100, 2), "%"});
  table.add_row({"telemetry overhead", fmt_f(telem_frac * 100, 2), "%"});
  std::printf("%s", table.to_string().c_str());

  std::string json = "{\n";
  json += "  \"trace_scope_disabled_ns\": " + fmt_f(scope_off_ns, 2) + ",\n";
  json += "  \"trace_scope_enabled_ns\": " + fmt_f(scope_on_ns, 2) + ",\n";
  json += "  \"flight_capture_ms\": " + fmt_f(capture_ms, 4) + ",\n";
  json += "  \"workload_steps\": " + std::to_string(steps) + ",\n";
  json += "  \"baseline_s\": " + fmt_f(base_s, 4) + ",\n";
  json += "  \"trace_s\": " + fmt_f(trace_s, 4) + ",\n";
  json += "  \"telemetry_s\": " + fmt_f(telem_s, 4) + ",\n";
  json += "  \"trace_overhead_frac\": " + fmt_f(trace_frac, 4) + ",\n";
  json += "  \"telemetry_overhead_frac\": " + fmt_f(telem_frac, 4) + "\n";
  json += "}\n";
  bench::save_csv(table, "BENCH_obs");
  const std::string json_path = bench::cache_dir() + "/BENCH_obs.json";
  write_file(json_path, json);
  std::printf("[saved %s]\n", json_path.c_str());
  return 0;
}
