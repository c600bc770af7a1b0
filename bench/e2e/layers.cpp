// Isolated per-layer timers: the benchmark's own clocks around single calls
// into layer public functions, outside any workload. The traced runs add
// these to the spans the program records.
#include <algorithm>
#include <filesystem>
#include <vector>

#include "bench_e2e.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "data/dataloader.hpp"
#include "tensor/kernels/kernels.hpp"
#include "util/thread_context.hpp"

namespace geofm::bench_e2e {

// 2^18 events (~19 MB) per thread track: the busiest track of any traced
// workload (the serving batch worker) records well under this.
TraceOn::TraceOn() {
  auto& rec = obs::TraceRecorder::instance();
  rec.set_buffer_capacity(u64{1} << 18);
  rec.clear();
  rec.enable();
}

TraceOn::~TraceOn() { obs::TraceRecorder::instance().disable(); }

bool in_window(const obs::TraceEvent& e, u64 t0_ns, u64 t1_ns) {
  return e.phase == obs::TraceEvent::Phase::kComplete && e.ts_ns >= t0_ns &&
         e.ts_ns + e.dur_ns <= t1_ns;
}

namespace {

double gemm_ceiling_gflops() {
  constexpr i64 n = 256;
  Rng rng(7);
  const Tensor a = Tensor::randn({n, n}, rng);
  const Tensor b = Tensor::randn({n, n}, rng);
  Tensor c({n, n});
  double best = 0;
  for (int rep = 0; rep < 30; ++rep) {
    const double t0 = monotonic_seconds();
    kernels::gemm_nn(1, n, n, n, a.data(), b.data(), c.data());
    const double dt = monotonic_seconds() - t0;
    if (dt > 0) best = std::max(best, 2.0 * n * n * n / dt * 1e-9);
  }
  return best;
}

double encode_ms(const models::MaeConfig& cfg, u64 seed, i64 batch) {
  Rng rng(seed);
  models::MAE model(cfg, rng);
  const auto& enc = cfg.encoder;
  const Tensor images = Tensor::randn(
      {batch, enc.in_channels, enc.img_size, enc.img_size}, rng, 0.5f);
  model.encode(images);  // first call allocates
  std::vector<double> ms;
  for (int rep = 0; rep < 15; ++rep) {
    const double t0 = monotonic_seconds();
    model.encode(images);
    ms.push_back(1e3 * (monotonic_seconds() - t0));
  }
  return median(ms);
}

}  // namespace

double loader_images_per_s(const data::SceneDataset& corpus,
                           const data::DataLoader::Options& options,
                           i64 batches) {
  data::DataLoader loader(corpus, data::Split::kTrain, options);
  loader.start_epoch(0);
  GEOFM_CHECK(loader.next().has_value(), "loader yielded no batch");
  i64 images = 0;
  const double t0 = monotonic_seconds();
  for (i64 i = 0; i < batches; ++i) {
    const auto batch = loader.next();
    GEOFM_CHECK(batch.has_value(),
                "loader exhausted after " << i << " batches");
    images += batch->images.dim(0);
  }
  return static_cast<double>(images) / (monotonic_seconds() - t0);
}

namespace {

double publish_ms(const models::MaeConfig& cfg, u64 seed,
                  const std::string& dir) {
  Rng rng(seed);
  models::MAE model(cfg, rng);
  ckpt::reset_save_state(dir);
  ckpt::Checkpointer writer(/*async=*/false);
  std::vector<double> ms;
  for (i64 step = 0; step < 5; ++step) {
    ckpt::SaveRequest req;
    req.dir = dir;
    req.step = step;
    req.state = ckpt::replicated_state(model, nullptr, 0, 1, /*for_save=*/true);
    const double t0 = monotonic_seconds();
    writer.save(req);
    ms.push_back(1e3 * (monotonic_seconds() - t0));
  }
  std::filesystem::remove_all(dir);
  return median(ms);
}

}  // namespace

void set_isolated_metrics(Result& res, const models::MaeConfig& cfg, u64 seed,
                          const std::string& work_dir) {
  res.set("tensor.gemm.ceiling_gflops", gemm_ceiling_gflops());
  res.set("models.encode_ms.b1", encode_ms(cfg, seed, 1));
  res.set("models.encode_ms.b8", encode_ms(cfg, seed, 8));
  res.set("ckpt.publish_ms", publish_ms(cfg, seed, work_dir));
}

}  // namespace geofm::bench_e2e
