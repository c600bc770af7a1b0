// End-to-end benchmark: shared declarations. One process runs one workload;
// README.md lists the workloads, the metrics and which end-to-end metric
// each per-layer metric should move.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "data/dataloader.hpp"
#include "models/mae.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"

namespace geofm::bench_e2e {

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 12;  // measured time per run
  bool trace = false;   // per-layer (traced) run instead of the end-to-end run
  bool quick = false;   // ~1 s per workload, every correctness check kept
  std::string work_dir = ".bench_build/work";  // working files, removed after
};

/// What one run prints: the correctness verdict, operation counts, and
/// every metric of one table.
class Result {
 public:
  /// Sets a metric declared in the end-to-end or per-layer table.
  void set(const std::string& name, double value);
  /// The value set for `name`, or 0.
  double get(const std::string& name) const;
  /// Records a failed correctness check.
  void check(bool ok, const std::string& what);

  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  /// The result line: every metric of the end-to-end table (untraced) or
  /// of the per-layer table (traced). A metric of a layer the workload does
  /// not exercise reads 0. No metrics are printed when a check failed.
  std::string json(bool trace) const;

  i64 attempted = 0;  // training steps or requests
  i64 failed = 0;     // failed steps, shed or failed requests

 private:
  std::map<std::string, double> metrics_;
  std::vector<std::string> errors_;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

bool is_train_workload(const std::string& name);
bool is_serve_workload(const std::string& name);
Result run_train(const Options& opts);
Result run_serve(const Options& opts);

/// The benchmark's mid-size model: width 64, depth 6, MLP 256, 4 heads,
/// 32 px images in 4 px patches (64 patches).
models::MaeConfig mid_model();

// ----- statistics and inputs (report.cpp) --------------------------------

/// Nearest-rank percentile, p in [0, 100]. 0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Peak resident set of this process in MB (getrusage maxrss).
double peak_rss_mb();
/// Independent seed for one input of the workload.
u64 derive_seed(u64 seed, const char* what, u64 index = 0);

// ----- tracing and isolated layer timers (layers.cpp) --------------------

/// Enables the trace recorder for one scope, with per-thread buffers large
/// enough that a traced run drops no event.
class TraceOn {
 public:
  TraceOn();
  ~TraceOn();
  TraceOn(const TraceOn&) = delete;
  TraceOn& operator=(const TraceOn&) = delete;
};

/// A complete span that starts and ends inside [t0_ns, t1_ns].
bool in_window(const obs::TraceEvent& e, u64 t0_ns, u64 t1_ns);

/// Images per second one DataLoader delivers through next(), after its
/// first batch.
double loader_images_per_s(const data::SceneDataset& corpus,
                           const data::DataLoader::Options& options,
                           i64 batches);

/// The isolated timers every traced run reports: the kernels::gemm ceiling,
/// MAE::encode at batch 1 and 8, and Checkpointer::save of the model.
void set_isolated_metrics(Result& res, const models::MaeConfig& cfg, u64 seed,
                          const std::string& work_dir);

}  // namespace geofm::bench_e2e
