// Metric tables, the result line, and small statistics helpers.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench_e2e.hpp"
#include "util/rng.hpp"

namespace geofm::bench_e2e {

// The two tables BENCHMARK.json declares, in its order and with its units.
// Every run prints every metric of one table, whichever workload it is.
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"throughput_per_s", "1/s"},
      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> table = {
      {"train.step_ms.p50", "ms"},
      {"train.step_ms.p90", "ms"},
      {"train.unattributed_frac", "frac"},
      {"train.loss_final", "loss"},
      {"data.next_ms", "ms"},
      {"models.forward_ms", "ms"},
      {"models.backward_ms", "ms"},
      {"models.stage_fwd_ms.enc", "ms"},
      {"models.stage_fwd_ms.dec", "ms"},
      {"models.stage_bwd_ms.enc", "ms"},
      {"models.stage_bwd_ms.dec", "ms"},
      {"models.encode_ms.b1", "ms"},
      {"models.encode_ms.b8", "ms"},
      {"nn.enc_block.fwd_gflops", "GFLOP/s"},
      {"tensor.gemm.ms_per_step", "ms"},
      {"tensor.softmax.ms_per_step", "ms"},
      {"tensor.softmax_bwd.ms_per_step", "ms"},
      {"tensor.layernorm.ms_per_step", "ms"},
      {"tensor.layernorm_bwd.ms_per_step", "ms"},
      {"tensor.adamw.ms_per_step", "ms"},
      {"tensor.patchify.ms_per_step", "ms"},
      {"tensor.unpatchify.ms_per_step", "ms"},
      {"tensor.gemm.gflops", "GFLOP/s"},
      {"tensor.softmax.gflops", "GFLOP/s"},
      {"tensor.layernorm.gflops", "GFLOP/s"},
      {"tensor.adamw.gflops", "GFLOP/s"},
      {"tensor.gemm.ceiling_gflops", "GFLOP/s"},
      {"tensor.gemm.ceiling_frac", "frac"},
      {"optim.step_ms", "ms"},
      {"parallel.begin_step_ms", "ms"},
      {"parallel.end_backward_ms", "ms"},
      {"parallel.exposed_comm_ms", "ms"},
      {"parallel.exposed_comm_frac", "frac"},
      {"parallel.comm_busy_ms", "ms"},
      {"parallel.overlap_frac", "frac"},
      {"parallel.gather_wait_ms", "ms"},
      {"parallel.limiter_stall_ms", "ms"},
      {"parallel.peak_inflight_gathers", "count"},
      {"parallel.collectives_per_step", "count"},
      {"parallel.bytes_per_step", "B"},
      {"comm.loss_allreduce_ms", "ms"},
      {"ckpt.snapshot_ms", "ms"},
      {"ckpt.write_ms", "ms"},
      {"ckpt.publish_ms", "ms"},
      {"serve.submit_us.p50", "us"},
      {"serve.batch_mean", "count"},
      {"serve.encodes_per_s", "1/s"},
      {"serve.batch_ms.p50", "ms"},
      {"serve.encode_ms.p50", "ms"},
      {"serve.wait_ms.p50", "ms"},
      {"serve.cache_hit_frac", "frac"},
      {"serve.shed_frac", "frac"},
      {"serve.slo_frac", "frac"},
      {"serve.reloads", "count"},
      {"serve.reload_ms", "ms"},
      {"serve.publish_to_serve_ms.p50", "ms"},
      {"serve.p99_ms.raw", "ms"},
      {"serve.max_ms", "ms"},
      {"sim.flops_ratio", "ratio"},
      {"obs.trace_overhead_frac", "frac"},
      {"obs.dropped_events", "count"},
      {"load.gen_late_ms.p99", "ms"},
      {"load.gen_late_ms.max", "ms"},
      {"fig1.real_ips", "img/s"},
      {"fig1.syn_ips", "img/s"},
      {"fig1.nocomm_ips", "img/s"},
      {"fig1.io_ips", "img/s"},
  };
  return table;
}

namespace {

bool declared(const std::vector<MetricSpec>& table, const std::string& name) {
  return std::any_of(table.begin(), table.end(),
                     [&](const MetricSpec& m) { return name == m.name; });
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::set(const std::string& name, double value) {
  GEOFM_CHECK(declared(end_to_end_metrics(), name) ||
                  declared(per_layer_metrics(), name),
              "undeclared metric " << name);
  metrics_[name] = value;
}

double Result::get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0.0 : it->second;
}

void Result::check(bool ok, const std::string& what) {
  if (!ok) errors_.push_back(what);
}

std::string Result::json(bool trace) const {
  std::string out = std::string("{\"correct\": ") +
                    (correct() ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  if (correct()) {
    const auto& table = trace ? per_layer_metrics() : end_to_end_metrics();
    bool first = true;
    for (const MetricSpec& m : table) {
      double v = get(m.name);
      // A non-finite reading (e.g. a percentile landing on a shed request)
      // is not representable in JSON; it prints as a very large value.
      if (!std::isfinite(v)) v = 1e12;
      if (!first) out += ", ";
      first = false;
      out += std::string("\"") + m.name + "\": {\"value\": " + number(v) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  out += "}}";
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double rank = std::clamp(std::ceil(p / 100.0 * n), 1.0, n);
  return v[static_cast<size_t>(rank) - 1];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

u64 derive_seed(u64 seed, const char* what, u64 index) {
  return Rng(seed).split(hash_name(what)).split(index).next_u64();
}

}  // namespace geofm::bench_e2e
