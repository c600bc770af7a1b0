// bench_e2e: runs one workload of the end-to-end benchmark and prints its
// result as the last line of standard output (see README.md).
//
// Usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--quick] [--work-dir DIR]
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_e2e.hpp"

using namespace geofm;
using namespace geofm::bench_e2e;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_e2e: %s\n"
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--quick] [--work-dir DIR]\n"
               "workloads: train-w1 train-fsdp4 train-noshard4-ckpt "
               "serve-miss serve-hot\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--workload" && has_value) {
      opts.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opts.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opts.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      opts.trace = std::string(argv[++i]) != "0";
    } else if (arg == "--work-dir" && has_value) {
      opts.work_dir = argv[++i];
    } else {
      return usage(("unexpected argument " + arg).c_str());
    }
  }
  const bool train = is_train_workload(opts.workload);
  if (!train && !is_serve_workload(opts.workload)) {
    return usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (!(opts.seconds > 0)) return usage("--seconds must be positive");

  // The end-to-end run is measured with tracing off, whatever the
  // environment asks for; the traced run enables it around its own phases.
  obs::TraceRecorder::instance().disable();

  // Working files of this process only, removed on the way out.
  const std::filesystem::path work =
      std::filesystem::path(opts.work_dir) /
      (opts.workload + "-" + std::to_string(getpid()));
  std::filesystem::create_directories(work);
  opts.work_dir = work.string();

  Result res = train ? run_train(opts) : run_serve(opts);
  if (opts.trace && res.correct()) {
    res.set("tensor.gemm.ceiling_frac",
            res.get("tensor.gemm.gflops") /
                res.get("tensor.gemm.ceiling_gflops"));
  }
  std::filesystem::remove_all(work);

  for (const std::string& e : res.errors()) {
    std::fprintf(stderr, "bench_e2e: %s: check failed: %s\n",
                 opts.workload.c_str(), e.c_str());
  }
  std::printf("%s\n", res.json(opts.trace).c_str());
  std::fflush(stdout);
  return res.correct() ? 0 : 1;
}
