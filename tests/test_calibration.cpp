// Simulator-vs-runtime calibration: the Frontier simulator times the same
// step plan (`parallel::plan_step`) the functional async FSDP runtime
// executes — forward lookahead, backward prefetch, the in-flight
// all-gather limiter — so the schedules are identical by construction and
// what is checked here is the cost side: the *ordering* of exposed
// communication time across configurations must agree even though the
// absolute scales differ by orders of magnitude (modeled ViT-5B on 8 nodes
// vs a proxy model on 4 thread ranks).
//
// ROADMAP item: "Calibration test comparing simulator predictions against
// the functional runtime's measured compute/comm overlap".
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <vector>

#include "comm/communicator.hpp"
#include "models/config.hpp"
#include "models/mae.hpp"
#include "parallel/fsdp.hpp"
#include "sim/simulator.hpp"

namespace geofm {
namespace {

using parallel::BackwardPrefetch;
using parallel::ShardingStrategy;

struct OverlapConfig {
  const char* name;
  BackwardPrefetch prefetch;
  bool limit_all_gathers;
};

constexpr OverlapConfig kConfigs[] = {
    {"pre+limit", BackwardPrefetch::kBackwardPre, true},
    {"post+limit", BackwardPrefetch::kBackwardPost, true},
    {"none+limit", BackwardPrefetch::kNone, true},
    {"pre+nolimit", BackwardPrefetch::kBackwardPre, false},
};
constexpr size_t kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

double modeled_exposed_seconds(const OverlapConfig& cfg) {
  sim::ParallelPlan plan;
  plan.fsdp.strategy = ShardingStrategy::kFullShard;
  plan.fsdp.prefetch = cfg.prefetch;
  plan.fsdp.limit_all_gathers = cfg.limit_all_gathers;
  sim::TrainingSimulator simulator(
      sim::vit_step_workload(models::vit_5b(), 32), sim::frontier(),
      /*nodes=*/8, plan);
  return simulator.simulate_step().exposed_comm_seconds;
}

struct MeasuredOverlap {
  double exposed_seconds = 0;
  int peak_inflight = 0;
};

// Rank 0's exposed-wait accounting for a short proxy-model run, warm-up
// step excluded (first-touch allocation noise).
MeasuredOverlap measured_overlap(const OverlapConfig& cfg) {
  constexpr int kRanks = 4;
  constexpr int kSteps = 4;
  MeasuredOverlap out;
  std::mutex mu;
  comm::run_ranks(kRanks, [&](comm::Communicator& c) {
    Rng rng(1);
    models::MAE mae(models::mae_for(models::proxy_base()), rng);
    parallel::FsdpOptions opts;
    opts.strategy = ShardingStrategy::kFullShard;
    opts.prefetch = cfg.prefetch;
    opts.limit_all_gathers = cfg.limit_all_gathers;
    parallel::Fsdp fsdp(mae, c, opts);

    Rng data_rng(100 + static_cast<u64>(c.rank()));
    Tensor batch = Tensor::randn({2, 3, 32, 32}, data_rng, 0.5f);
    for (int s = 0; s < kSteps; ++s) {
      Rng mask_rng(static_cast<u64>(50 + s));
      fsdp.begin_step();
      mae.forward(batch, mask_rng, 0);
      mae.backward();
      fsdp.end_backward();
      if (s == 0) continue;
      if (c.rank() == 0) {
        std::lock_guard<std::mutex> lk(mu);
        out.exposed_seconds += fsdp.last_step_stats().exposed_wait_seconds;
        out.peak_inflight =
            std::max(out.peak_inflight, fsdp.peak_inflight_gathers());
      }
    }
    c.barrier();
  });
  return out;
}

class OverlapCalibration : public ::testing::Test {
 protected:
  // One short run per config measures a few milliseconds of exposed wait,
  // which host scheduling noise (other tests, drift) can swing by 2x or
  // more. So the configs are measured in kRounds interleaved rounds, each
  // starting at a different config so drift spreads evenly, and each
  // config keeps the median of its rounds.
  static void SetUpTestSuite() {
    constexpr size_t kRounds = 41;
    std::vector<double> exposed[kNumConfigs];
    for (size_t i = 0; i < kNumConfigs; ++i)
      modeled_[i] = modeled_exposed_seconds(kConfigs[i]);
    for (size_t r = 0; r < kRounds; ++r) {
      for (size_t j = 0; j < kNumConfigs; ++j) {
        const size_t i = (j + r) % kNumConfigs;
        const MeasuredOverlap m = measured_overlap(kConfigs[i]);
        exposed[i].push_back(m.exposed_seconds);
        measured_[i].peak_inflight =
            std::max(measured_[i].peak_inflight, m.peak_inflight);
      }
    }
    for (size_t i = 0; i < kNumConfigs; ++i) {
      auto& v = exposed[i];
      std::nth_element(v.begin(), v.begin() + kRounds / 2, v.end());
      measured_[i].exposed_seconds = v[kRounds / 2];
    }
  }
  static double modeled_[kNumConfigs];
  static MeasuredOverlap measured_[kNumConfigs];
};

double OverlapCalibration::modeled_[kNumConfigs];
MeasuredOverlap OverlapCalibration::measured_[kNumConfigs];

// The simulator is deterministic: better prefetch must never increase
// modeled exposed time, and everything should expose *some* comm at
// paper scale.
TEST_F(OverlapCalibration, ModeledOrderingIsMonotoneInPrefetch) {
  const double pre = modeled_[0], post = modeled_[1], none = modeled_[2];
  EXPECT_GT(pre, 0.0);
  EXPECT_LE(pre, post);
  EXPECT_LE(post, none);
}

// Concordance: where the simulator predicts a decisive gap (>= 1.5x)
// between two configs, the measured runtime must not be decisively
// ordered the *opposite* way. Thread-rank timings are noisy, so only
// large modeled gaps are checked, and a 1.35x noise margin is allowed.
TEST_F(OverlapCalibration, MeasuredOrderingAgreesWithDecisiveModeledGaps) {
  constexpr double kDecisiveRatio = 1.5;
  constexpr double kNoiseMargin = 1.35;
  int decisive_pairs = 0;
  for (size_t a = 0; a < kNumConfigs; ++a) {
    for (size_t b = 0; b < kNumConfigs; ++b) {
      if (a == b || modeled_[b] <= 0.0) continue;
      if (modeled_[a] >= kDecisiveRatio * modeled_[b]) {
        // Model says a is decisively worse than b: the runtime must not
        // measure a as decisively *better*.
        ++decisive_pairs;
        EXPECT_LE(measured_[b].exposed_seconds,
                  kNoiseMargin * measured_[a].exposed_seconds)
            << kConfigs[a].name << " modeled " << modeled_[a] << "s vs "
            << kConfigs[b].name << " modeled " << modeled_[b]
            << "s, but measured " << measured_[a].exposed_seconds << "s vs "
            << measured_[b].exposed_seconds << "s";
      }
    }
  }
  // The no-prefetch config is modeled >= 1.5x worse than BACKWARD_PRE at
  // paper scale, so at least one pair must have been checked.
  EXPECT_GE(decisive_pairs, 1);
}

// The limiter invariant holds in every measured configuration that
// enables it, regardless of prefetch mode.
TEST_F(OverlapCalibration, LimiterCapsInflightGathersInAllConfigs) {
  for (size_t i = 0; i < kNumConfigs; ++i) {
    if (!kConfigs[i].limit_all_gathers) continue;
    EXPECT_LE(measured_[i].peak_inflight, parallel::kAllGatherInflightCap)
        << kConfigs[i].name;
    EXPECT_GE(measured_[i].peak_inflight, 1) << kConfigs[i].name;
  }
}

}  // namespace
}  // namespace geofm
