// Tests for util/: RNG determinism, thread pool and rank thread budgets,
// table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "data/datasets.hpp"
#include "models/config.hpp"
#include "train/elastic.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace geofm {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng root(7);
  Rng a1 = root.split(0), a2 = root.split(0), b = root.split(1);
  EXPECT_EQ(a1.next_u64(), a2.next_u64());
  Rng c1 = root.split(0);
  EXPECT_NE(c1.next_u64(), b.next_u64());
}

TEST(Rng, UniformInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntCoversRange) {
  Rng rng(5);
  std::set<i64> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 6);
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(Rng, HashNameDistinct) {
  EXPECT_NE(hash_name("weights"), hash_name("bias"));
  EXPECT_EQ(hash_name("x"), hash_name("x"));
}

TEST(ThreadPool, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for(10000, [&](i64 b, i64 e) {
    for (i64 i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  i64 total = 0;
  pool.parallel_for(100, [&](i64 b, i64 e) { total += e - b; });
  EXPECT_EQ(total, 100);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](i64, i64) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(
      pool.parallel_for(10000,
                        [&](i64 b, i64) {
                          if (b == 0) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, ConcurrentCallersDegradeGracefully) {
  // Two threads hammer the global pool simultaneously; each call must
  // still cover its range exactly.
  std::atomic<i64> total{0};
  auto work = [&] {
    for (int rep = 0; rep < 20; ++rep) {
      parallel_for(5000, [&](i64 b, i64 e) { total += e - b; });
    }
  };
  std::thread t1(work), t2(work);
  t1.join();
  t2.join();
  EXPECT_EQ(total.load(), 2 * 20 * 5000);
}

TEST(ThreadPool, NestedRegionRunsInlineOnTheChunksThread) {
  // A region nested inside a chunk — on the caller (which holds the
  // dispatch lock) or on a worker — runs as one inline chunk on the
  // thread that ran the enclosing chunk.
  ThreadPool pool(2);
  std::atomic<i64> covered{0};
  std::atomic<int> split_or_moved{0};
  pool.parallel_for(
      4000,
      [&](i64 b, i64 e) {
        const std::thread::id outer = std::this_thread::get_id();
        pool.parallel_for(
            4000,
            [&](i64 nb, i64 ne) {
              if (nb != 0 || ne != 4000 ||
                  std::this_thread::get_id() != outer) {
                split_or_moved++;
              }
            },
            /*grain=*/1);
        covered += e - b;
      },
      /*grain=*/100);
  EXPECT_EQ(covered.load(), 4000);
  EXPECT_EQ(split_or_moved.load(), 0);
}

TEST(ThreadPool, GrainAtLeastRangeTakesSingleChunkBypass) {
  // grain >= n must run inline on the caller thread as one chunk, even
  // when workers are available (no dispatch lock, no fan-out).
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  i64 got_b = -1, got_e = -1;
  std::thread::id ran_on;
  pool.parallel_for(
      1000,
      [&](i64 b, i64 e) {
        ++calls;
        got_b = b;
        got_e = e;
        ran_on = std::this_thread::get_id();
      },
      /*grain=*/1000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(got_b, 0);
  EXPECT_EQ(got_e, 1000);
  EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, GrainBoundsChunkSizeFromBelow) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<i64, i64>> chunks;
  pool.parallel_for(
      10000,
      [&](i64 b, i64 e) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(b, e);
      },
      /*grain=*/2500);
  // Exact coverage, and no chunk smaller than the grain except the tail.
  std::sort(chunks.begin(), chunks.end());
  i64 covered = 0;
  for (size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].first, covered);
    covered = chunks[i].second;
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].second - chunks[i].first, 2500);
    }
  }
  EXPECT_EQ(covered, 10000);
  EXPECT_LE(chunks.size(), 4u);
}

TEST(ThreadPool, GrainZeroKeepsLegacySmallRangeInline) {
  ThreadPool pool(4);
  int calls = 0;
  pool.parallel_for(511, [&](i64, i64) { ++calls; }, /*grain=*/0);
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, GrainRejectsNegative) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(10, [&](i64, i64) {}, /*grain=*/-1), Error);
}

// ----- rank thread budgets ----------------------------------------------------

// Runs one parallel region of `n` indices on the calling thread's pool and
// returns the threads that ran its chunks. Every chunk holds until `want`
// distinct threads have joined the region, so a pool that really fans out
// shows all its threads however the scheduler orders them; the wait gives
// up after a hang guard, and the caller's assertion reports the shortfall.
std::set<std::thread::id> region_threads(i64 n, size_t want) {
  std::mutex mu;
  std::set<std::thread::id> seen;
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  parallel_for(
      n,
      [&](i64, i64) {
        {
          std::lock_guard<std::mutex> lk(mu);
          seen.insert(std::this_thread::get_id());
        }
        for (;;) {
          {
            std::lock_guard<std::mutex> lk(mu);
            if (seen.size() >= want) return;
          }
          if (std::chrono::steady_clock::now() > give_up) return;
          std::this_thread::yield();
        }
      },
      /*grain=*/1);
  return seen;
}

TEST(ThreadPool, RankBudgetIsTheRanksShareOfTheProcess) {
  const int total = process_thread_budget();
  ASSERT_GE(total, 1);
  EXPECT_EQ(ThreadPool::global().n_workers(), total - 1);
  EXPECT_EQ(rank_thread_budget(1), total);
  EXPECT_EQ(rank_thread_budget(2), std::max(1, total / 2));
  EXPECT_EQ(rank_thread_budget(total), 1);
  EXPECT_EQ(rank_thread_budget(4 * total), 1);
  EXPECT_THROW(rank_thread_budget(0), Error);
}

TEST(ThreadPool, RanksAtOrAboveHardwareRunEveryChunkInline) {
  // Budget 1 per rank: a region runs on its rank thread alone, and never
  // touches the global pool even while other ranks compute.
  const int world = std::max(2, process_thread_budget());
  ASSERT_EQ(rank_thread_budget(world), 1);
  std::mutex mu;
  int off_thread_chunks = 0;
  int chunks = 0;
  comm::run_ranks(world, [&](comm::Communicator& c) {
    EXPECT_EQ(kernel_threads(), 1);
    EXPECT_NE(&ThreadPool::current(), &ThreadPool::global());
    c.barrier();
    const std::thread::id self = std::this_thread::get_id();
    parallel_for(
        100000,
        [&](i64, i64) {
          std::lock_guard<std::mutex> lk(mu);
          ++chunks;
          if (std::this_thread::get_id() != self) ++off_thread_chunks;
        },
        /*grain=*/1);
  });
  EXPECT_EQ(chunks, world);  // one inline chunk per rank
  EXPECT_EQ(off_thread_chunks, 0);
}

TEST(ThreadPool, SingleRankWorldKeepsTheWholeProcess) {
  const int total = process_thread_budget();
  if (total < 2) GTEST_SKIP() << "one kernel thread: nothing to fan out to";
  std::set<std::thread::id> threads;
  comm::run_ranks(1, [&](comm::Communicator&) {
    EXPECT_EQ(&ThreadPool::current(), &ThreadPool::global());
    EXPECT_EQ(kernel_threads(), total);
    threads = region_threads(64, 2);
  });
  EXPECT_GT(threads.size(), 1u);
}

TEST(ThreadPool, TwoRanksRunOnDisjointPrivatePools) {
  const int budget = rank_thread_budget(2);
  if (process_thread_budget() < 4) {
    GTEST_SKIP() << "needs >= 4 kernel threads for a 2-thread rank budget";
  }
  std::mutex mu;
  std::map<int, std::set<std::thread::id>> by_rank;
  comm::run_ranks(2, [&](comm::Communicator& c) {
    EXPECT_EQ(kernel_threads(), budget);
    c.barrier();  // both regions in flight at once
    auto threads = region_threads(64, static_cast<size_t>(budget));
    std::lock_guard<std::mutex> lk(mu);
    by_rank[c.rank()] = std::move(threads);
  });
  ASSERT_EQ(by_rank.size(), 2u);
  for (const auto& [rank, threads] : by_rank) {
    EXPECT_EQ(threads.size(), static_cast<size_t>(budget))
        << "rank " << rank << " did not get its whole budget";
  }
  for (const auto& id : by_rank[0]) {
    EXPECT_EQ(by_rank[1].count(id), 0u) << "a thread ran both ranks' chunks";
  }
}

TEST(ThreadPool, ElasticAttemptAfterShrinkGetsTheShrunkenBudget) {
  // 3 ranks lose one and finish at world 2: the completing attempt's ranks
  // run on rank_thread_budget(2) threads, not world 3's share.
  const std::string root = "/tmp/geofm_test_rank_budget_elastic";
  std::filesystem::remove_all(root);
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 2, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  train::ElasticConfig cfg;
  cfg.model = models::mae_for(enc);
  cfg.world = 3;
  cfg.train.steps = 4;
  cfg.train.global_batch = 6;  // divides 3 and 2
  cfg.train.loader_workers = 0;
  cfg.train.verbose = false;
  cfg.train.checkpoint_every_n_steps = 2;
  cfg.train.checkpoint_dir = root;
  cfg.train.async_checkpoint = false;
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 3));
  const auto res = train::run_elastic(cfg, data::million_aid_pretrain(32, 16));
  std::filesystem::remove_all(root);

  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].world, 3);
  EXPECT_EQ(res.attempts[1].world, 2);
  EXPECT_EQ(res.final_result.kernel_threads, rank_thread_budget(2));
}

TEST(Check, ThrowsGeofmError) {
  EXPECT_THROW(GEOFM_CHECK(false, "context " << 42), Error);
  EXPECT_NO_THROW(GEOFM_CHECK(true));
}

TEST(Table, FormatsAndCounts) {
  TextTable t({"model", "ips"});
  t.add_row({"ViT-3B", fmt_f(123.456, 1)});
  EXPECT_EQ(t.n_rows(), 1u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("ViT-3B"), std::string::npos);
  EXPECT_NE(s.find("123.5"), std::string::npos);
}

TEST(Table, RejectsWrongArity) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), Error);
}

TEST(Table, CsvEscaping) {
  TextTable t({"name", "v"});
  t.add_row({"a,b", "x\"y"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"x\"\"y\""), std::string::npos);
}

TEST(Fmt, Bytes) {
  EXPECT_EQ(fmt_bytes(512.0), "512.0 B");
  EXPECT_EQ(fmt_bytes(2048.0), "2.0 KB");
  EXPECT_EQ(fmt_bytes(3.5 * 1024.0 * 1024.0 * 1024.0), "3.5 GB");
}

}  // namespace
}  // namespace geofm
