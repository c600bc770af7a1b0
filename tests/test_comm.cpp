// Collective-communication tests across varying rank counts, including
// sub-communicator (split) behaviour that HYBRID_SHARD depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "comm/watchdog.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::ReduceOp;
using comm::run_ranks;

class CollectivesAcrossRanks : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(RankCounts, CollectivesAcrossRanks,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST_P(CollectivesAcrossRanks, AllReduceSum) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor t = Tensor::full({5}, static_cast<float>(c.rank() + 1));
    c.all_reduce(t, ReduceOp::kSum);
    const float expect = static_cast<float>(n * (n + 1) / 2);
    for (i64 i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(t[i], expect);
  });
}

TEST_P(CollectivesAcrossRanks, AllReduceAvg) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor t = Tensor::full({3}, static_cast<float>(c.rank()));
    c.all_reduce(t, ReduceOp::kAvg);
    const float expect = static_cast<float>(n - 1) / 2.f;
    for (i64 i = 0; i < 3; ++i) EXPECT_FLOAT_EQ(t[i], expect);
  });
}

TEST_P(CollectivesAcrossRanks, AllGatherPlacesShardsInRankOrder) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor shard = Tensor::full({4}, static_cast<float>(c.rank() * 10));
    Tensor out({static_cast<i64>(4 * n)});
    c.all_gather(shard, out);
    for (int r = 0; r < n; ++r) {
      for (i64 i = 0; i < 4; ++i) {
        EXPECT_FLOAT_EQ(out[r * 4 + i], static_cast<float>(r * 10));
      }
    }
  });
}

TEST_P(CollectivesAcrossRanks, ReduceScatterSumsOwnChunk) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    // in[r][i] = r + i; chunk k sums to n*(k*chunklen + i) + sum(r).
    Tensor in({static_cast<i64>(2 * n)});
    for (i64 i = 0; i < in.numel(); ++i) {
      in[i] = static_cast<float>(c.rank() + i);
    }
    Tensor shard({2});
    c.reduce_scatter(in, shard, ReduceOp::kSum);
    const float rank_sum = static_cast<float>(n * (n - 1) / 2);
    for (i64 i = 0; i < 2; ++i) {
      const float expect =
          rank_sum + static_cast<float>(n) * (c.rank() * 2 + i);
      EXPECT_FLOAT_EQ(shard[i], expect);
    }
  });
}

TEST_P(CollectivesAcrossRanks, AllGatherThenReduceScatterRoundTrip) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor shard = Tensor::full({3}, static_cast<float>(c.rank() + 1));
    Tensor full({static_cast<i64>(3 * n)});
    c.all_gather(shard, full);
    Tensor back({3});
    c.reduce_scatter(full, back, ReduceOp::kSum);
    // Every rank contributed the same gathered tensor, so the reduce
    // multiplies each chunk by n; chunk r is rank r's original shard.
    for (i64 i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(back[i], static_cast<float>(n * (c.rank() + 1)));
    }
  });
}

TEST_P(CollectivesAcrossRanks, Broadcast) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor t = Tensor::full({4}, c.rank() == 0 ? 7.f : -1.f);
    c.broadcast(t, 0);
    for (i64 i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(t[i], 7.f);
  });
}

TEST_P(CollectivesAcrossRanks, BroadcastNonZeroRoot) {
  const int n = GetParam();
  if (n < 2) GTEST_SKIP();
  run_ranks(n, [&](Communicator& c) {
    Tensor t = Tensor::full({2}, static_cast<float>(c.rank()));
    c.broadcast(t, n - 1);
    for (i64 i = 0; i < 2; ++i) {
      EXPECT_FLOAT_EQ(t[i], static_cast<float>(n - 1));
    }
  });
}

TEST_P(CollectivesAcrossRanks, ReductionDeterministicAcrossRanks) {
  const int n = GetParam();
  // Awkward floats whose sum depends on order; all ranks must agree bitwise.
  run_ranks(n, [&](Communicator& c) {
    Rng rng(1000 + static_cast<u64>(c.rank()));
    Tensor t = Tensor::randn({64}, rng, 1e3f);
    c.all_reduce(t, ReduceOp::kSum);
    // Gather everyone's result and compare bitwise.
    Tensor all({static_cast<i64>(64 * n)});
    c.all_gather(t, all);
    for (int r = 1; r < n; ++r) {
      for (i64 i = 0; i < 64; ++i) {
        EXPECT_EQ(all[i], all[r * 64 + i]);
      }
    }
  });
}

TEST(Comm, BarrierSeparatesPhases) {
  std::atomic<int> phase1{0};
  run_ranks(4, [&](Communicator& c) {
    phase1.fetch_add(1);
    c.barrier();
    // After the barrier every rank must observe all 4 increments.
    EXPECT_EQ(phase1.load(), 4);
  });
}

TEST(Comm, SequentialCollectivesReuseScratchSafely) {
  run_ranks(3, [&](Communicator& c) {
    for (int iter = 0; iter < 50; ++iter) {
      Tensor t = Tensor::full({8}, static_cast<float>(c.rank() + iter));
      c.all_reduce(t, ReduceOp::kSum);
      const float expect = static_cast<float>(3 * iter + 3);  // 0+1+2 + 3*iter
      EXPECT_FLOAT_EQ(t[0], expect);
    }
  });
}

TEST(Comm, SplitFormsCorrectGroups) {
  // 6 ranks, color = rank % 2 -> two groups of 3 ordered by rank.
  run_ranks(6, [&](Communicator& c) {
    Communicator sub = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Collective within the subgroup only sums subgroup members.
    Tensor t = Tensor::full({2}, static_cast<float>(c.rank()));
    sub.all_reduce(t, ReduceOp::kSum);
    const float expect = (c.rank() % 2 == 0) ? 0.f + 2.f + 4.f : 1.f + 3.f + 5.f;
    EXPECT_FLOAT_EQ(t[0], expect);
  });
}

TEST(Comm, SplitKeyControlsRankOrder) {
  run_ranks(4, [&](Communicator& c) {
    // Reverse order via descending key.
    Communicator sub = c.split(0, -c.rank());
    EXPECT_EQ(sub.size(), 4);
    EXPECT_EQ(sub.rank(), 3 - c.rank());
  });
}

TEST(Comm, HierarchicalSplitMirrorsHybridSharding) {
  // 8 ranks = 4 shard groups of 2 (consecutive) x 2 replica groups.
  run_ranks(8, [&](Communicator& c) {
    Communicator shard = c.split(c.rank() / 2, c.rank());
    Communicator replica = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(shard.size(), 2);
    EXPECT_EQ(replica.size(), 4);

    // reduce_scatter within the shard group, all_reduce across replicas —
    // the exact HYBRID gradient pattern. Everyone contributes ones, so
    // after both phases each rank's chunk is shard_size * replica_size.
    Tensor grad = Tensor::ones({4});
    Tensor chunk({2});
    shard.reduce_scatter(grad, chunk, ReduceOp::kSum);
    replica.all_reduce(chunk, ReduceOp::kSum);
    for (i64 i = 0; i < 2; ++i) EXPECT_FLOAT_EQ(chunk[i], 8.f);
  });
}

TEST(Comm, ConsecutiveSplitsGetDistinctRegistries) {
  run_ranks(4, [&](Communicator& c) {
    Communicator a = c.split(c.rank() / 2, c.rank());
    Communicator b = c.split(c.rank() % 2, c.rank());
    Tensor ta = Tensor::ones({1});
    a.all_reduce(ta, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(ta[0], 2.f);
    Tensor tb = Tensor::ones({1});
    b.all_reduce(tb, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(tb[0], 2.f);
  });
}

TEST(Comm, SingleRankCollectivesAreIdentity) {
  run_ranks(1, [&](Communicator& c) {
    Tensor t = Tensor::from({1.f, 2.f});
    c.all_reduce(t, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(t[0], 1.f);
    Tensor out({2});
    c.all_gather(t, out);
    EXPECT_FLOAT_EQ(out[1], 2.f);
    Tensor shard({2});
    c.reduce_scatter(t, shard, ReduceOp::kSum);
    EXPECT_FLOAT_EQ(shard[0], 1.f);
  });
}

// ----- nonblocking engine ---------------------------------------------------

TEST_P(CollectivesAcrossRanks, NonblockingAllReduceMatchesBlocking) {
  const int n = GetParam();
  run_ranks(n, [&](Communicator& c) {
    Tensor t = Tensor::full({6}, static_cast<float>(c.rank() + 1));
    comm::CollectiveHandle h = c.iall_reduce(t, ReduceOp::kSum);
    EXPECT_TRUE(h.pending());
    h.wait();
    EXPECT_FALSE(h.pending());
    EXPECT_TRUE(h.test());  // empty handle reports complete
    const float expect = static_cast<float>(n * (n + 1) / 2);
    for (i64 i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(t[i], expect);
  });
}

TEST(Comm, DefaultHandleIsCompleteAndWaitIsNoop) {
  comm::CollectiveHandle h;
  EXPECT_TRUE(h.test());
  EXPECT_FALSE(h.pending());
  h.wait();  // must not block or throw
}

TEST(Comm, SingleRankNonblockingCompletesInline) {
  run_ranks(1, [&](Communicator& c) {
    Tensor t = Tensor::from({3.f, 4.f});
    comm::CollectiveHandle h = c.iall_reduce(t, ReduceOp::kSum);
    EXPECT_TRUE(h.test());  // no peers to wait for
    h.wait();
    EXPECT_FLOAT_EQ(t[0], 3.f);
  });
}

TEST(Comm, ManyInFlightWaitedInReverseOrder) {
  constexpr int kOps = 32;
  run_ranks(4, [&](Communicator& c) {
    std::vector<Tensor> bufs;
    std::vector<comm::CollectiveHandle> handles;
    bufs.reserve(kOps);
    handles.reserve(kOps);
    for (int k = 0; k < kOps; ++k) {
      bufs.push_back(Tensor::full({8}, static_cast<float>(c.rank() + k)));
      handles.push_back(c.iall_reduce(bufs.back(), ReduceOp::kSum));
    }
    // Drain newest-first: completion order must be independent of wait order.
    for (int k = kOps - 1; k >= 0; --k) {
      handles[static_cast<size_t>(k)].wait();
      const float expect = static_cast<float>(4 * k + 6);  // sum(r) + 4k
      for (i64 i = 0; i < 8; ++i) {
        EXPECT_FLOAT_EQ(bufs[static_cast<size_t>(k)][i], expect);
      }
    }
  });
}

TEST(Comm, MixedKindsInFlightSimultaneously) {
  run_ranks(3, [&](Communicator& c) {
    Tensor red = Tensor::full({4}, static_cast<float>(c.rank()));
    Tensor shard = Tensor::full({2}, static_cast<float>(c.rank() * 10));
    Tensor gathered({6});
    Tensor bcast = Tensor::full({3}, c.rank() == 1 ? 42.f : -1.f);
    auto h1 = c.iall_reduce(red, ReduceOp::kSum);
    auto h2 = c.iall_gather(shard, gathered);
    auto h3 = c.ibroadcast(bcast, 1);
    h3.wait();
    h1.wait();
    h2.wait();
    EXPECT_FLOAT_EQ(red[0], 3.f);
    for (int r = 0; r < 3; ++r) {
      EXPECT_FLOAT_EQ(gathered[r * 2], static_cast<float>(r * 10));
    }
    EXPECT_FLOAT_EQ(bcast[0], 42.f);
  });
}

TEST(Comm, RandomizedStressAcrossSubCommunicators) {
  // Every rank derives the same issue schedule from a shared seed (the MPI
  // matching contract), posts everything nonblocking on a mix of the world
  // communicator and two overlapping sub-communicators, then drains in a
  // rank-private shuffled order.
  constexpr int kWorld = 8;
  constexpr int kOps = 60;
  run_ranks(kWorld, [&](Communicator& world) {
    Communicator evens_odds = world.split(world.rank() % 2, world.rank());
    Communicator pairs = world.split(world.rank() / 2, world.rank());

    struct Issued {
      Tensor buf;
      comm::CollectiveHandle handle;
      float expect;
    };
    std::vector<Issued> ops;
    ops.reserve(kOps);

    Rng schedule(777);  // identical stream on every rank
    for (int k = 0; k < kOps; ++k) {
      Communicator* c = nullptr;
      switch (schedule.uniform_int(3)) {
        case 0: c = &world; break;
        case 1: c = &evens_odds; break;
        default: c = &pairs; break;
      }
      const bool reduce = schedule.uniform_int(2) == 0;
      Issued op{Tensor::full({5}, 1.f), {}, 0.f};
      if (reduce) {
        op.handle = c->iall_reduce(op.buf, ReduceOp::kSum);
        op.expect = static_cast<float>(c->size());
      } else {
        op.handle = c->ibroadcast(op.buf, 0);
        op.expect = 1.f;
      }
      ops.push_back(std::move(op));
    }

    // Per-rank drain order: shuffle indices with a rank-salted stream.
    Rng order(991 + static_cast<u64>(world.rank()));
    std::vector<int> idx(kOps);
    for (int k = 0; k < kOps; ++k) idx[static_cast<size_t>(k)] = k;
    for (int k = kOps - 1; k > 0; --k) {
      std::swap(idx[static_cast<size_t>(k)],
                idx[static_cast<size_t>(order.uniform_int(k + 1))]);
    }
    for (int k : idx) {
      auto& op = ops[static_cast<size_t>(k)];
      op.handle.wait();
      for (i64 i = 0; i < 5; ++i) EXPECT_FLOAT_EQ(op.buf[i], op.expect);
    }
  });
}

TEST(Comm, MismatchedCountsRaiseOnEveryRank) {
  run_ranks(2, [&](Communicator& c) {
    // Ranks disagree on the payload size for the same ticket; both must see
    // the error from wait() instead of deadlocking.
    Tensor t = Tensor::ones({c.rank() == 0 ? 4 : 8});
    EXPECT_THROW(c.all_reduce(t, ReduceOp::kSum), Error);
  });
}

TEST(Comm, MismatchedKindsRaiseOnEveryRank) {
  run_ranks(2, [&](Communicator& c) {
    Tensor t = Tensor::ones({4});
    if (c.rank() == 0) {
      EXPECT_THROW(c.all_reduce(t, ReduceOp::kSum), Error);
    } else {
      Tensor out({8});
      EXPECT_THROW(c.all_gather(t, out), Error);
    }
  });
}

TEST(Comm, WaitStatsCountCompletedBeforeWait) {
  run_ranks(4, [&](Communicator& c) {
    comm::CommStats stats;
    Tensor t = Tensor::ones({16});
    auto h = c.iall_reduce(t, ReduceOp::kSum);
    // After the barrier every rank has posted, so the op has executed and
    // this wait() must be a non-blocking bookkeeping visit.
    c.barrier();
    EXPECT_TRUE(h.test());
    h.wait(&stats);
    EXPECT_EQ(stats.waits, 1);
    EXPECT_EQ(stats.completed_before_wait, 1);
    EXPECT_GE(stats.busy_seconds, 0.0);
    EXPECT_GE(stats.exposed_wait_seconds, 0.0);
    EXPECT_GE(stats.overlapped_seconds(), 0.0);
  });
}

TEST(Comm, RunRanksPropagatesExceptions) {
  EXPECT_THROW(run_ranks(2,
                         [&](Communicator& c) {
                           // Both ranks throw (so nobody blocks in a
                           // collective) — the error must surface.
                           throw Error("rank failure " +
                                       std::to_string(c.rank()));
                         }),
               Error);
}

// ----- abort coverage (barrier gap) + typed errors ---------------------------

TEST(Comm, BarrierObservesAbortInsteadOfDeadlocking) {
  // Rank 1 blocks in a plain barrier; rank 0 never arrives and aborts.
  // Pre-fix this deadlocked forever (the documented barrier() gap).
  std::atomic<int> aborted_count{0};
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 1) {
      try {
        c.barrier();
        FAIL() << "barrier completed without both ranks";
      } catch (const comm::Aborted& e) {
        ++aborted_count;
        EXPECT_NE(std::string(e.what()).find("node died"), std::string::npos);
      }
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      c.abort("node died");
      // Post-abort arrivals must throw immediately, not hang.
      EXPECT_THROW(c.barrier(), comm::Aborted);
    }
  });
  EXPECT_EQ(aborted_count.load(), 1);
}

TEST(Comm, AbortedPostsThrowTypedError) {
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) c.abort("test abort");
    Tensor t = Tensor::ones({4});
    // Both ranks: the group is (or becomes) aborted; every rendezvous
    // surfaces comm::Aborted (which is-a Error, so old catch sites work).
    try {
      for (int i = 0; i < 100; ++i) c.all_reduce(t);
      FAIL() << "collectives on an aborted group must fail";
    } catch (const comm::Aborted&) {
    }
  });
}

TEST(Comm, BarrierAgainstCollectiveRaisesMismatchOnEveryRank) {
  // At ticket 0 rank 0 enters a barrier while rank 1 posts an all_reduce.
  // Both are ops of one engine, so both must raise the matching error.
  // The guard aborts the group if they have not returned within 20 s, so
  // a hang fails the test (with "aborted" messages) instead of wedging it.
  auto group = comm::make_group(2);
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread guard([&] {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(20), [&] { return finished; })) {
      Communicator(group, 0).abort("hang guard");
    }
  });
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> ranks;
  for (int r = 0; r < 2; ++r) {
    ranks.emplace_back([&, r] {
      Communicator c(group, r);
      try {
        if (r == 0) {
          c.barrier();
        } else {
          Tensor t = Tensor::ones({4});
          c.all_reduce(t);
        }
      } catch (...) {
        errors[static_cast<size_t>(r)] = std::current_exception();
      }
    });
  }
  for (auto& t : ranks) t.join();
  {
    std::lock_guard<std::mutex> lk(mu);
    finished = true;
  }
  cv.notify_all();
  guard.join();
  // Messages are read after the joins: both ranks rethrow one shared
  // exception object, whose refcount lives in uninstrumented libstdc++.
  for (const std::exception_ptr& err : errors) {
    std::string what = "no error";
    try {
      if (err) std::rethrow_exception(err);
    } catch (const Error& e) {
      what = e.what();
    }
    EXPECT_NE(what.find("mismatched collective calls"), std::string::npos)
        << what;
  }
}

TEST(Comm, SplitRejectsColorOrKeyAFloatCannotCarry) {
  run_ranks(2, [&](Communicator& c) {
    EXPECT_THROW(c.split(0, (1 << 24) + 1), Error);
    EXPECT_THROW(c.split(-(1 << 24) - 1, 0), Error);
    // The rejected calls posted nothing: a valid split still matches.
    Communicator sub = c.split(0, 1 << 24);
    EXPECT_EQ(sub.rank(), c.rank());
  });
}

// ----- watchdog --------------------------------------------------------------

TEST(Watchdog, DiagnosesStalledRankInCollective) {
  // Rank 2 goes silent past the deadline while 0 and 1 sit in an
  // all_reduce. The watchdog must abort the group naming rank 2, and
  // nobody may deadlock.
  std::atomic<int> aborted_ranks{0};
  std::vector<int> suspects;
  std::string reason;
  std::mutex mu;
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.3;
      c.start_watchdog(opts);
    }
    c.barrier();  // watchdog armed before anyone posts
    Tensor t = Tensor::ones({16});
    try {
      if (c.rank() == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      }
      c.all_reduce(t);
      FAIL() << "rank " << c.rank() << " completed despite the stall";
    } catch (const comm::Aborted&) {
      ++aborted_ranks;
      std::lock_guard<std::mutex> lk(mu);
      if (suspects.empty()) {
        suspects = c.abort_suspects();
        reason = c.abort_reason();
      }
    }
  });
  EXPECT_EQ(aborted_ranks.load(), 3);
  ASSERT_EQ(suspects, (std::vector<int>{2}));
  EXPECT_NE(reason.find("rank 2 stalled in all_reduce"), std::string::npos);
  EXPECT_NE(reason.find("ticket"), std::string::npos);
}

TEST(Watchdog, DiagnosesStalledRankInBarrier) {
  std::atomic<int> aborted_ranks{0};
  std::string reason;
  std::mutex mu;
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.3;
      c.start_watchdog(opts);
    }
    try {
      if (c.rank() == 2) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      }
      c.barrier();
      FAIL() << "barrier completed despite the stall";
    } catch (const comm::Aborted&) {
      ++aborted_ranks;
      std::lock_guard<std::mutex> lk(mu);
      if (reason.empty()) reason = c.abort_reason();
    }
  });
  EXPECT_EQ(aborted_ranks.load(), 3);
  EXPECT_NE(reason.find("stalled in barrier"), std::string::npos);
  EXPECT_NE(reason.find("rank 2"), std::string::npos);
}

TEST(Watchdog, StaysQuietOnHealthyTraffic) {
  // Staggered-but-healthy ranks (skew well under the deadline) must run a
  // long collective sequence without a false-positive abort.
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.5;
      c.start_watchdog(opts);
    }
    c.barrier();
    Tensor t = Tensor::ones({8});
    for (int i = 0; i < 40; ++i) {
      if (i % 7 == c.rank()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      c.all_reduce(t, ReduceOp::kAvg);
    }
    EXPECT_FALSE(c.aborted());
  });
}

TEST(Watchdog, ScanCoversSubcommunicators) {
  // The stall happens inside a split() subgroup; the root watchdog scan
  // must still see it and name the world rank.
  std::atomic<int> aborted_ranks{0};
  std::string reason;
  std::mutex mu;
  run_ranks(4, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.3;
      c.start_watchdog(opts);
    }
    Communicator half = c.split(c.rank() / 2, c.rank());
    Tensor t = Tensor::ones({4});
    try {
      if (c.rank() == 3) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1500));
      }
      half.all_reduce(t);
      // The healthy pair (ranks 0,1) completes its subgroup collective;
      // it must then observe the abort on the next root rendezvous.
      c.barrier();
      FAIL() << "rank " << c.rank() << " never observed the abort";
    } catch (const comm::Aborted&) {
      ++aborted_ranks;
      std::lock_guard<std::mutex> lk(mu);
      if (reason.empty()) reason = c.abort_reason();
    }
  });
  EXPECT_EQ(aborted_ranks.load(), 4);
  EXPECT_NE(reason.find("rank 3"), std::string::npos);
}

TEST(Watchdog, NamesGlobalRankStalledBeforeSplit) {
  // World ranks 2 and 3 form one half; world rank 3 stalls before the
  // half's own split. The diagnosis must name the world rank, not the
  // subgroup rank (1).
  std::atomic<int> aborted_ranks{0};
  std::vector<int> suspects;
  std::string reason;
  std::mutex mu;
  run_ranks(4, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.3;
      c.start_watchdog(opts);
    }
    Communicator half = c.split(c.rank() / 2, c.rank());
    if (c.rank() < 2) {
      half.split(0, half.rank());  // the healthy half completes its split
      return;
    }
    try {
      if (c.rank() == 3) {
        while (!c.aborted()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
      }
      half.split(0, half.rank());
      FAIL() << "rank " << c.rank() << " completed despite the stall";
    } catch (const comm::Aborted&) {
      ++aborted_ranks;
      std::lock_guard<std::mutex> lk(mu);
      if (suspects.empty()) {
        suspects = c.abort_suspects();
        reason = c.abort_reason();
      }
    }
  });
  EXPECT_EQ(aborted_ranks.load(), 2);
  EXPECT_EQ(suspects, (std::vector<int>{3}));
  EXPECT_NE(reason.find("rank 3 stalled in split ticket"), std::string::npos)
      << reason;
}

// ----- fault injection -------------------------------------------------------

TEST(Fault, KillAtPostUnwindsRankAndAbortsPeers) {
  std::atomic<int> killed{0};
  std::atomic<int> aborted{0};
  std::atomic<int> completed_posts{0};
  run_ranks(3, [&](Communicator& c) {
    auto injector = std::make_shared<comm::FaultInjector>(comm::FaultPlan{
        0, {comm::FaultEvent::kill_at_post(1, 2)}});
    if (c.rank() == 0) c.install_fault_injector(injector);
    c.barrier();
    Tensor t = Tensor::ones({4});
    try {
      for (int i = 0; i < 10; ++i) {
        c.all_reduce(t);
        if (c.rank() == 1) ++completed_posts;
      }
      FAIL() << "rank " << c.rank() << " survived the kill plan";
    } catch (const comm::RankKilled& e) {
      EXPECT_EQ(e.global_rank(), 1);
      EXPECT_EQ(c.rank(), 1);
      ++killed;
    } catch (const comm::Aborted&) {
      ++aborted;
    }
  });
  EXPECT_EQ(killed.load(), 1);
  EXPECT_EQ(aborted.load(), 2);
  // The kill triggers on rank 1's third post (after_posts == 2): exactly
  // two collectives completed before it.
  EXPECT_EQ(completed_posts.load(), 2);
}

TEST(Fault, CorruptionIsDeterministicAcrossRuns) {
  auto run_once = [&](bool corrupt) {
    std::vector<float> result(8);
    run_ranks(2, [&](Communicator& c) {
      if (corrupt) {
        auto injector = std::make_shared<comm::FaultInjector>(comm::FaultPlan{
            7, {comm::FaultEvent::corrupt_at_post(0, 1)}});
        if (c.rank() == 0) c.install_fault_injector(injector);
      }
      c.barrier();
      Tensor t = Tensor::full({8}, 1.5f);
      c.all_reduce(t);  // post 0: clean
      c.all_reduce(t);  // post 1: rank 0's contribution corrupted
      if (c.rank() == 0) {
        for (int i = 0; i < 8; ++i) result[static_cast<size_t>(i)] = t[i];
      }
    });
    return result;
  };
  const auto clean = run_once(false);
  const auto faulted1 = run_once(true);
  const auto faulted2 = run_once(true);
  EXPECT_NE(clean, faulted1);     // the corruption changed the result...
  EXPECT_EQ(faulted1, faulted2);  // ...identically on every replay
}

TEST(Fault, SlowRankDelaysWithoutChangingResults) {
  auto run_once = [&](bool slow) {
    std::vector<float> result(4);
    run_ranks(3, [&](Communicator& c) {
      if (slow && c.rank() == 0) {
        auto injector = std::make_shared<comm::FaultInjector>(comm::FaultPlan{
            0, {comm::FaultEvent::slow_rank(2, 1, 0.01, 4)}});
        c.install_fault_injector(injector);
      }
      c.barrier();
      Tensor t = Tensor::full({4}, static_cast<float>(c.rank() + 1));
      for (int i = 0; i < 6; ++i) c.all_reduce(t, ReduceOp::kAvg);
      if (c.rank() == 0) {
        for (int i = 0; i < 4; ++i) result[static_cast<size_t>(i)] = t[i];
      }
    });
    return result;
  };
  // A slow rank stretches wall time but must be bitwise invisible in the
  // data (rank-ordered reductions don't depend on arrival order).
  EXPECT_EQ(run_once(false), run_once(true));
}

TEST(Fault, StallAtPostIsCaughtByWatchdog) {
  std::atomic<int> aborted{0};
  std::vector<int> suspects;
  std::mutex mu;
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 0) {
      auto injector = std::make_shared<comm::FaultInjector>(comm::FaultPlan{
          0, {comm::FaultEvent::stall_at_post(1, 3, 2.0)}});
      c.install_fault_injector(injector);
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.4;
      c.start_watchdog(opts);
    }
    c.barrier();
    Tensor t = Tensor::ones({4});
    try {
      for (int i = 0; i < 10; ++i) c.all_reduce(t);
      FAIL() << "rank " << c.rank() << " completed despite the stall plan";
    } catch (const comm::Aborted&) {
      ++aborted;
      std::lock_guard<std::mutex> lk(mu);
      if (suspects.empty()) suspects = c.abort_suspects();
    }
  });
  EXPECT_EQ(aborted.load(), 3);
  EXPECT_EQ(suspects, (std::vector<int>{1}));
}

TEST(Fault, FiredTracksConsumedEvents) {
  auto injector = std::make_shared<comm::FaultInjector>(comm::FaultPlan{
      0,
      {comm::FaultEvent::corrupt_at_post(0, 0),
       comm::FaultEvent::kill_at_step(1, 99)}});
  run_ranks(2, [&](Communicator& c) {
    if (c.rank() == 0) c.install_fault_injector(injector);
    c.barrier();
    Tensor t = Tensor::ones({4});
    c.all_reduce(t);
  });
  const auto fired = injector->fired();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_TRUE(fired[0]);   // corruption consumed
  EXPECT_FALSE(fired[1]);  // the step-99 kill never triggered
}

}  // namespace
}  // namespace geofm
