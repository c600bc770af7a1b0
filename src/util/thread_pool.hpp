// A persistent worker pool with a blocking parallel_for, in the OpenMP
// "parallel for" idiom: the caller thread participates, work is split into
// contiguous index ranges, and the call returns only when every range is
// done. Used by the tensor kernels.
//
// Kernel thread budgets: the process owns `process_thread_budget()` kernel
// threads (GEOFM_NUM_THREADS, else the hardware concurrency). A thread
// outside any rank world runs its parallel regions on the process-global
// pool. A communicator rank thread of a W-rank world owns its share of the
// process instead: `rank_thread_budget(W) = max(1, total / W)` threads,
// installed by a `RankThreadBudget` scope where the rank thread starts
// (`comm::run_ranks`, each `train::run_elastic` attempt). Its regions run on
// a private pool of budget - 1 workers, or inline when the budget is 1, so
// thread ranks never race each other for the global pool. A W=1 world's
// rank keeps the whole process and runs on the global pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace geofm {

class ThreadPool {
 public:
  /// Creates `n_workers` persistent threads. n_workers == 0 means run
  /// everything inline on the caller (useful for debugging).
  explicit ThreadPool(int n_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int n_workers() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(begin, end) over disjoint subranges of [0, n) across the pool
  /// plus the calling thread; blocks until all subranges complete.
  /// Exceptions thrown by fn propagate to the caller (first one wins).
  ///
  /// `grain` is a minimum chunk size hint: no dispatched subrange is
  /// smaller than `grain` indices (except the final remainder), and when
  /// n <= grain the whole range runs inline on the caller — the
  /// single-chunk bypass — without touching the dispatch lock, so small
  /// kernels don't pay fan-out overhead. grain == 0 keeps the legacy
  /// heuristic (inline below 512 indices, ~4 chunks per participant).
  void parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                    i64 grain = 0);

  /// Process-wide pool of process_thread_budget() - 1 workers; created on
  /// first use.
  static ThreadPool& global();

  /// The pool the calling thread's parallel regions run on: its rank's
  /// pool under a RankThreadBudget (a pool worker: the pool it belongs
  /// to), else global().
  static ThreadPool& current();

 private:
  struct Task {
    const std::function<void(i64, i64)>* fn = nullptr;
    i64 n = 0;
    i64 chunk = 0;
    std::atomic<i64> next_index{0};
    std::atomic<int> remaining{0};
  };

  void worker_loop();
  static void run_chunks(Task& task);

  std::vector<std::thread> threads_;
  std::mutex dispatch_mu_;  // serializes parallel regions; busy => inline
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Task* current_ = nullptr;
  u64 generation_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// Kernel threads the whole process may use: GEOFM_NUM_THREADS when set
/// (values below 1 mean 1), else std::thread::hardware_concurrency().
int process_thread_budget();

/// Kernel threads one rank of a `world_size`-rank thread world may use:
/// max(1, process_thread_budget() / world_size).
int rank_thread_budget(int world_size);

/// Gives the calling rank thread its kernel thread budget for the scope's
/// lifetime: rank_thread_budget(world_size) threads, as a private pool of
/// budget - 1 workers (inline when the budget is 1). A one-rank world
/// keeps the global pool. The previous assignment is restored on exit, so
/// a persistent thread can take a new scope per world it joins.
class RankThreadBudget {
 public:
  explicit RankThreadBudget(int world_size);
  ~RankThreadBudget();

  RankThreadBudget(const RankThreadBudget&) = delete;
  RankThreadBudget& operator=(const RankThreadBudget&) = delete;

 private:
  std::unique_ptr<ThreadPool> pool_;  // null: the global pool
  ThreadPool* outer_;
};

/// Kernel threads the calling thread's parallel regions may use:
/// ThreadPool::current().n_workers() + 1.
int kernel_threads();

/// Convenience wrapper over ThreadPool::current(). `grain` as in
/// ThreadPool::parallel_for: minimum chunk size, n <= grain runs inline.
void parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                  i64 grain = 0);

}  // namespace geofm
