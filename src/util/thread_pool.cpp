#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <utility>

namespace geofm {
namespace {

// The pool this thread's parallel regions run on; null means global().
thread_local ThreadPool* t_pool = nullptr;

// The pool whose region this thread is running as its caller (and so
// holds that pool's dispatch lock); null outside any region.
thread_local const ThreadPool* t_dispatching = nullptr;

}  // namespace

ThreadPool::ThreadPool(int n_workers) {
  GEOFM_CHECK(n_workers >= 0);
  threads_.reserve(static_cast<size_t>(n_workers));
  for (int i = 0; i < n_workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_chunks(Task& task) {
  for (;;) {
    const i64 begin = task.next_index.fetch_add(task.chunk);
    if (begin >= task.n) break;
    const i64 end = std::min<i64>(begin + task.chunk, task.n);
    (*task.fn)(begin, end);
  }
}

void ThreadPool::worker_loop() {
  // A region nested inside one of this pool's chunks finds the pool busy
  // and runs inline, never spilling onto another pool.
  t_pool = this;
  u64 seen = 0;
  for (;;) {
    Task* task = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      task = current_;
    }
    if (task == nullptr) continue;
    try {
      run_chunks(*task);
    } catch (...) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    if (task->remaining.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lk(mu_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::parallel_for(i64 n, const std::function<void(i64, i64)>& fn,
                              i64 grain) {
  GEOFM_CHECK(grain >= 0, "parallel_for grain must be non-negative");
  if (n <= 0) return;
  const int workers = n_workers();
  // Single-chunk bypass: loops at or below the grain (or the legacy 512
  // threshold when no grain is given) never pay dispatch or fan-out cost.
  if (workers == 0 || (grain > 0 ? n <= grain : n < 512)) {
    fn(0, n);
    return;
  }

  // Only one parallel region may own the pool at a time. Concurrent or
  // nested callers degrade gracefully to inline execution. Rank threads
  // never meet here: each runs on its own RankThreadBudget pool. A region
  // nested in the caller's own chunk runs inline before it could try_lock
  // the dispatch lock this thread holds (undefined for std::mutex).
  std::unique_lock<std::mutex> dispatch(dispatch_mu_, std::defer_lock);
  if (t_dispatching == this || !dispatch.try_lock()) {
    fn(0, n);
    return;
  }

  Task task;
  task.fn = &fn;
  task.n = n;
  // Aim for ~4 chunks per participant for dynamic balance without
  // excessive atomics traffic, but never carve chunks below the grain.
  task.chunk = std::max<i64>(std::max<i64>(1, grain),
                             n / (static_cast<i64>(workers + 1) * 4));
  task.remaining.store(workers);

  {
    std::lock_guard<std::mutex> lk(mu_);
    first_error_ = nullptr;
    current_ = &task;
    ++generation_;
  }
  cv_start_.notify_all();

  // The caller participates instead of idling.
  const ThreadPool* const outer = std::exchange(t_dispatching, this);
  std::exception_ptr caller_error;
  try {
    run_chunks(task);
  } catch (...) {
    caller_error = std::current_exception();
  }
  t_dispatching = outer;

  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return task.remaining.load() == 0; });
    current_ = nullptr;
    if (caller_error) std::rethrow_exception(caller_error);
    if (first_error_) std::rethrow_exception(first_error_);
  }
}

int process_thread_budget() {
  static const int total = [] {
    if (const char* env = std::getenv("GEOFM_NUM_THREADS")) {
      return std::max(1, std::atoi(env));
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1, static_cast<int>(hw));
  }();
  return total;
}

int rank_thread_budget(int world_size) {
  GEOFM_CHECK(world_size >= 1, "rank world size must be positive");
  return std::max(1, process_thread_budget() / world_size);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(process_thread_budget() - 1);
  return pool;
}

ThreadPool& ThreadPool::current() { return t_pool ? *t_pool : global(); }

RankThreadBudget::RankThreadBudget(int world_size) : outer_(t_pool) {
  const int budget = rank_thread_budget(world_size);
  // A one-rank world owns the whole process budget: the global pool.
  if (world_size > 1) pool_ = std::make_unique<ThreadPool>(budget - 1);
  t_pool = pool_.get();
}

RankThreadBudget::~RankThreadBudget() { t_pool = outer_; }

int kernel_threads() { return ThreadPool::current().n_workers() + 1; }

void parallel_for(i64 n, const std::function<void(i64, i64)>& fn, i64 grain) {
  ThreadPool::current().parallel_for(n, fn, grain);
}

}  // namespace geofm
