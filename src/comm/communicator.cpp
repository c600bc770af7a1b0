#include "comm/communicator.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <thread>

#include "comm/fault.hpp"
#include "comm/watchdog.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_context.hpp"
#include "util/thread_pool.hpp"

namespace geofm::comm {
namespace {

// Static span names per collective kind (trace names must be literals).
const char* post_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.post.all_reduce";
    case Kind::kAllGather: return "comm.post.all_gather";
    case Kind::kReduceScatter: return "comm.post.reduce_scatter";
    case Kind::kBroadcast: return "comm.post.broadcast";
    case Kind::kBarrier: return "comm.post.barrier";
    case Kind::kSplit: return "comm.post.split";
  }
  return "comm.post";
}

const char* wait_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.wait.all_reduce";
    case Kind::kAllGather: return "comm.wait.all_gather";
    case Kind::kReduceScatter: return "comm.wait.reduce_scatter";
    case Kind::kBroadcast: return "comm.wait.broadcast";
    case Kind::kBarrier: return "comm.wait.barrier";
    case Kind::kSplit: return "comm.wait.split";
  }
  return "comm.wait";
}

const char* execute_name(detail::PendingOp::Kind k) {
  using Kind = detail::PendingOp::Kind;
  switch (k) {
    case Kind::kAllReduce: return "comm.execute.all_reduce";
    case Kind::kAllGather: return "comm.execute.all_gather";
    case Kind::kReduceScatter: return "comm.execute.reduce_scatter";
    case Kind::kBroadcast: return "comm.execute.broadcast";
    case Kind::kBarrier: return "comm.execute.barrier";
    case Kind::kSplit: return "comm.execute.split";
  }
  return "comm.execute";
}

// Injected wire corruption: flips one mantissa bit (perturbs, never NaNs)
// of one payload element, both picked by the fault site hash.
void corrupt_payload(u64 site, float* payload, i64 count) {
  if (payload == nullptr || count <= 0) return;
  float& x = payload[site % static_cast<u64>(count)];
  u32 bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  bits ^= 1u << ((site >> 32) % 23);
  std::memcpy(&x, &bits, sizeof(bits));
}

}  // namespace

namespace detail {

const char* op_label(PendingOp::Kind k) {
  switch (k) {
    case PendingOp::Kind::kAllReduce: return "all_reduce";
    case PendingOp::Kind::kAllGather: return "all_gather";
    case PendingOp::Kind::kReduceScatter: return "reduce_scatter";
    case PendingOp::Kind::kBroadcast: return "broadcast";
    case PendingOp::Kind::kBarrier: return "barrier";
    case PendingOp::Kind::kSplit: return "split";
  }
  return "collective";
}

PendingOp::PendingOp(Kind k, ReduceOp r, int n_ranks, u64 t)
    : kind(k),
      red(r),
      n(n_ranks),
      ticket(t),
      src(static_cast<size_t>(n_ranks), nullptr),
      dst(static_cast<size_t>(n_ranks), nullptr),
      counts(static_cast<size_t>(n_ranks), 0),
      joined(static_cast<size_t>(n_ranks), 0) {}

CommGroup::CommGroup(int n)
    : size(n),
      global_ranks(static_cast<size_t>(n)),
      next_ticket(static_cast<size_t>(n), 0),
      heartbeat(std::make_unique<RankClock[]>(static_cast<size_t>(n))) {
  std::iota(global_ranks.begin(), global_ranks.end(), 0);
}

CommGroup::~CommGroup() { stop_watchdog(*this); }

// Recursively poisons a group and every subgroup split from it. The
// aborted flag is published under async_mu (post checks it there before
// inserting a new op), so no op can join the inflight map after the sweep
// below misses it.
void abort_group(CommGroup& g, const std::string& reason,
                 const char* flight_kind) {
  std::vector<std::shared_ptr<PendingOp>> ops;
  std::vector<int> suspects;
  bool first_abort = false;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (!g.aborted) {
      g.aborted = true;
      g.abort_reason = reason;
      first_abort = true;
    }
    ops.reserve(g.inflight.size());
    for (auto& [ticket, op] : g.inflight) ops.push_back(op);
    suspects = g.suspects;
  }
  // Flight recorder: the first abort of a cascade freezes the rendezvous
  // state — who joined each in-flight op, who is missing, how long the
  // oldest waiter has been stuck — *before* the poisoning below destroys
  // it. The capture itself happens after the sweep so blocked ranks are
  // released first (evidence gathering must never delay the abort).
  const bool flight =
      first_abort && obs::FlightRecorder::instance().enabled();
  std::vector<obs::InflightOpState> frozen;
  const auto now = std::chrono::steady_clock::now();
  for (auto& op : ops) {
    std::lock_guard<std::mutex> lk(op->mu);
    if (flight && !op->complete && op->arrived > 0 && op->arrived < op->n) {
      obs::InflightOpState st;
      st.ticket = op->ticket;
      st.op = op_label(op->kind);
      st.arrived = op->arrived;
      st.size = op->n;
      st.age_seconds =
          std::chrono::duration<double>(now - op->first_join_tp).count();
      for (int r = 0; r < op->n; ++r) {
        if (!op->joined[static_cast<size_t>(r)]) {
          st.missing.push_back(g.global_ranks[static_cast<size_t>(r)]);
        }
      }
      frozen.push_back(std::move(st));
    }
    if (!op->error) {
      op->error =
          std::make_exception_ptr(Aborted("communicator aborted: " + reason));
    }
    if (!op->complete) {
      op->complete = true;
      op->complete_tp = std::chrono::steady_clock::now();
    }
    op->cv.notify_all();
  }
  if (flight) {
    obs::FlightRecorder::instance().capture(flight_kind, reason, suspects,
                                            std::move(frozen));
  }
  std::vector<std::shared_ptr<CommGroup>> children;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    children.reserve(g.subgroups.size());
    for (auto& [key, sub] : g.subgroups) children.push_back(sub);
  }
  for (auto& sub : children) abort_group(*sub, reason, flight_kind);
}

namespace {

void install_injector(CommGroup& g,
                      const std::shared_ptr<FaultInjector>& injector) {
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    g.injector = injector;
  }
  std::vector<std::shared_ptr<CommGroup>> children;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    children.reserve(g.subgroups.size());
    for (auto& [key, sub] : g.subgroups) children.push_back(sub);
  }
  for (auto& sub : children) install_injector(*sub, injector);
}

// Executes a fully-joined op on the calling (last-arriving) thread. All
// reductions run in rank order into op-owned scratch, so results are
// bitwise deterministic and identical on every rank. Throws on cross-rank
// shape mismatches; the caller converts that into an op error.
void execute_op(PendingOp& op) {
  const i64 n0 = op.counts[0];
  switch (op.kind) {
    case PendingOp::Kind::kAllReduce: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "all_reduce size mismatch across ranks");
      }
      // src may alias dst (in-place), so reduce into scratch first.
      std::vector<float> scratch(static_cast<size_t>(n0), 0.f);
      for (int r = 0; r < op.n; ++r) {
        const float* s = op.src[static_cast<size_t>(r)];
        for (i64 i = 0; i < n0; ++i) scratch[static_cast<size_t>(i)] += s[i];
      }
      if (op.red == ReduceOp::kAvg) {
        const float inv = 1.f / static_cast<float>(op.n);
        for (float& v : scratch) v *= inv;
      }
      for (int r = 0; r < op.n; ++r) {
        std::copy_n(scratch.data(), n0, op.dst[static_cast<size_t>(r)]);
      }
      break;
    }
    case PendingOp::Kind::kAllGather:
    case PendingOp::Kind::kSplit: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "all_gather shard size mismatch across ranks");
      }
      for (int d = 0; d < op.n; ++d) {
        float* out = op.dst[static_cast<size_t>(d)];
        for (int r = 0; r < op.n; ++r) {
          std::copy_n(op.src[static_cast<size_t>(r)], n0,
                      out + static_cast<i64>(r) * n0);
        }
      }
      break;
    }
    case PendingOp::Kind::kReduceScatter: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "reduce_scatter input size mismatch across ranks");
      }
      GEOFM_CHECK(n0 % op.n == 0, "reduce_scatter size not divisible");
      const i64 chunk = n0 / op.n;
      std::vector<float> scratch(static_cast<size_t>(chunk));
      for (int d = 0; d < op.n; ++d) {
        const i64 offset = static_cast<i64>(d) * chunk;
        std::fill(scratch.begin(), scratch.end(), 0.f);
        for (int r = 0; r < op.n; ++r) {
          const float* s = op.src[static_cast<size_t>(r)] + offset;
          for (i64 i = 0; i < chunk; ++i) scratch[static_cast<size_t>(i)] += s[i];
        }
        if (op.red == ReduceOp::kAvg) {
          const float inv = 1.f / static_cast<float>(op.n);
          for (float& v : scratch) v *= inv;
        }
        std::copy_n(scratch.data(), chunk, op.dst[static_cast<size_t>(d)]);
      }
      break;
    }
    case PendingOp::Kind::kBroadcast: {
      for (int r = 0; r < op.n; ++r) {
        GEOFM_CHECK(op.counts[static_cast<size_t>(r)] == n0,
                    "broadcast size mismatch across ranks");
      }
      const float* root_src = op.src[static_cast<size_t>(op.root)];
      for (int d = 0; d < op.n; ++d) {
        if (d == op.root) continue;
        std::copy_n(root_src, n0, op.dst[static_cast<size_t>(d)]);
      }
      break;
    }
    case PendingOp::Kind::kBarrier:
      break;  // the rendezvous is the whole operation
  }
}

}  // namespace
}  // namespace detail

bool CollectiveHandle::test() const {
  if (!op_) return true;
  std::lock_guard<std::mutex> lk(op_->mu);
  return op_->complete;
}

void CollectiveHandle::wait(CommStats* stats) {
  if (!op_) return;
  // Unaccounted waits (no stats sink, tracing off) take the bare fast
  // path: the comm.* metrics below mirror the CommStats accounting, so
  // traffic nobody measures costs no clock reads and no shared-cache-line
  // atomics (the micro-collective benches hammer exactly this path).
  if (stats == nullptr && !obs::trace_enabled()) {
    {
      std::unique_lock<std::mutex> lk(op_->mu);
      op_->cv.wait(lk, [&] { return op_->complete; });
    }
    std::exception_ptr err = op_->error;
    op_.reset();
    if (err) std::rethrow_exception(err);
    return;
  }

  // Category "comm.exposed" marks spans whose summed duration per rank is,
  // by construction, the same quantity CommStats::exposed_wait_seconds
  // accumulates (waits called without stats are plain "comm" spans and
  // belong to no one's overlap accounting).
  obs::TraceScope span(wait_name(op_->kind),
                       stats != nullptr ? "comm.exposed" : "comm", "bytes",
                       count_ * static_cast<i64>(sizeof(float)));
  const auto t0 = std::chrono::steady_clock::now();
  bool was_complete;
  {
    std::unique_lock<std::mutex> lk(op_->mu);
    was_complete = op_->complete;
    op_->cv.wait(lk, [&] { return op_->complete; });
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double blocked = std::chrono::duration<double>(t1 - t0).count();
  if (stats != nullptr) {
    ++stats->waits;
    if (was_complete) ++stats->completed_before_wait;
    stats->exposed_wait_seconds += blocked;
    const double busy =
        std::chrono::duration<double>(op_->complete_tp - issued_).count();
    stats->busy_seconds += busy > 0 ? busy : 0;
  }
  {
    static auto& waits = obs::MetricsRegistry::instance().counter("comm.waits");
    static auto& bytes = obs::MetricsRegistry::instance().counter("comm.bytes");
    static auto& exposed =
        obs::MetricsRegistry::instance().counter("comm.exposed_wait_seconds");
    static auto& hist =
        obs::MetricsRegistry::instance().histogram("comm.wait_seconds");
    waits.add(1);
    bytes.add(static_cast<double>(count_) * sizeof(float));
    if (stats != nullptr) exposed.add(blocked);
    hist.observe(blocked);
  }
  std::exception_ptr err = op_->error;
  op_.reset();
  if (err) std::rethrow_exception(err);
}

Communicator::Communicator(std::shared_ptr<detail::CommGroup> group, int rank)
    : group_(std::move(group)), rank_(rank) {
  GEOFM_CHECK(group_ != nullptr);
  GEOFM_CHECK(rank_ >= 0 && rank_ < group_->size, "rank out of range");
}

int Communicator::global_rank() const {
  return group_->global_ranks[static_cast<size_t>(rank_)];
}

void Communicator::barrier() {
  post(detail::PendingOp::Kind::kBarrier, ReduceOp::kSum, -1, nullptr,
       nullptr, 0)
      .wait();
}

CollectiveHandle Communicator::post(detail::PendingOp::Kind kind, ReduceOp red,
                                    int root, const float* src, float* dst,
                                    i64 count) {
  using detail::PendingOp;
  auto& g = *group_;
  obs::TraceScope span(post_name(kind), "comm", "bytes",
                       count * static_cast<i64>(sizeof(float)), "ranks",
                       g.size);
  const auto issued = std::chrono::steady_clock::now();
  g.heartbeat[static_cast<size_t>(rank_)].last_ns.store(
      static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           issued.time_since_epoch())
                           .count()),
      std::memory_order_relaxed);

  std::shared_ptr<PendingOp> op;
  std::shared_ptr<FaultInjector> injector;
  u64 ticket;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.aborted) {
      throw Aborted("communicator aborted: " + g.abort_reason);
    }
    ticket = g.next_ticket[static_cast<size_t>(rank_)]++;
    // Barrier and split rendezvous never consult the injector, so a fault
    // plan's post ordinals count data collectives only.
    if (kind != PendingOp::Kind::kBarrier && kind != PendingOp::Kind::kSplit) {
      injector = g.injector;
    }
    if (!injector) {
      auto it = g.inflight.find(ticket);
      if (it == g.inflight.end()) {
        op = std::make_shared<PendingOp>(kind, red, g.size, ticket);
        g.inflight.emplace(ticket, op);
      } else {
        op = it->second;
      }
    }
  }

  if (injector) {
    // Fault boundary: may delay this rank (stall/slow), corrupt its
    // contribution in place (simulated wire corruption — the buffer is
    // plain heap storage, const only through the collective's signature),
    // or kill the rank: abort peers, then unwind.
    const int grank = g.global_ranks[static_cast<size_t>(rank_)];
    const FaultHit fault = injector->hit(Seam::kPost, grank);
    if (fault.has(FaultEvent::Kind::kCorrupt)) {
      corrupt_payload(fault.site, const_cast<float*>(src), count);
    }
    if (fault.has(FaultEvent::Kind::kKill)) {
      const std::string why =
          fault.reason + " (" + detail::op_label(kind) + ")";
      abort(why, "fault_kill");
      throw RankKilled(why, grank);
    }
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.aborted) {  // a peer may have died during our injected delay
      throw Aborted("communicator aborted: " + g.abort_reason);
    }
    auto it = g.inflight.find(ticket);
    if (it == g.inflight.end()) {
      op = std::make_shared<PendingOp>(kind, red, g.size, ticket);
      g.inflight.emplace(ticket, op);
    } else {
      op = it->second;
    }
  }

  bool execute = false;
  {
    std::lock_guard<std::mutex> lk(op->mu);
    // Join: publish buffers, detect cross-rank call mismatches (same group,
    // same ticket, different collective) without deadlocking anyone.
    if (op->kind != kind || (kind != PendingOp::Kind::kBroadcast &&
                             op->red != red)) {
      if (!op->error) {
        op->error = std::make_exception_ptr(
            Error("mismatched collective calls on communicator: ranks "
                  "disagree on the operation for the same ticket"));
      }
    }
    if (kind == PendingOp::Kind::kBroadcast) {
      if (op->root == -1) {
        op->root = root;
      } else if (op->root != root && !op->error) {
        op->error = std::make_exception_ptr(
            Error("broadcast root mismatch across ranks"));
      }
    }
    op->src[static_cast<size_t>(rank_)] = src;
    op->dst[static_cast<size_t>(rank_)] = dst;
    op->counts[static_cast<size_t>(rank_)] = count;
    if (op->arrived == 0) op->first_join_tp = issued;
    op->joined[static_cast<size_t>(rank_)] = 1;
    execute = (++op->arrived == op->n);
  }

  if (execute) {
    {
      // Fully joined: retire the ticket so the registry stays bounded.
      std::lock_guard<std::mutex> lk(g.async_mu);
      g.inflight.erase(ticket);
    }
    if (!op->error) {
      try {
        obs::TraceScope exec(execute_name(kind), "comm", "bytes",
                             count * static_cast<i64>(sizeof(float)));
        detail::execute_op(*op);
      } catch (...) {
        op->error = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lk(op->mu);
      op->complete = true;
      op->complete_tp = std::chrono::steady_clock::now();
    }
    op->cv.notify_all();
  }
  return CollectiveHandle(std::move(op), issued, count);
}

CollectiveHandle Communicator::iall_reduce(Tensor& t, ReduceOp op) {
  return post(detail::PendingOp::Kind::kAllReduce, op, -1, t.data(), t.data(),
              t.numel());
}

CollectiveHandle Communicator::iall_gather(const Tensor& shard, Tensor& out) {
  GEOFM_CHECK(out.numel() == shard.numel() * group_->size,
              "all_gather output size mismatch");
  return post(detail::PendingOp::Kind::kAllGather, ReduceOp::kSum, -1,
              shard.data(), out.data(), shard.numel());
}

CollectiveHandle Communicator::ireduce_scatter(const Tensor& in, Tensor& shard,
                                               ReduceOp op) {
  GEOFM_CHECK(in.numel() == shard.numel() * group_->size,
              "reduce_scatter size mismatch");
  return post(detail::PendingOp::Kind::kReduceScatter, op, -1, in.data(),
              shard.data(), in.numel());
}

CollectiveHandle Communicator::ibroadcast(Tensor& t, int root) {
  GEOFM_CHECK(root >= 0 && root < group_->size,
              "broadcast root out of range");
  return post(detail::PendingOp::Kind::kBroadcast, ReduceOp::kSum, root,
              t.data(), t.data(), t.numel());
}

void Communicator::all_reduce(Tensor& t, ReduceOp op) {
  iall_reduce(t, op).wait();
}

void Communicator::all_gather(const Tensor& shard, Tensor& out) {
  iall_gather(shard, out).wait();
}

void Communicator::reduce_scatter(const Tensor& in, Tensor& shard,
                                  ReduceOp op) {
  ireduce_scatter(in, shard, op).wait();
}

void Communicator::broadcast(Tensor& t, int root) {
  ibroadcast(t, root).wait();
}

void Communicator::abort(const std::string& reason,
                         const char* flight_kind) {
  obs::trace_instant("comm.abort", "comm");
  detail::abort_group(*group_, reason, flight_kind);
}

bool Communicator::aborted() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->aborted;
}

std::string Communicator::abort_reason() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->abort_reason;
}

std::vector<int> Communicator::abort_suspects() const {
  std::lock_guard<std::mutex> lk(group_->async_mu);
  return group_->suspects;
}

void Communicator::install_fault_injector(
    std::shared_ptr<FaultInjector> injector) {
  detail::install_injector(*group_, injector);
}

Communicator Communicator::split(int color, int key) {
  // (color, key) travel as floats, which hold every integer up to 2^24.
  constexpr int kExact = 1 << 24;
  GEOFM_CHECK(color >= -kExact && color <= kExact && key >= -kExact &&
                  key <= kExact,
              "split color and key must lie in [-2^24, 2^24]");
  auto& g = *group_;
  const float mine[2] = {static_cast<float>(color), static_cast<float>(key)};
  std::vector<float> all(static_cast<size_t>(2 * g.size));
  CollectiveHandle h = post(detail::PendingOp::Kind::kSplit, ReduceOp::kSum,
                            -1, mine, all.data(), 2);
  const u64 ticket = h.op_->ticket;  // the same on every rank of the split
  h.wait();

  // This color's members ordered by (key, old rank), computed locally.
  std::vector<int> ranks;
  for (int r = 0; r < g.size; ++r) {
    if (all[static_cast<size_t>(2 * r)] == mine[0]) ranks.push_back(r);
  }
  std::stable_sort(ranks.begin(), ranks.end(), [&](int a, int b) {
    return all[static_cast<size_t>(2 * a + 1)] <
           all[static_cast<size_t>(2 * b + 1)];
  });
  const int sub_rank = static_cast<int>(
      std::find(ranks.begin(), ranks.end(), rank_) - ranks.begin());

  std::shared_ptr<detail::CommGroup> sub;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    std::shared_ptr<detail::CommGroup>& slot = g.subgroups[{ticket, color}];
    if (!slot) {
      // Subgroups inherit the parent's injector and abort state and map
      // their ranks back to root identities, so fault plans and watchdog
      // diagnoses stay in world-rank terms at every level. An abort that
      // lands after this read takes split_mu to sweep the children, so it
      // sees the new entry.
      slot = std::make_shared<detail::CommGroup>(
          static_cast<int>(ranks.size()));
      for (size_t i = 0; i < ranks.size(); ++i) {
        slot->global_ranks[i] = g.global_ranks[static_cast<size_t>(ranks[i])];
      }
      std::lock_guard<std::mutex> alk(g.async_mu);
      slot->injector = g.injector;  // not yet published; no lock needed
      slot->aborted = g.aborted;
      slot->abort_reason = g.abort_reason;
    }
    sub = slot;
  }
  return Communicator(sub, sub_rank);
}

std::shared_ptr<detail::CommGroup> make_group(int n_ranks) {
  GEOFM_CHECK(n_ranks > 0);
  return std::make_shared<detail::CommGroup>(n_ranks);
}

void run_ranks(int n_ranks, const std::function<void(Communicator&)>& fn) {
  auto group = make_group(n_ranks);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n_ranks));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < n_ranks; ++r) {
    threads.emplace_back([&, r] {
      set_thread_rank(r);
      obs::set_thread_label("rank");
      RankThreadBudget budget(n_ranks);
      obs::TraceScope span("rank.run", "runtime", "world", n_ranks);
      Communicator comm(group, r);
      try {
        fn(comm);
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace geofm::comm
