#include "comm/watchdog.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_context.hpp"

namespace geofm::comm {
namespace detail {
namespace {

// Scan result: which global ranks stalled, and the human diagnosis.
struct StallDiagnosis {
  std::vector<int> suspects;
  std::string message;
};

// "(last heartbeat 2.1s ago)" from the rank's post-time clock; empty when
// the rank never posted (nothing to age against).
std::string heartbeat_note(const CommGroup& g, int group_rank,
                           std::chrono::steady_clock::time_point now) {
  const u64 last =
      g.heartbeat[static_cast<size_t>(group_rank)].last_ns.load(
          std::memory_order_relaxed);
  if (last == 0) return "";
  const double ago =
      std::chrono::duration<double>(
          now.time_since_epoch() - std::chrono::nanoseconds(last))
          .count();
  char buf[48];
  std::snprintf(buf, sizeof(buf), " (last heartbeat %.1fs ago)", ago);
  return buf;
}

void scan_group(CommGroup& g, double deadline,
                std::chrono::steady_clock::time_point now,
                StallDiagnosis& out) {
  std::vector<std::shared_ptr<PendingOp>> ops;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.aborted) return;
    ops.reserve(g.inflight.size());
    for (auto& [ticket, op] : g.inflight) ops.push_back(op);
  }
  std::ostringstream msg;
  for (auto& op : ops) {
    std::lock_guard<std::mutex> lk(op->mu);
    if (op->complete || op->arrived == 0 || op->arrived >= op->n) continue;
    const double age =
        std::chrono::duration<double>(now - op->first_join_tp).count();
    if (age <= deadline) continue;
    for (int r = 0; r < op->n; ++r) {
      if (op->joined[static_cast<size_t>(r)]) continue;
      const int gr = g.global_ranks[static_cast<size_t>(r)];
      out.suspects.push_back(gr);
      msg << (msg.tellp() > 0 ? "; " : "") << "rank " << gr << " stalled in "
          << op_label(op->kind) << " ticket " << op->ticket << " for ";
      char sec[32];
      std::snprintf(sec, sizeof(sec), "%.1fs", age);
      msg << sec << heartbeat_note(g, r, now);
    }
  }
  if (msg.tellp() > 0) {
    if (!out.message.empty()) out.message += "; ";
    out.message += msg.str();
  }

  std::vector<std::shared_ptr<CommGroup>> children;
  {
    std::lock_guard<std::mutex> lk(g.split_mu);
    children.reserve(g.subgroups.size());
    for (auto& [key, sub] : g.subgroups) children.push_back(sub);
  }
  for (auto& sub : children) scan_group(*sub, deadline, now, out);
}

void watchdog_loop(CommGroup& g) {
  set_thread_rank(-1);
  obs::set_thread_label("comm.watchdog");
  WatchdogState& w = *g.watchdog;
  const double deadline = w.opts.deadline_seconds;
  const double poll =
      w.opts.poll_seconds > 0 ? w.opts.poll_seconds : deadline / 4;
  std::unique_lock<std::mutex> lk(w.mu);
  for (;;) {
    if (w.cv.wait_for(lk, std::chrono::duration<double>(poll),
                      [&] { return w.stop; })) {
      return;
    }
    lk.unlock();
    StallDiagnosis d;
    scan_group(g, deadline, std::chrono::steady_clock::now(), d);
    if (!d.suspects.empty()) {
      std::sort(d.suspects.begin(), d.suspects.end());
      d.suspects.erase(std::unique(d.suspects.begin(), d.suspects.end()),
                       d.suspects.end());
      {
        std::lock_guard<std::mutex> glk(g.async_mu);
        if (g.suspects.empty()) g.suspects = d.suspects;
      }
      obs::trace_instant("watchdog.abort", "comm");
      obs::MetricsRegistry::instance().counter("comm.watchdog_aborts").add(1);
      abort_group(g, d.message, "watchdog_abort");
      return;  // the group is dead; nothing left to watch
    }
    lk.lock();
  }
}

}  // namespace

void stop_watchdog(CommGroup& g) {
  if (!g.watchdog) return;
  {
    std::lock_guard<std::mutex> lk(g.watchdog->mu);
    g.watchdog->stop = true;
  }
  g.watchdog->cv.notify_all();
  if (g.watchdog->monitor.joinable()) g.watchdog->monitor.join();
}

}  // namespace detail

void Communicator::start_watchdog(const WatchdogOptions& opts) {
  GEOFM_CHECK(opts.deadline_seconds > 0,
              "watchdog deadline must be positive");
  auto& g = *group_;
  {
    std::lock_guard<std::mutex> lk(g.async_mu);
    if (g.watchdog) return;  // first configuration wins
    g.watchdog = std::make_unique<detail::WatchdogState>();
    g.watchdog->opts = opts;
  }
  // Launched outside async_mu: the monitor's first scan takes that lock.
  g.watchdog->monitor = std::thread([&g] { detail::watchdog_loop(g); });
}

}  // namespace geofm::comm
