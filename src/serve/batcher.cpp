#include "serve/batcher.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_context.hpp"

namespace geofm::serve {

namespace {

// EWMA smoothing for batch service time: new observations weigh 0.3 —
// reactive enough to track a hot-swap to a bigger model within a few
// batches, smooth enough that one slow batch does not shed a burst.
constexpr double kEwmaAlpha = 0.3;

struct ShedCounters {
  obs::Counter& overload;
  obs::Counter& deadline;
  obs::Counter& shutdown;
  obs::Counter& fair_share;
};

ShedCounters& shed_counters() {
  auto& reg = obs::MetricsRegistry::instance();
  static ShedCounters counters{reg.counter("serve.shed_overload"),
                               reg.counter("serve.shed_deadline"),
                               reg.counter("serve.shed_shutdown"),
                               reg.counter("serve.shed_fair_share")};
  return counters;
}

}  // namespace

RequestBatcher::RequestBatcher(BatcherOptions opts) : opts_(opts) {
  GEOFM_CHECK(opts.max_batch >= 1, "max_batch must be >= 1");
  GEOFM_CHECK(opts.max_delay_us >= 0, "max_delay_us must be >= 0");
  GEOFM_CHECK(opts.max_queue >= 0, "max_queue must be >= 0");
}

RequestBatcher::~RequestBatcher() {
  // Shutdown satellite contract: an accepted request's future is never
  // dropped. Whatever is still queued (no worker drained it) resolves
  // with a typed ShutdownError, not a broken promise.
  ShedList sheds;
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    for (Queue& lane : lanes_) {
      for (PendingRequest& p : lane) {
        shed_locked(std::move(p), Shed::kShutdown, &sheds);
      }
      lane.clear();
    }
  }
  complete(sheds);
}

i64 RequestBatcher::pending_locked() const {
  return static_cast<i64>(lanes_[0].size() + lanes_[1].size());
}

void RequestBatcher::shed_locked(PendingRequest p, Shed why,
                                 ShedList* sheds) {
  if (why == Shed::kFull || why == Shed::kDisplaced) {
    stats_.shed_overload += 1;
    stats_.shed_fair_share += why == Shed::kDisplaced ? 1 : 0;
  } else if (why == Shed::kShutdown) {
    stats_.shed_shutdown += 1;
  } else {
    stats_.shed_deadline += 1;
  }
  sheds->emplace_back(std::move(p), why);
}

void RequestBatcher::complete(ShedList& sheds) {
  ShedCounters& counters = shed_counters();
  for (auto& [p, why] : sheds) {
    std::exception_ptr error;
    if (why == Shed::kFull || why == Shed::kDisplaced) {
      counters.overload.add(1);
      if (why == Shed::kDisplaced) counters.fair_share.add(1);
      obs::trace_instant("serve.shed_overload", "serve");
      error = std::make_exception_ptr(Overloaded(
          why == Shed::kFull ? "admission queue full"
                             : "displaced by an arrival that outranked it"));
    } else if (why == Shed::kShutdown) {
      counters.shutdown.add(1);
      error = std::make_exception_ptr(
          ShutdownError("RequestBatcher: closed before the request ran"));
    } else {
      counters.deadline.add(1);
      obs::trace_instant("serve.shed_deadline", "serve");
      error = std::make_exception_ptr(DeadlineExceeded(
          why == Shed::kExpired ? "deadline expired while queued"
                                : "cannot meet deadline: the queued work "
                                  "ahead takes longer than its budget"));
    }
    p.promise.set_exception(error);
  }
  sheds.clear();
}

void RequestBatcher::shed_expired_locked(u64 now_ns, ShedList* sheds) {
  for (Queue& lane : lanes_) {
    for (auto it = lane.begin(); it != lane.end();) {
      if (it->deadline_ns != 0 && now_ns >= it->deadline_ns) {
        shed_locked(std::move(*it), Shed::kExpired, sheds);
        it = lane.erase(it);
      } else {
        ++it;
      }
    }
  }
}

bool RequestBatcher::displace_locked(const PendingRequest& incoming,
                                     ShedList* sheds) {
  // Victims come from the lowest lane holding anything; the queue is
  // full, so one lane does.
  const int low = lanes_[0].empty() ? 1 : 0;
  const int arrival = static_cast<int>(incoming.request.lane);
  if (arrival < low) return false;
  auto weight_of = [this](const std::string& tenant) {
    const auto it = opts_.tenant_weights.find(tenant);
    return it != opts_.tenant_weights.end() && it->second > 0 ? it->second
                                                              : 1.0;
  };
  struct Load {
    i64 queued = 0;       // over both lanes
    bool in_low = false;  // has a request in the victim lane
  };
  std::map<std::string, Load> load;
  for (int l = 0; l < 2; ++l) {
    for (const PendingRequest& p : lanes_[l]) {
      Load& t = load[p.request.tenant];
      t.queued += 1;
      t.in_low = t.in_low || l == low;
    }
  }
  // The victim tenant: highest queued/weight in the victim lane (strict >
  // in the map's name order makes the pick deterministic).
  const std::string* victim = nullptr;
  double victim_ratio = 0;
  for (const auto& [tenant, t] : load) {
    const double ratio = static_cast<double>(t.queued) / weight_of(tenant);
    if (t.in_low && (victim == nullptr || ratio > victim_ratio)) {
      victim = &tenant;
      victim_ratio = ratio;
    }
  }
  if (arrival == low) {
    // Same lane: only another tenant still under the victim's load wins.
    const std::string& tenant = incoming.request.tenant;
    const auto it = load.find(tenant);
    const i64 queued = it == load.end() ? 0 : it->second.queued;
    const double ratio = static_cast<double>(queued + 1) / weight_of(tenant);
    if (tenant == *victim || ratio >= victim_ratio) return false;
  }
  // The youngest victim request yields (LIFO: the oldest has waited
  // longest and ships soonest).
  Queue& lane = lanes_[low];
  for (auto it = lane.rbegin(); it != lane.rend(); ++it) {
    if (it->request.tenant == *victim) {
      shed_locked(std::move(*it), Shed::kDisplaced, sheds);
      lane.erase(std::next(it).base());
      return true;
    }
  }
  return false;
}

std::optional<RequestBatcher::Shed> RequestBatcher::refusal_locked(
    const PendingRequest& incoming, ShedList* sheds) {
  if (closed_) return Shed::kShutdown;
  // Deadline-aware admission: if the work already queued ahead takes
  // longer (by the EWMA of recent batch times) than this request's
  // whole budget, admitting it only converts a fast failure into a
  // slow one. Requests without a deadline always pass this gate.
  if (incoming.deadline_ns != 0 && ewma_batch_seconds_ > 0) {
    const double batches_ahead = static_cast<double>(
        pending_locked() / opts_.max_batch + 1);  // queue ahead + ours
    const double budget_s =
        static_cast<double>(incoming.deadline_ns - incoming.submitted_ns) *
        1e-9;
    if (batches_ahead * ewma_batch_seconds_ > budget_s) {
      return Shed::kHopeless;
    }
  }
  if (opts_.max_queue == 0 || pending_locked() < opts_.max_queue) {
    return std::nullopt;
  }
  // Make room from expired entries first: they are dead weight.
  shed_expired_locked(incoming.submitted_ns, sheds);
  if (pending_locked() < opts_.max_queue || displace_locked(incoming, sheds)) {
    return std::nullopt;
  }
  return Shed::kFull;
}

std::future<EmbedResult> RequestBatcher::submit(EmbedRequest req) {
  PendingRequest pending;
  pending.submitted_ns = monotonic_ns();
  if (req.deadline_us > 0) {
    pending.deadline_ns =
        pending.submitted_ns + static_cast<u64>(req.deadline_us) * 1000ULL;
  }
  const Lane lane = req.lane;
  pending.request = std::move(req);
  std::future<EmbedResult> fut = pending.promise.get_future();

  ShedList sheds;
  bool admitted = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (const std::optional<Shed> why = refusal_locked(pending, &sheds)) {
      shed_locked(std::move(pending), *why, &sheds);
    } else {
      lanes_[static_cast<int>(lane)].push_back(std::move(pending));
      stats_.submitted += 1;
      admitted = true;
    }
  }

  auto& reg = obs::MetricsRegistry::instance();
  static auto& submitted = reg.counter("serve.submitted");
  static auto& queue_depth = reg.gauge("serve.queue_depth");
  if (admitted) submitted.add(1);
  queue_depth.set(static_cast<double>(this->pending()));
  // A refused request's future is ready before submit returns.
  complete(sheds);
  if (admitted) cv_.notify_all();
  return fut;
}

std::vector<PendingRequest> RequestBatcher::next_batch() {
  ShedList expired;
  std::vector<PendingRequest> batch;
  {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return pending_locked() > 0 || closed_; });
      if (pending_locked() == 0) return {};  // closed and drained

      // Sweep expired entries before forming the batch: they must never
      // reach the encoder, and their futures resolve now, not after the
      // batch ahead of them computes.
      shed_expired_locked(monotonic_ns(), &expired);
      if (pending_locked() > 0 || closed_) break;
      // Everything queued had expired; resolve those and wait again.
      lk.unlock();
      complete(expired);
      lk.lock();
    }
    if (pending_locked() > 0) {
      // The oldest queued request (across lanes) anchors the delay
      // window: ship as soon as the batch is full, when that request
      // has waited long enough, or — deadline-aware — just before the
      // tightest queued deadline would expire.
      u64 oldest_ns = ~0ULL;
      u64 tightest_deadline_ns = ~0ULL;
      for (const Queue& lane : lanes_) {
        for (const PendingRequest& p : lane) {
          oldest_ns = std::min(oldest_ns, p.submitted_ns);
          if (p.deadline_ns != 0) {
            tightest_deadline_ns =
                std::min(tightest_deadline_ns, p.deadline_ns);
          }
        }
      }
      const u64 door_ns =
          oldest_ns + static_cast<u64>(opts_.max_delay_us) * 1000ULL;
      const u64 ship_ns = std::min(door_ns, tightest_deadline_ns);
      while (pending_locked() < opts_.max_batch && !closed_) {
        const u64 now = monotonic_ns();
        if (now >= ship_ns) break;
        cv_.wait_for(lk, std::chrono::nanoseconds(ship_ns - now), [&] {
          return pending_locked() >= opts_.max_batch || closed_;
        });
        if (monotonic_ns() >= ship_ns) break;
      }

      // Interactive lane drains first — the priority half of the lane
      // contract (admission displacement is the other half).
      const std::size_t take = std::min(
          static_cast<std::size_t>(pending_locked()),
          static_cast<std::size_t>(opts_.max_batch));
      batch.reserve(take);
      for (Queue* lane : {&lanes_[static_cast<int>(Lane::kInteractive)],
                          &lanes_[static_cast<int>(Lane::kBulk)]}) {
        while (batch.size() < take && !lane->empty()) {
          batch.push_back(std::move(lane->front()));
          lane->pop_front();
        }
      }
    }
  }
  complete(expired);
  static auto& queue_depth =
      obs::MetricsRegistry::instance().gauge("serve.queue_depth");
  queue_depth.set(static_cast<double>(pending()));
  return batch;
}

void RequestBatcher::record_batch_seconds(double seconds) {
  if (seconds <= 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  ewma_batch_seconds_ = ewma_batch_seconds_ == 0
                            ? seconds
                            : kEwmaAlpha * seconds +
                                  (1 - kEwmaAlpha) * ewma_batch_seconds_;
}

void RequestBatcher::close() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool RequestBatcher::closed() const {
  std::lock_guard<std::mutex> lk(mu_);
  return closed_;
}

i64 RequestBatcher::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_locked();
}

BatcherStats RequestBatcher::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace geofm::serve
