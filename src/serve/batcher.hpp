// Dynamic request batcher with admission control: coalesces concurrent
// embedding requests into bounded batches for one shared encoder
// forward, and sheds work it cannot serve in time instead of queueing
// it forever.
//
// Callers submit() from any thread and get a future; the single batch
// worker calls next_batch(), which blocks until at least one request is
// queued and then returns up to `max_batch` requests — immediately when
// the batch is full, otherwise once the *oldest* queued request has
// waited `max_delay_us`. The two knobs trade latency against throughput:
// max_delay_us = 0 ships whatever is queued the moment the worker is
// free (lowest latency), larger values hold the door open so sparse
// traffic still fills batches (highest encoder utilization).
//
// Overload discipline — the batcher never blocks a submitter and never
// lets the queue grow without bound:
//
//   * Bounded admission (`max_queue` > 0) under one displacement order,
//     lane first, tenant load (queued/weight over both lanes) second:
//     when the queue is full after the expired sweep, the victim is the
//     youngest request, in the lowest lane holding anything, of that
//     lane's most-loaded tenant (ties break by name). A higher-lane
//     arrival displaces it; a same-lane arrival only when its tenant is
//     another one whose (queued+1)/weight is below the victim's. Else the
//     arrival itself sheds. The loser's future gets a typed `Overloaded`
//     — shedding is a *result*, not control flow: submit() neither
//     blocks nor throws for load conditions.
//   * Deadlines (`EmbedRequest::deadline_us`, relative to submit; 0 =
//     none): a request that expires while queued is completed with
//     `DeadlineExceeded` at the next queue touch and never reaches the
//     encoder; a request that *cannot* meet its deadline even if
//     admitted — the EWMA of recent batch service times says the queue
//     ahead of it takes longer than its whole budget — is rejected
//     up front with `DeadlineExceeded` (fail fast beats queue-then-expire).
//
// Every shed (full, displaced, expired, hopeless, shutdown) takes one
// path: one stats bump, one `serve.shed_*` counter add, one typed
// exception, and for overload and deadline sheds one trace instant.
//
// Shutdown: close() stops admission (later submits resolve with
// `ShutdownError`) but next_batch() keeps returning queued work until
// the queue drains, then returns empty. If the batcher is destroyed
// with requests still queued (no worker draining), every queued promise
// is completed with `ShutdownError` — an accepted request's future is
// never dropped unresolved.
#pragma once

#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/common.hpp"

namespace geofm::serve {

// Typed serving failures. Callers distinguish shed-able conditions (back
// off, retry elsewhere, degrade) from programming errors by type; all
// three derive from geofm::Error so existing catch sites keep working.
class Overloaded : public Error {
 public:
  explicit Overloaded(const std::string& what) : Error(what) {}
};
class DeadlineExceeded : public Error {
 public:
  explicit DeadlineExceeded(const std::string& what) : Error(what) {}
};
class ShutdownError : public Error {
 public:
  explicit ShutdownError(const std::string& what) : Error(what) {}
};
/// The server is running without loadable weights (cache-only mode):
/// cache hits are still answered, everything else is shed with this.
class Degraded : public Error {
 public:
  explicit Degraded(const std::string& what) : Error(what) {}
};

/// Admission lane. Interactive requests batch ahead of bulk ones and
/// outrank them in the displacement order when the queue is full.
enum class Lane : unsigned char { kBulk = 0, kInteractive = 1 };

/// One embedding request. `image` is a single [C,H,W] scene.
struct EmbedRequest {
  std::string key;     // cache/identity key; empty = never cached
  Tensor image;        // [C,H,W], matching the served model's config
  std::string tenant;  // optional: apply this tenant's head to the result
  i64 deadline_us = 0;  // latency budget from submit; 0 = no deadline
  Lane lane = Lane::kBulk;
};

struct EmbedResult {
  Tensor embedding;     // [width]
  Tensor logits;        // [classes], defined iff a tenant head was applied
  i64 model_step = -1;  // checkpoint step of the weights that served this
  i64 model_epoch = 0;  // swap generation (constant across one batch)
  i64 batch_size = 0;   // encoder batch this rode in; 0 = served from cache
  bool cache_hit = false;
  bool degraded = false;  // served from cache while no weights are loadable
};

/// A queued request: what the caller sent plus the promise the batch
/// worker fulfills and the submit/expiry timestamps.
struct PendingRequest {
  EmbedRequest request;
  std::promise<EmbedResult> promise;
  u64 submitted_ns = 0;
  u64 deadline_ns = 0;  // absolute monotonic_ns expiry; 0 = none
};

struct BatcherOptions {
  i64 max_batch = 8;
  i64 max_delay_us = 1000;
  i64 max_queue = 0;  // queued-request bound across both lanes; 0 = unbounded
  /// Per-tenant weights, the second key of the displacement order. A
  /// tenant absent from the map weighs 1.0; only ratios matter (queue
  /// slots split by weight among tenants with pending demand).
  std::map<std::string, double> tenant_weights = {};
};

/// Shed/queue accounting (also mirrored into serve.* metrics).
struct BatcherStats {
  i64 submitted = 0;       // admitted requests
  i64 shed_overload = 0;   // rejected or displaced: queue full
  i64 shed_deadline = 0;   // expired in queue or hopeless at admission
  i64 shed_shutdown = 0;   // completed with ShutdownError
  i64 shed_fair_share = 0;  // of shed_overload: displaced by an arrival
                            // that outranked it
};

class RequestBatcher {
 public:
  explicit RequestBatcher(BatcherOptions opts);

  /// Completes any still-queued request with ShutdownError.
  ~RequestBatcher();

  RequestBatcher(const RequestBatcher&) = delete;
  RequestBatcher& operator=(const RequestBatcher&) = delete;

  /// Queues `req`; never blocks and never throws for load or lifecycle
  /// conditions — an un-admittable request's future resolves immediately
  /// with a typed error (Overloaded / DeadlineExceeded / ShutdownError).
  std::future<EmbedResult> submit(EmbedRequest req);

  /// Blocks until a batch is ready (see header comment) and pops it,
  /// interactive lane first. Expired requests are shed, not returned.
  /// Empty result = closed and fully drained; the worker should exit.
  std::vector<PendingRequest> next_batch();

  /// Feeds the admission estimator: observed wall seconds for one batch
  /// (encode + fulfillment). The batch worker calls this per batch.
  void record_batch_seconds(double seconds);

  /// Stops admission and wakes the worker. Queued requests still drain.
  void close();

  bool closed() const;
  i64 pending() const;
  BatcherStats stats() const;
  const BatcherOptions& options() const { return opts_; }

 private:
  using Queue = std::deque<PendingRequest>;
  enum class Shed : unsigned char {
    kFull,       // queue full, the arrival ranks lowest
    kDisplaced,  // queued, displaced by an arrival that outranked it
    kExpired,    // deadline passed while queued
    kHopeless,   // deadline cannot be met by the queue ahead
    kShutdown,   // submitted after close() or queued at destruction
  };
  using ShedList = std::vector<std::pair<PendingRequest, Shed>>;

  // All *_locked helpers require mu_ held. shed_locked() does the stats
  // half of a shed; complete() does the rest after the lock drops
  // (set_exception can wake waiters).
  i64 pending_locked() const;
  void shed_locked(PendingRequest p, Shed why, ShedList* sheds);
  void shed_expired_locked(u64 now_ns, ShedList* sheds);
  /// Why `incoming` is refused, or nullopt to admit it; may shed queued
  /// requests (expired ones, then the displacement victim) to make room.
  std::optional<Shed> refusal_locked(const PendingRequest& incoming,
                                     ShedList* sheds);
  /// Sheds the queued request `incoming` outranks; false if none.
  bool displace_locked(const PendingRequest& incoming, ShedList* sheds);
  static void complete(ShedList& sheds);

  const BatcherOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  Queue lanes_[2];  // index by static_cast<int>(Lane)
  double ewma_batch_seconds_ = 0;  // 0 = no observation yet
  BatcherStats stats_;
  bool closed_ = false;
};

}  // namespace geofm::serve
