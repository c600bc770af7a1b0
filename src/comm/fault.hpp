// Deterministic fault injection under the communicator.
//
// A `FaultPlan` is a seeded, declarative schedule of faults — rank kills,
// stalls, slow-rank latency, payload corruption, storage failures, loader
// faults — that a `FaultInjector` replays at six *seams*. Every event
// triggers on one `(seam, rank, ordinal)` triple:
//
//   seam      ordinal                          consulted by
//   --------  -------------------------------  ----------------------------
//   kStep     the training step                the driver's mid-step point
//   kPost     the rank's N-th collective post  Communicator::post
//   kWrite    the rank's N-th shard write      ckpt::Checkpointer
//   kRead     the rank's N-th shard read       ckpt restore / verification
//   kUpload   the uploader's N-th file copy    ckpt::Uploader
//   kRender   the global batch ordinal         data::DataLoader
//
// The post, write, read and upload ordinals are counted by the injector
// per (seam, rank) — post counts span the root group and all of its
// sub-communicators, so a post-triggered event fires at exactly the same
// collective on every run. The step and render ordinals come from the
// caller, so a watchdog re-render or a respawned worker never shifts a
// later trigger.
//
// Because thread-rank collectives execute in rank order and every trigger
// depends only on (seam, rank, ordinal), the same plan replays *bitwise*
// across runs: a corruption flips the same bit of the same element, a kill
// unwinds at the same collective, and survivors observe identical aborted
// state. That determinism is what lets the elastic recovery tests assert
// exact loss trajectories around a fault.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"

namespace geofm::comm {

/// Thrown on the rank a FaultPlan kills: the seam aborts the group (so
/// peers unblock with `Aborted`) and then throws RankKilled to unwind the
/// rank's stack — the in-process analogue of a node dying. The elastic
/// supervisor treats RankKilled ranks as dead and Aborted ranks as
/// survivors.
class RankKilled : public Error {
 public:
  RankKilled(const std::string& what, int global_rank)
      : Error(what), global_rank_(global_rank) {}
  int global_rank() const { return global_rank_; }

 private:
  int global_rank_;
};

/// Where a fault fires (see the table above).
enum class Seam { kStep, kPost, kWrite, kRead, kUpload, kRender };

/// One scheduled fault: `kind` fires on global rank `rank` (-1 = any rank;
/// storage and render seams only) at ordinal `at` of `seam`. One-shot kinds
/// fire once, when the ordinal equals `at`; windowed kinds (kSlowRank,
/// kIoFail, kIoSlow, kLoaderSlowRender) fire for every ordinal in
/// `[at, at + count)`, with `count == 0` meaning the window never ends.
/// Ranks are *global* (root-communicator) ranks; under `run_elastic` they
/// are the persistent rank identities of the initial world.
///
///   kind                 seams                 effect at the seam
///   -------------------  --------------------  ---------------------------
///   kKill                step, post            abort the group, RankKilled
///   kStall               step, post            one sleep of `seconds`
///   kSlowRank            post                  `seconds` per post (window)
///   kCorrupt             post                  flip one payload bit
///   kIoFail              write, read, upload   the op throws (window)
///   kIoTorn              write, read, upload   land half the bytes, throw
///   kIoSlow              write, read, upload   `seconds` per op (window)
///   kIoUnreadable        write, read, upload   the op throws
///   kLoaderWorkerKill    render                the rendering worker dies
///   kLoaderSlowRender    render                `seconds` per render (window)
///   kLoaderPoison        render                one sample renders non-finite
struct FaultEvent {
  enum class Kind {
    kKill,
    kStall,
    kSlowRank,
    kCorrupt,
    kIoFail,
    kIoTorn,
    kIoSlow,
    kIoUnreadable,
    kLoaderWorkerKill,
    kLoaderSlowRender,
    kLoaderPoison,
  };

  Kind kind = Kind::kKill;
  int rank = 0;
  Seam seam = Seam::kStep;
  i64 at = 0;          // trigger ordinal on `seam` (0-based)
  i64 count = 1;       // windowed kinds: ordinals hit from `at` (0 = all)
  double seconds = 0;  // kStall: sleep length; windowed delays: per ordinal

  /// True for the kinds that fire over a window of ordinals.
  bool windowed() const;

  static FaultEvent kill_at_step(int rank, i64 step) {
    return {Kind::kKill, rank, Seam::kStep, step};
  }
  static FaultEvent kill_at_post(int rank, i64 after_posts) {
    return {Kind::kKill, rank, Seam::kPost, after_posts};
  }
  static FaultEvent stall_at_step(int rank, i64 step, double seconds) {
    return {Kind::kStall, rank, Seam::kStep, step, 1, seconds};
  }
  static FaultEvent stall_at_post(int rank, i64 after_posts, double seconds) {
    return {Kind::kStall, rank, Seam::kPost, after_posts, 1, seconds};
  }
  static FaultEvent slow_rank(int rank, i64 after_posts, double seconds,
                              i64 posts_affected = 0) {
    return {Kind::kSlowRank, rank, Seam::kPost, after_posts, posts_affected,
            seconds};
  }
  static FaultEvent corrupt_at_post(int rank, i64 after_posts) {
    return {Kind::kCorrupt, rank, Seam::kPost, after_posts};
  }
  // Storage-path factories. Write faults name the saving rank; restore
  // faults may use rank -1 (whichever rank's read counter hits `after_io`
  // first — use explicit ranks when replay determinism matters); upload
  // faults always target the run's single uploader (rank 0's).
  static FaultEvent io_fail_write(int rank, i64 after_io,
                                  i64 ops_affected = 1) {
    return {Kind::kIoFail, rank, Seam::kWrite, after_io, ops_affected};
  }
  static FaultEvent io_torn_write(int rank, i64 after_io) {
    return {Kind::kIoTorn, rank, Seam::kWrite, after_io};
  }
  static FaultEvent io_slow_write(int rank, i64 after_io, double seconds,
                                  i64 ops_affected = 1) {
    return {Kind::kIoSlow, rank, Seam::kWrite, after_io, ops_affected,
            seconds};
  }
  static FaultEvent io_unreadable_at_restore(int rank, i64 after_io) {
    return {Kind::kIoUnreadable, rank, Seam::kRead, after_io};
  }
  static FaultEvent io_fail_upload(i64 after_io, i64 ops_affected = 1) {
    return {Kind::kIoFail, 0, Seam::kUpload, after_io, ops_affected};
  }
  static FaultEvent io_torn_upload(i64 after_io) {
    return {Kind::kIoTorn, 0, Seam::kUpload, after_io};
  }
  static FaultEvent io_slow_upload(i64 after_io, double seconds,
                                   i64 ops_affected = 1) {
    return {Kind::kIoSlow, 0, Seam::kUpload, after_io, ops_affected, seconds};
  }
  // Data-path factories. `batch` is the global batch ordinal (epoch *
  // batches_per_epoch + batch index) of the rank's loader; rank -1 = any.
  static FaultEvent loader_worker_kill(int rank, i64 batch) {
    return {Kind::kLoaderWorkerKill, rank, Seam::kRender, batch};
  }
  static FaultEvent loader_slow_render(int rank, i64 batch, double seconds,
                                       i64 ops_affected = 1) {
    return {Kind::kLoaderSlowRender, rank, Seam::kRender, batch, ops_affected,
            seconds};
  }
  static FaultEvent loader_poison(int rank, i64 batch) {
    return {Kind::kLoaderPoison, rank, Seam::kRender, batch};
  }
};

/// The stable spellings used by the JSON trace and campaign descriptions.
const char* kind_name(FaultEvent::Kind kind);
const char* seam_name(Seam seam);
FaultEvent::Kind kind_from_name(const std::string& name);  // throws Error
Seam seam_from_name(const std::string& name);               // throws Error

/// A seeded schedule of faults. The seed feeds corruption- and
/// poison-site selection; the event list is replayed exactly.
struct FaultPlan {
  u64 seed = 0;
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
};

/// What fired at one seam visit. Delays have already been slept inline;
/// the seam applies every other effect itself (see the kind table).
struct FaultHit {
  u32 kinds = 0;       // bit k set: FaultEvent::Kind(k) fired
  u64 site = 0;        // hash of (seed, rank, ordinal): corrupted payload
                       // bit / poisoned sample row
  std::string reason;  // describes the first kind that fired

  bool has(FaultEvent::Kind kind) const {
    return (kinds >> static_cast<int>(kind)) & 1u;
  }
  bool only(FaultEvent::Kind kind) const {
    return kinds == 1u << static_cast<int>(kind);
  }
  bool any() const { return kinds != 0; }
};

/// Thread-safe replayer of one FaultPlan. Install on a communicator with
/// `Communicator::install_fault_injector` (covers the group and all of its
/// sub-communicators) and/or hand to the training driver via
/// `DistributedPretrainConfig::fault_injector`. One injector instance holds
/// the per-(seam, rank) counters and fired state for one run (or one
/// elastic attempt); reuse across runs would shift counted triggers.
class FaultInjector {
 public:
  /// Throws Error on an event no seam acts on (e.g. kCorrupt at kWrite),
  /// a negative ordinal, count or delay, or rank -1 on the step/post seam.
  explicit FaultInjector(FaultPlan plan);

  const FaultPlan& plan() const { return plan_; }

  /// The one seam entry point. The step and render seams pass their
  /// ordinal; the counted seams (post, write, read, upload) pass none and
  /// take the next value of `rank`'s counter on `seam`. Matches every
  /// event against (seam, rank, ordinal), sleeps inline for delay kinds,
  /// and reports the rest for the caller to apply.
  FaultHit hit(Seam seam, int rank, i64 ordinal = -1);

  /// True iff the plan holds any event on `seam` — lets a seam skip its
  /// fault work (e.g. the loader's per-sample poison scan) on clean runs.
  bool has(Seam seam) const { return (seams_ >> static_cast<int>(seam)) & 1u; }

  /// fired()[i] is true once plan().events[i] has triggered. The elastic
  /// supervisor uses this to carry the un-fired remainder of a plan into
  /// the next attempt.
  std::vector<bool> fired() const;

  /// The subset of plan().events that actually fired, as a plan that
  /// replays them (same seed, same triggers). Feed to `plan_to_json` to
  /// capture a run's realized fault schedule.
  FaultPlan fired_plan() const;

 private:
  mutable std::mutex mu_;
  FaultPlan plan_;
  std::vector<bool> fired_;
  u32 seams_ = 0;  // bit s set: some event sits on Seam(s)
  std::map<std::pair<Seam, int>, i64> counters_;
};

/// Serialize a plan to a JSON trace (stable field names, doubles printed
/// round-trip exact) and parse one back, so the fault schedule realized by
/// one run — `FaultInjector::fired_plan()` — can be replayed bitwise in
/// another. Every kind round-trips exactly; malformed or out-of-range
/// input throws `Error`.
std::string plan_to_json(const FaultPlan& plan);
FaultPlan plan_from_json(const std::string& json);

}  // namespace geofm::comm
