// Flight recorder: freeze-frame evidence for failed runs.
//
// When a rank dies — watchdog abort, injected fault, comm failure, or an
// explicit request — the one-line diagnosis the watchdog prints is all a
// human gets today; the trace/metric state that explains *why* is thrown
// away with the aborted attempt. The flight recorder fixes that: the comm
// abort path freezes the last-N trace spans per rank, a full
// `MetricsRegistry` snapshot, and the in-flight op state — collectives,
// barriers and splits alike (who joined, who is missing, how long the
// oldest waiter has been stuck)
// into a pending capture, and `run_elastic` archives it as a **postmortem
// bundle** — one JSON file per recovery attempt, written atomically
// (temp + rename) next to the checkpoint directory.
//
// First capture wins: in an abort cascade (root abort recursing into
// subgroups, peers re-aborting as they unwind) only the first capture —
// the root cause — is kept until it is archived or discarded.
//
// Activation mirrors the trace recorder: disabled by default (the comm
// abort path checks one flag), enabled programmatically by the elastic
// supervisor for the duration of a run, or by `GEOFM_POSTMORTEM=dir` in
// the environment — with the env var set, every capture is additionally
// auto-archived into `dir` at capture time, so even non-elastic runs
// leave evidence.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/common.hpp"

namespace geofm::obs {

/// One op frozen mid-rendezvous: which ranks had posted and which were
/// missing when the group died. Ranks are global (root-communicator)
/// ranks, matching watchdog diagnoses and fault plans.
struct InflightOpState {
  u64 ticket = 0;
  std::string op;  // all_reduce / all_gather / reduce_scatter / broadcast /
                   // barrier / split
  int arrived = 0;
  int size = 0;
  double age_seconds = 0;  // since the first rank joined
  std::vector<int> missing;
};

/// Everything the recorder froze at abort time. `spans` holds the last-N
/// complete trace spans per rank (N = `FlightRecorder::last_n_spans()`),
/// oldest first within each rank.
struct PostmortemBundle {
  std::string kind;       // watchdog_abort | fault_kill | comm_abort | explicit
  std::string diagnosis;  // abort reason / watchdog message
  std::vector<int> suspects;  // watchdog's stalled global ranks (may be empty)
  double captured_at_seconds = 0;  // monotonic_seconds() at capture
  std::vector<InflightOpState> inflight;
  std::vector<TraceEvent> spans;
  std::vector<MetricSample> metrics;
  // Archiver-supplied context (attempt index, world size, ...), emitted
  // into the bundle's "notes" object in insertion order.
  std::vector<std::pair<std::string, std::string>> notes;
};

/// Serializes a bundle to its on-disk JSON form.
std::string bundle_to_json(const PostmortemBundle& b);

class FlightRecorder {
 public:
  static FlightRecorder& instance();

  /// Arms the recorder. `last_n_spans_per_rank` caps how many of each
  /// rank's most recent complete spans a capture keeps.
  void enable(u64 last_n_spans_per_rank = 256);
  void disable();
  /// One relaxed load (+ env init on first call) — safe on the abort path.
  bool enabled() const;
  u64 last_n_spans() const;

  /// Freezes a capture. No-op unless enabled; no-op if a capture is
  /// already pending (first capture wins — the root cause of an abort
  /// cascade). Reads the global trace recorder and metrics registry; the
  /// comm layer supplies the in-flight op state it froze *before*
  /// poisoning the ops.
  void capture(const std::string& kind, const std::string& diagnosis,
               const std::vector<int>& suspects,
               std::vector<InflightOpState> inflight);

  /// Explicit capture (kind "explicit") with no comm state — operator
  /// request or a supervisor synthesizing evidence for a failure that
  /// never reached the comm abort path.
  void capture_now(const std::string& diagnosis);

  bool has_capture() const;
  /// Copies the pending capture out (false if none) — test/tool support.
  bool peek(PostmortemBundle& out) const;
  /// Drops the pending capture (armed for the next failure).
  void discard();

  /// Writes the pending capture into `dir` as `postmortem_<seq>_<kind>.json`
  /// (atomic temp + rename; `dir` is created if missing), clears it, and
  /// returns the bundle path. Throws Error if nothing is pending or the
  /// write fails — a failed write never leaves a partial bundle behind.
  std::string archive(const std::string& dir,
                      std::vector<std::pair<std::string, std::string>> notes =
                          {});

  /// Bundles successfully archived by this process (the filename sequence).
  u64 bundles_written() const;

  /// Test seam: makes the next archive() tear after `fail_after_bytes`
  /// bytes and fail (the temp file is removed; no bundle appears).
  /// Negative disables. Deliberately separate from the checkpoint layer's
  /// IO fault seam so bundle writes never perturb recorded fault plans.
  void set_write_fault_for_test(i64 fail_after_bytes);

 private:
  FlightRecorder() = default;
};

}  // namespace geofm::obs
