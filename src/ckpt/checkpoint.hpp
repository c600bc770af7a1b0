// Fault-tolerant checkpoint/restart: sharded save, async snapshots, and
// elastic restore.
//
// Saving. Every training rank owns a Checkpointer and calls save() at a
// step boundary with its StateDesc (state.hpp) plus the run's counters
// and RNG streams. save() *stages* the described slices into host-side
// buffers (trace span `ckpt.snapshot` — the only exposed cost) and, in
// async mode, hands them to a background writer thread that serializes,
// checksums, and writes the shard (`ckpt.write`, hidden behind training
// compute); sync mode writes inline. Shards land in a hidden
// `.tmp_<stepdir>/` under the checkpoint root; an in-process coordinator
// keyed by (canonical root, step) lets the last-arriving writer publish
// the checkpoint — write manifest.txt, rename the temp dir to
// `step_NNNNNNNN/`, update `LATEST` — so a crash at any point leaves
// either the previous complete checkpoint or the new one, never a
// half-written hybrid. A save() issued while the previous write is still
// in flight blocks until it drains (`ckpt.stall`).
//
// Restoring. CheckpointReader accepts a shard file, a step directory, or
// a checkpoint root (resolved to its latest complete step). restore()
// assembles each requested slice from the stored ranges via plan_reads()
// regardless of the world size or sharding strategy that wrote them —
// the elastic-reshard path — verifying shapes (first mismatch reported
// by name), coverage, and per-record checksums.
#pragma once

#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "util/common.hpp"

namespace geofm::ckpt {

/// Bounded on-disk retention. After each publication the publishing rank
/// keeps the `keep_last` highest complete steps plus every step divisible
/// by `keep_multiple_of` (0 = no such anchors), and garbage-collects the
/// rest — atomically: a doomed `step_N/` is first renamed to a hidden
/// `.gc_step_N.tmp/` (unpublishing it in one filesystem op) and then
/// deleted, so readers racing the GC see either a complete checkpoint or
/// none, never a partial one. Disabled by default (`keep_last == 0`
/// keeps everything).
struct RetentionPolicy {
  i64 keep_last = 0;
  i64 keep_multiple_of = 0;

  bool enabled() const { return keep_last > 0; }
};

/// One rank's contribution to a directory checkpoint.
struct SaveRequest {
  std::string dir;  // checkpoint root directory
  i64 step = 0;
  int rank = 0;
  int world = 1;
  StateDesc state;  // slices alias live tensors; copied during save()
  std::map<std::string, i64> counters;     // step, epoch, seed, optim.*
  std::map<std::string, u64> rng_streams;  // named Rng states
  RetentionPolicy retention;  // applied after this save publishes
  // Degrade instead of die: a failed shard write (disk error, injected
  // IO fault) is logged and counted (`ckpt.save_failures`) and the step
  // simply never publishes — training continues and the next save gets a
  // fresh try. Off by default: an unexpected write failure surfaces on
  // the next save()/wait_idle() like any async error.
  bool tolerate_failures = false;
};

/// Per-rank checkpoint writer. Thread-compatible (one owner thread calls
/// save()/wait_idle(); the internal writer thread is managed privately).
class Checkpointer {
 public:
  /// `async` = stage at the call site, write on a background thread.
  explicit Checkpointer(bool async = true);
  /// Drains any in-flight write (absorbing its error, which was already
  /// reported if anyone called wait_idle()).
  ~Checkpointer();

  Checkpointer(const Checkpointer&) = delete;
  Checkpointer& operator=(const Checkpointer&) = delete;

  /// Stages `req` and (a)synchronously writes this rank's shard. Blocks
  /// first if a previous async write is still in flight. Rethrows a
  /// previous async write's failure.
  void save(const SaveRequest& req);

  /// Blocks until no write is in flight; rethrows an async failure.
  void wait_idle();

 private:
  struct Staged {
    std::string dir;
    i64 step = 0;
    format::ShardData shard;
    RetentionPolicy retention;
    bool tolerate = false;
    // Owns the floats the shard's records point into.
    std::vector<std::vector<float>> buffers;
  };

  Staged stage(const SaveRequest& req);
  static void write_staged(const Staged& staged);
  void writer_loop(int owner_rank);

  const bool async_;
  std::thread writer_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::unique_ptr<Staged> pending_;  // handed to the writer thread
  bool busy_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
};

/// Clears in-process save-rendezvous state for `root` and deletes any
/// leftover temporary step directories under it. Drivers call this once
/// per rank at startup, before the first save: a previous run that died
/// mid-save leaves a partial rendezvous and a hidden temp dir behind,
/// and without the reset a later run re-saving the same step could
/// publish a checkpoint mixing shards from both runs. Idempotent and
/// safe to call concurrently from every rank (no save may be in flight).
void reset_save_state(const std::string& root);

/// Applies `policy` to the complete checkpoints under `root` (the
/// publishing Checkpointer rank calls this after each publication;
/// exposed for tests and offline tools). Returns the steps removed, in
/// ascending order. No-op when the policy is disabled.
std::vector<i64> apply_retention(const std::string& root,
                                 const RetentionPolicy& policy);

/// Writes a complete single-rank checkpoint to `path` as one shard file
/// (atomically). save_checkpoint and single-process tools use this; the
/// result is readable by CheckpointReader like any directory checkpoint.
void save_file(const std::string& path, const StateDesc& state,
               const std::map<std::string, i64>& counters = {},
               const std::map<std::string, u64>& rng_streams = {});

/// Parameters-only module checkpoint: every parameter (name, full shape,
/// data) of `module` written by save_file as a single checksummed shard.
void save_checkpoint(nn::Module& module, const std::string& path);

/// Loads a save_checkpoint file (or any checkpoint holding the module's
/// parameters) into `module`. Every parameter must be present with a
/// matching full shape — the first mismatch is reported by name; extra
/// entries are ignored. Throws geofm::Error on mismatch, corruption, or
/// malformed input.
void load_checkpoint(nn::Module& module, const std::string& path);

/// A complete (manifest-bearing) published checkpoint under a root.
struct PublishedManifest {
  i64 step = -1;
  std::string dir;  // "<root>/step_NNNNNNNN"

  bool found() const { return step >= 0; }
};

/// The newest complete checkpoint under `root` — the manifest-discovery
/// primitive shared by the serving tier's reload poller, the elastic
/// supervisor's resume, and latest_step()/resolve_checkpoint(). Returns a
/// not-found result (step -1) when the root is missing or holds no
/// complete step. The LATEST pointer is a convenience for humans — this
/// scan is authoritative.
PublishedManifest latest_published_manifest(const std::string& root);

/// latest_published_manifest(root).step; -1 if none.
i64 latest_step(const std::string& root);

/// A published checkpoint located across an *ordered* source list —
/// primary publish directory first, then mirrors (e.g. the uploader's
/// destination). `source` is the index into the scanned list.
struct PublishedSource {
  i64 step = -1;
  std::string dir;  // "<sources[source]>/step_NNNNNNNN"
  std::size_t source = 0;

  bool found() const { return step >= 0; }
};

/// Scans every source with latest_published_manifest and returns the
/// complete candidates sorted newest-step-first, ties broken toward the
/// earlier (more trusted) source. Missing or empty sources contribute
/// nothing. Callers — the serving tier's reload path, the elastic
/// supervisor's resume — try candidates in order until one restores:
/// that is the checkpoint-source failover protocol, and it is why a
/// dead primary root no longer takes the consumers of its checkpoints
/// down with it.
std::vector<PublishedSource> published_sources(
    const std::vector<std::string>& sources);

/// Full integrity pass over a published step directory: manifest
/// readable, every shard header parses, every record's FNV-1a checksum
/// verifies. Throws geofm::Error naming the first problem. The serving
/// tier runs this before trusting a *mirror* manifest (the primary's
/// publication protocol already guarantees completeness; a mirror may
/// have been written by an interrupted copy), and tools can use it to
/// audit a root offline. Reads go through the io-fault seam like any
/// restore.
void verify_checkpoint_dir(const std::string& dir);

/// Resolves `path` — a shard file, a step directory, or a checkpoint
/// root — to a loadable checkpoint (file or step directory). Throws
/// geofm::Error if nothing complete is found.
std::string resolve_checkpoint(const std::string& path);

class CheckpointReader {
 public:
  /// Opens `path` (resolved via resolve_checkpoint) and reads every
  /// shard's header and record index; payloads load lazily on restore().
  explicit CheckpointReader(const std::string& path);

  /// The resolved file or step directory backing this reader.
  const std::string& location() const { return location_; }
  /// World size the checkpoint was written at.
  int saved_world() const { return world_; }

  bool has_counter(const std::string& name) const;
  i64 counter(const std::string& name, i64 fallback) const;
  bool has_rng_stream(const std::string& name) const;
  /// Throws geofm::Error if the stream was not saved.
  u64 rng_state(const std::string& name) const;

  /// Assembles every slice of `desc` from the stored ranges, verifying
  /// shapes (the first mismatching tensor is reported by name), range
  /// coverage, and record checksums. Elastic: the description's layout
  /// need not match the layout the checkpoint was written with.
  void restore(const StateDesc& desc);

 private:
  struct StoredPart {
    std::size_t file = 0;  // index into files_
    format::ShardIndexEntry entry;
    std::shared_ptr<std::vector<float>> data;  // lazy, checksum-verified
  };
  struct StoredTensor {
    std::vector<i64> shape;
    std::vector<StoredPart> parts;
  };

  const float* part_data(StoredPart& part);

  std::string location_;
  std::vector<std::string> files_;
  int world_ = 1;
  std::map<std::string, i64> counters_;
  std::map<std::string, u64> rng_;
  std::map<std::string, StoredTensor> tensors_;
};

/// Restores optimizer scalar counters ("optim.<name>") saved by
/// optimizer_scalars() into the live optimizer. Missing counters are an
/// error only if the optimizer expects them.
void restore_optimizer_scalars(const CheckpointReader& reader,
                               optim::Optimizer& optimizer);

}  // namespace geofm::ckpt
