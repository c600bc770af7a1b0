#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "ckpt/io_fault.hpp"
#include "ckpt/reshard.hpp"
#include "ckpt/uploader.hpp"
#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_context.hpp"

namespace geofm::ckpt {
namespace {

namespace fs = std::filesystem;

std::string canonical_or_self(const std::string& path) {
  std::error_code ec;
  fs::path p = fs::weakly_canonical(path, ec);
  return ec ? path : p.string();
}

// ----- save coordinator ------------------------------------------------------
//
// Ranks of one training process share the filesystem *and* the address
// space, so publication is coordinated in-process: the last rank whose
// shard lands for a given (root, step) finalizes the checkpoint. Keyed by
// canonical root path so distinct spellings of one directory rendezvous.

struct Rendezvous {
  int expected = 0;
  int arrived = 0;
};

std::mutex g_coord_mu;
std::map<std::string, Rendezvous>& coord_map() {
  static auto* m = new std::map<std::string, Rendezvous>();
  return *m;
}

/// Records one shard arrival; true when the caller is the last and must
/// publish the checkpoint.
bool coordinator_arrive(const std::string& root, i64 step, int world) {
  std::ostringstream key;
  key << canonical_or_self(root) << "\n" << step;
  std::lock_guard<std::mutex> lk(g_coord_mu);
  Rendezvous& rv = coord_map()[key.str()];
  if (rv.expected == 0) {
    rv.expected = world;
  } else if (rv.expected != world) {
    throw Error("conflicting world sizes saving step " +
                std::to_string(step) + " under " + root);
  }
  if (++rv.arrived < rv.expected) return false;
  coord_map().erase(key.str());
  return true;
}

std::string tmp_step_dir(const std::string& root, i64 step) {
  return (fs::path(root) / ("." + format::step_dir_name(step) + ".tmp"))
      .string();
}

/// Manifest + rename + LATEST: the atomic publication step.
void publish_checkpoint(const std::string& root, i64 step, int world) {
  const std::string tmp = tmp_step_dir(root, step);
  format::Manifest manifest;
  manifest.step = step;
  manifest.world = world;
  for (int r = 0; r < world; ++r) {
    const fs::path shard = fs::path(tmp) / format::shard_file_name(r);
    if (!fs::exists(shard)) {
      throw Error("shard missing at publication: " + shard.string());
    }
    manifest.shards.push_back(format::shard_file_name(r));
  }
  format::write_manifest(tmp, manifest);

  const fs::path final_dir = fs::path(root) / format::step_dir_name(step);
  std::error_code ec;
  fs::remove_all(final_dir, ec);  // re-saving a step replaces it
  fs::rename(tmp, final_dir, ec);
  if (ec) {
    throw Error("cannot publish checkpoint " + final_dir.string() + ": " +
                ec.message());
  }
  // Convenience pointer; latest_step()'s scan stays authoritative.
  std::ofstream latest(fs::path(root) / "LATEST", std::ios::trunc);
  latest << format::step_dir_name(step) << "\n";
}

/// Tolerated save failure: count + warn, training goes on.
void report_tolerated_failure(const std::exception_ptr& err, i64 step) {
  std::string what = "unknown error";
  try {
    std::rethrow_exception(err);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  static auto& failures =
      obs::MetricsRegistry::instance().counter("ckpt.save_failures");
  failures.add(1);
  GEOFM_WARN("checkpoint save at step " << step
                                        << " failed (tolerated): " << what);
}

}  // namespace

// ----- Checkpointer ----------------------------------------------------------

Checkpointer::Checkpointer(bool async) : async_(async) {}

Checkpointer::~Checkpointer() {
  if (writer_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    writer_.join();
  }
}

Checkpointer::Staged Checkpointer::stage(const SaveRequest& req) {
  obs::TraceScope span("ckpt.snapshot", "ckpt", "step", req.step);
  const double t0 = monotonic_seconds();
  Staged staged;
  staged.dir = req.dir;
  staged.step = req.step;
  staged.retention = req.retention;
  staged.tolerate = req.tolerate_failures;
  staged.shard.rank = req.rank;
  staged.shard.world = req.world;
  staged.shard.counters = req.counters;
  staged.shard.rng_streams = req.rng_streams;
  staged.buffers.reserve(req.state.slices.size());
  staged.shard.records.reserve(req.state.slices.size());
  for (const TensorSlice& slice : req.state.slices) {
    std::vector<float> buf(static_cast<std::size_t>(slice.data.numel()));
    std::memcpy(buf.data(), slice.data.data(),
                buf.size() * sizeof(float));
    staged.buffers.push_back(std::move(buf));
    format::ShardRecord rec;
    rec.name = slice.name;
    rec.shape = slice.shape;
    rec.begin = slice.begin;
    rec.len = slice.data.numel();
    rec.data = staged.buffers.back().data();
    staged.shard.records.push_back(std::move(rec));
  }
  static auto& snap = obs::MetricsRegistry::instance().histogram(
      "ckpt.snapshot_seconds");
  snap.observe(monotonic_seconds() - t0);
  return staged;
}

void Checkpointer::write_staged(const Staged& staged) {
  obs::TraceScope span("ckpt.write", "ckpt", "step", staged.step);
  const double t0 = monotonic_seconds();
  const std::string tmp = tmp_step_dir(staged.dir, staged.step);
  const std::string path =
      (fs::path(tmp) / format::shard_file_name(staged.shard.rank)).string();
  // Storage-path fault seam: a failed write throws before any bytes land;
  // a torn write lands a truncated shard in the hidden temp dir and then
  // throws — either way coordinator_arrive never runs for this rank, so
  // the step can never publish with a damaged shard in it.
  if (auto injector = io_fault_injector()) {
    const auto fault = injector->hit(comm::Seam::kWrite, staged.shard.rank);
    if (fault.any()) {
      if (fault.only(comm::FaultEvent::Kind::kIoTorn)) {
        format::write_shard_file(path, staged.shard);
        std::error_code tear_ec;
        const auto size = fs::file_size(path, tear_ec);
        if (!tear_ec) fs::resize_file(path, size / 2, tear_ec);
      }
      throw Error(fault.reason);
    }
  }
  format::write_shard_file(path, staged.shard);
  if (coordinator_arrive(staged.dir, staged.step, staged.shard.world)) {
    publish_checkpoint(staged.dir, staged.step, staged.shard.world);
    // Timeline marker (run-health report): the step became durable here.
    obs::trace_instant("ckpt.published", "ckpt");
    // Enqueue for upload *before* GC so retention sees the new step as
    // protected from the instant it is published.
    notify_checkpoint_published(staged.dir, staged.step);
    apply_retention(staged.dir, staged.retention);
  }
  i64 bytes = 0;
  for (const auto& buf : staged.buffers) {
    bytes += static_cast<i64>(buf.size() * sizeof(float));
  }
  auto& reg = obs::MetricsRegistry::instance();
  static auto& written = reg.counter("ckpt.bytes_written");
  static auto& writes = reg.counter("ckpt.shard_writes");
  static auto& write_s = reg.histogram("ckpt.write_seconds");
  written.add(static_cast<double>(bytes));
  writes.add(1);
  write_s.observe(monotonic_seconds() - t0);
}

void Checkpointer::writer_loop(int owner_rank) {
  // The writer acts for its owning rank: its spans group under that
  // rank's process track in trace exports.
  set_thread_rank(owner_rank);
  obs::set_thread_label("ckpt.writer");
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_.wait(lk, [&] { return pending_ != nullptr || stop_; });
    if (pending_ == nullptr) return;  // stop with nothing queued
    auto staged = std::move(pending_);
    pending_ = nullptr;
    lk.unlock();
    std::exception_ptr err;
    try {
      write_staged(*staged);
    } catch (...) {
      err = std::current_exception();
    }
    if (err && staged->tolerate) {
      report_tolerated_failure(err, staged->step);
      err = nullptr;
    }
    lk.lock();
    busy_ = false;
    if (err && !error_) error_ = err;
    cv_.notify_all();
    if (stop_) return;
  }
}

void Checkpointer::save(const SaveRequest& req) {
  wait_idle();
  auto staged = std::make_unique<Staged>(stage(req));
  static auto& saves = obs::MetricsRegistry::instance().counter("ckpt.saves");
  saves.add(1);
  if (!async_) {
    try {
      write_staged(*staged);
    } catch (...) {
      if (!staged->tolerate) throw;
      report_tolerated_failure(std::current_exception(), staged->step);
    }
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    pending_ = std::move(staged);
    busy_ = true;
  }
  if (!writer_.joinable()) {
    writer_ = std::thread([this, rank = req.rank] { writer_loop(rank); });
  }
  cv_.notify_all();
}

void Checkpointer::wait_idle() {
  std::unique_lock<std::mutex> lk(mu_);
  if (busy_) {
    obs::TraceScope span("ckpt.stall", "ckpt");
    static auto& stalls =
        obs::MetricsRegistry::instance().counter("ckpt.stalls");
    stalls.add(1);
    cv_.wait(lk, [&] { return !busy_; });
  }
  if (error_) {
    auto err = error_;
    error_ = nullptr;
    std::rethrow_exception(err);
  }
}

void reset_save_state(const std::string& root) {
  {
    const std::string prefix = canonical_or_self(root) + "\n";
    std::lock_guard<std::mutex> lk(g_coord_mu);
    auto& map = coord_map();
    for (auto it = map.begin(); it != map.end();) {
      if (it->first.rfind(prefix, 0) == 0) {
        it = map.erase(it);
      } else {
        ++it;
      }
    }
  }
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    const std::string name = entry.path().filename().string();
    const bool save_tmp = name.rfind(".step_", 0) == 0;
    const bool gc_tmp = name.rfind(".gc_step_", 0) == 0;
    if ((save_tmp || gc_tmp) &&
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      std::error_code rm_ec;  // concurrent rank may have removed it first
      fs::remove_all(entry.path(), rm_ec);
    }
  }
}

// ----- retention -------------------------------------------------------------

std::vector<i64> apply_retention(const std::string& root,
                                 const RetentionPolicy& policy) {
  std::vector<i64> removed;
  if (!policy.enabled()) return removed;
  obs::TraceScope span("ckpt.gc", "ckpt");

  std::error_code ec;
  if (!fs::is_directory(root, ec)) return removed;
  std::vector<i64> steps;  // complete checkpoints only
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("step_", 0) != 0) continue;
    const std::string digits = name.substr(5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    if (!fs::exists(entry.path() / "manifest.txt")) continue;
    steps.push_back(static_cast<i64>(std::stoll(digits)));
  }
  std::sort(steps.begin(), steps.end());

  const std::size_t n = steps.size();
  const std::size_t keep_from =
      n > static_cast<std::size_t>(policy.keep_last)
          ? n - static_cast<std::size_t>(policy.keep_last)
          : 0;
  for (std::size_t i = 0; i < keep_from; ++i) {
    const i64 step = steps[i];
    if (policy.keep_multiple_of > 0 && step % policy.keep_multiple_of == 0) {
      continue;  // anchor checkpoint
    }
    if (uploader_protects(root, step)) {
      // Queued, mid-upload, or the newest step the secondary location
      // holds — the recovery anchor if the primary root is lost.
      continue;
    }
    // Atomic unpublish: rename out of the step_* namespace first, so a
    // reader that races the (non-atomic) recursive delete never opens a
    // half-deleted checkpoint.
    const fs::path published = fs::path(root) / format::step_dir_name(step);
    const fs::path doomed =
        fs::path(root) / (".gc_" + format::step_dir_name(step) + ".tmp");
    std::error_code gc_ec;
    fs::remove_all(doomed, gc_ec);  // leftover from an interrupted GC
    fs::rename(published, doomed, gc_ec);
    if (gc_ec) continue;  // lost a race with another GC pass; keep going
    fs::remove_all(doomed, gc_ec);
    removed.push_back(step);
  }
  if (!removed.empty()) {
    static auto& gc_removed =
        obs::MetricsRegistry::instance().counter("ckpt.retention_removed");
    gc_removed.add(static_cast<double>(removed.size()));
  }
  return removed;
}

// ----- single-file save ------------------------------------------------------

void save_file(const std::string& path, const StateDesc& state,
               const std::map<std::string, i64>& counters,
               const std::map<std::string, u64>& rng_streams) {
  obs::TraceScope span("ckpt.save_file", "ckpt");
  format::ShardData shard;
  shard.rank = 0;
  shard.world = 1;
  shard.counters = counters;
  shard.rng_streams = rng_streams;
  // Slices alias live tensors whose storage is contiguous; no staging
  // copy is needed for a synchronous single-file write.
  shard.records.reserve(state.slices.size());
  for (const TensorSlice& slice : state.slices) {
    format::ShardRecord rec;
    rec.name = slice.name;
    rec.shape = slice.shape;
    rec.begin = slice.begin;
    rec.len = slice.data.numel();
    rec.data = slice.data.data();
    shard.records.push_back(std::move(rec));
  }
  format::write_shard_file(path, shard);
}

void save_checkpoint(nn::Module& module, const std::string& path) {
  save_file(path, replicated_state(module, /*optimizer=*/nullptr, /*rank=*/0,
                                   /*world=*/1, /*for_save=*/true));
}

void load_checkpoint(nn::Module& module, const std::string& path) {
  CheckpointReader reader(path);
  reader.restore(replicated_state(module, /*optimizer=*/nullptr, /*rank=*/0,
                                  /*world=*/1, /*for_save=*/false));
}

// ----- resolution ------------------------------------------------------------

PublishedManifest latest_published_manifest(const std::string& root) {
  PublishedManifest latest;
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return latest;
  for (const auto& entry : fs::directory_iterator(root, ec)) {
    if (!entry.is_directory()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("step_", 0) != 0) continue;
    const std::string digits = name.substr(5);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    if (!fs::exists(entry.path() / "manifest.txt")) continue;  // incomplete
    const i64 step = static_cast<i64>(std::stoll(digits));
    if (step > latest.step) {
      latest.step = step;
      latest.dir = entry.path().string();
    }
  }
  return latest;
}

i64 latest_step(const std::string& root) {
  return latest_published_manifest(root).step;
}

std::vector<PublishedSource> published_sources(
    const std::vector<std::string>& sources) {
  std::vector<PublishedSource> out;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].empty()) continue;
    const PublishedManifest latest = latest_published_manifest(sources[i]);
    if (!latest.found()) continue;
    PublishedSource cand;
    cand.step = latest.step;
    cand.dir = latest.dir;
    cand.source = i;
    out.push_back(std::move(cand));
  }
  // Newest step first; on a tie the earlier source wins (a mirror is
  // only consulted when it is strictly ahead of — or the primary lacks —
  // that step).
  std::stable_sort(out.begin(), out.end(),
                   [](const PublishedSource& a, const PublishedSource& b) {
                     return a.step > b.step;
                   });
  return out;
}

void verify_checkpoint_dir(const std::string& dir) {
  const format::Manifest manifest = format::read_manifest(dir);
  for (const std::string& shard : manifest.shards) {
    const std::string path = (fs::path(dir) / shard).string();
    // Same seam as restore reads: a verification pass is a read of every
    // record, and injected unreadable/torn faults must be able to hit it.
    if (auto injector = io_fault_injector()) {
      const auto fault = injector->hit(comm::Seam::kRead, this_thread_rank());
      if (fault.any()) throw Error(fault.reason + " verifying " + path);
    }
    const format::ShardHeader header = format::read_shard_header(path);
    for (const format::ShardIndexEntry& entry : header.records) {
      format::read_shard_record(path, entry);  // throws on bad checksum
    }
  }
}

std::string resolve_checkpoint(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return path;
  if (fs::is_directory(path, ec)) {
    if (fs::exists(fs::path(path) / "manifest.txt")) return path;
    const PublishedManifest latest = latest_published_manifest(path);
    if (latest.found()) return latest.dir;
    throw Error("no complete checkpoint found under " + path);
  }
  throw Error("checkpoint path does not exist: " + path);
}

// ----- CheckpointReader ------------------------------------------------------

CheckpointReader::CheckpointReader(const std::string& path)
    : location_(resolve_checkpoint(path)) {
  obs::TraceScope span("ckpt.open", "ckpt");
  std::error_code ec;
  if (fs::is_regular_file(location_, ec)) {
    files_.push_back(location_);
  } else {
    const format::Manifest manifest = format::read_manifest(location_);
    world_ = manifest.world;
    for (const std::string& shard : manifest.shards) {
      files_.push_back((fs::path(location_) / shard).string());
    }
  }
  for (std::size_t f = 0; f < files_.size(); ++f) {
    format::ShardHeader header = format::read_shard_header(files_[f]);
    if (files_.size() == 1) {
      world_ = header.world;
    } else if (header.world != world_) {
      throw Error("shard " + files_[f] + " claims world " +
                  std::to_string(header.world) + ", manifest says " +
                  std::to_string(world_));
    }
    // Counters and RNG streams are replicated into every shard; merging
    // keeps any one shard sufficient to recover them.
    for (const auto& [name, value] : header.counters) {
      counters_[name] = value;
    }
    for (const auto& [name, state] : header.rng_streams) {
      rng_[name] = state;
    }
    for (format::ShardIndexEntry& entry : header.records) {
      StoredTensor& tensor = tensors_[entry.name];
      if (tensor.parts.empty()) {
        tensor.shape = entry.shape;
      } else if (tensor.shape != entry.shape) {
        throw Error("inconsistent shapes for " + entry.name +
                    " across shards of " + location_);
      }
      tensor.parts.push_back({f, std::move(entry), nullptr});
    }
  }
}

bool CheckpointReader::has_counter(const std::string& name) const {
  return counters_.count(name) != 0;
}

i64 CheckpointReader::counter(const std::string& name, i64 fallback) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? fallback : it->second;
}

bool CheckpointReader::has_rng_stream(const std::string& name) const {
  return rng_.count(name) != 0;
}

u64 CheckpointReader::rng_state(const std::string& name) const {
  auto it = rng_.find(name);
  if (it == rng_.end()) {
    throw Error("checkpoint has no RNG stream '" + name + "': " + location_);
  }
  return it->second;
}

const float* CheckpointReader::part_data(StoredPart& part) {
  if (part.data == nullptr) {
    if (auto injector = io_fault_injector()) {
      const auto fault = injector->hit(comm::Seam::kRead, this_thread_rank());
      if (fault.any()) {
        throw Error(fault.reason + " reading " + files_[part.file]);
      }
    }
    part.data = std::make_shared<std::vector<float>>(
        format::read_shard_record(files_[part.file], part.entry));
  }
  return part.data->data();
}

void CheckpointReader::restore(const StateDesc& desc) {
  obs::TraceScope span("ckpt.restore", "ckpt");
  for (const TensorSlice& slice : desc.slices) {
    auto it = tensors_.find(slice.name);
    if (it == tensors_.end()) {
      throw Error("checkpoint is missing tensor " + slice.name + ": " +
                  location_);
    }
    StoredTensor& stored = it->second;
    if (stored.shape != slice.shape) {
      auto shape_str = [](const std::vector<i64>& s) {
        std::ostringstream os;
        os << "[";
        for (std::size_t i = 0; i < s.size(); ++i) {
          os << (i ? ", " : "") << s[i];
        }
        os << "]";
        return os.str();
      };
      throw Error("shape mismatch for " + slice.name + ": checkpoint has " +
                  shape_str(stored.shape) + ", model expects " +
                  shape_str(slice.shape));
    }
    std::vector<Range> ranges;
    ranges.reserve(stored.parts.size());
    for (const StoredPart& part : stored.parts) {
      ranges.push_back({part.entry.begin, part.entry.len});
    }
    std::vector<RangeCopy> plan;
    try {
      plan = plan_reads(ranges, slice.begin, slice.data.numel());
    } catch (const Error& e) {
      throw Error(std::string("restoring ") + slice.name + ": " + e.what());
    }
    Tensor target = slice.data;  // aliases the slice's (shared) storage
    float* dst = target.data();
    for (const RangeCopy& copy : plan) {
      const float* src = part_data(stored.parts[copy.source]);
      std::memcpy(dst + copy.dst_offset, src + copy.src_offset,
                  static_cast<std::size_t>(copy.len) * sizeof(float));
    }
  }
}

void restore_optimizer_scalars(const CheckpointReader& reader,
                               optim::Optimizer& optimizer) {
  for (const auto& scalar : optimizer.state_view().scalars) {
    const std::string name = "optim." + std::string(scalar.name);
    if (!reader.has_counter(name)) {
      throw Error("checkpoint is missing optimizer counter " + name);
    }
    *scalar.value = reader.counter(name, 0);
  }
}

}  // namespace geofm::ckpt
