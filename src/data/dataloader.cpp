#include "data/dataloader.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_context.hpp"

namespace geofm::data {

DataLoader::DataLoader(const SceneDataset& dataset, Split split,
                       Options options)
    : dataset_(dataset),
      split_(split),
      options_(options),
      owner_rank_(this_thread_rank()) {
  GEOFM_CHECK(options_.batch_size > 0);
  GEOFM_CHECK(options_.n_workers >= 0);
  GEOFM_CHECK(options_.prefetch_batches >= 1);
  GEOFM_CHECK(options_.slice_offset >= 0 &&
                  (options_.slice_count < 0 ||
                   options_.slice_offset + options_.slice_count <=
                       options_.batch_size),
              "batch slice [" << options_.slice_offset << ", +"
                              << options_.slice_count
                              << ") exceeds batch size "
                              << options_.batch_size);
  GEOFM_CHECK(dataset_.size(split_) >= options_.batch_size ||
                  !options_.drop_last,
              "dataset smaller than one batch");
}

DataLoader::~DataLoader() { stop_workers(); }

i64 DataLoader::batches_per_epoch() const {
  const i64 n = dataset_.size(split_);
  return options_.drop_last ? n / options_.batch_size
                            : (n + options_.batch_size - 1) /
                                  options_.batch_size;
}

void DataLoader::start_epoch(i64 epoch, i64 first_batch) {
  GEOFM_CHECK(first_batch >= 0 && first_batch <= batches_per_epoch(),
              "first_batch " << first_batch << " out of range");
  stop_workers();

  const i64 n = dataset_.size(split_);
  permutation_.resize(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i) permutation_[static_cast<size_t>(i)] = i;
  if (options_.shuffle) {
    // Fisher–Yates keyed by (seed, epoch): every epoch a fresh, fully
    // reproducible order.
    Rng rng = Rng(options_.seed).split(0x10adULL).split(static_cast<u64>(epoch));
    for (i64 i = n - 1; i > 0; --i) {
      const i64 j = rng.uniform_int(i + 1);
      std::swap(permutation_[static_cast<size_t>(i)],
                permutation_[static_cast<size_t>(j)]);
    }
  }

  {
    std::lock_guard<std::mutex> lk(mu_);
    epoch_ = epoch;
    n_batches_ = batches_per_epoch();
    ready_.clear();
    // Resume fast-forward: skipped batches are never claimed, so no
    // render work is wasted on them.
    next_to_claim_ = first_batch;
    next_to_consume_ = first_batch;
    stopping_ = false;
    requeued_.clear();
    alive_workers_ = options_.n_workers;
    respawns_used_ = 0;
    // Spawned under the lock: a worker killed by an injected fault
    // respawns its replacement into workers_ (under mu_) while this loop
    // may still be growing the vector.
    for (int w = 0; w < options_.n_workers; ++w) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }
}

Batch DataLoader::render_batch(i64 batch_index) const {
  const i64 begin = batch_index * options_.batch_size;
  const i64 end = std::min<i64>(begin + options_.batch_size,
                                dataset_.size(split_));
  i64 lo = begin;
  i64 hi = end;
  if (options_.slice_count >= 0) {
    lo = std::min<i64>(begin + options_.slice_offset, end);
    hi = std::min<i64>(lo + options_.slice_count, end);
  }
  std::vector<i64> indices(permutation_.begin() + lo,
                           permutation_.begin() + hi);
  auto [images, labels] = dataset_.make_batch(split_, indices);
  if (options_.enable_augment) {
    const i64 per = images.numel() / images.dim(0);
    for (size_t i = 0; i < indices.size(); ++i) {
      Tensor view = images.flat_view(static_cast<i64>(i) * per, per)
                        .view({dataset_.channels(), dataset_.img_size(),
                               dataset_.img_size()});
      Rng rng = Rng(options_.seed)
                    .split(0xa06ULL)
                    .split(static_cast<u64>(epoch_))
                    .split(static_cast<u64>(indices[i]));
      view.copy_(augment(view, options_.augment, rng));
    }
  }
  Batch batch;
  batch.images = std::move(images);
  batch.labels = std::move(labels);
  batch.index = batch_index;
  batch.sample_indices = std::move(indices);
  return batch;
}

Batch DataLoader::render_batch_traced(i64 batch_index) const {
  obs::TraceScope span("loader.render", "loader", "batch", batch_index,
                       "samples", options_.batch_size);
  const double t0 = monotonic_seconds();
  Batch batch = render_batch(batch_index);
  static auto& render_hist =
      obs::MetricsRegistry::instance().histogram("loader.render_seconds");
  static auto& rendered =
      obs::MetricsRegistry::instance().counter("loader.batches_rendered");
  static auto& samples =
      obs::MetricsRegistry::instance().counter("loader.samples_rendered");
  render_hist.observe(monotonic_seconds() - t0);
  rendered.add(1);
  samples.add(static_cast<double>(batch.sample_indices.size()));
  return batch;
}

Batch DataLoader::render_faulted(i64 batch_index,
                                 const comm::FaultHit& fault) {
  Batch batch = render_batch_traced(batch_index);
  const i64 rows = static_cast<i64>(batch.sample_indices.size());
  const i64 per = rows > 0 ? batch.images.numel() / rows : 0;
  if (fault.has(comm::FaultEvent::Kind::kLoaderPoison) && rows > 0 &&
      per > 0) {
    float* row = batch.images.data() +
                 static_cast<i64>(fault.site % static_cast<u64>(rows)) * per;
    for (i64 k = 0; k < per; ++k) {
      row[k] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  if (options_.quarantine_poisoned && rows > 0 && per > 0) {
    static auto& quarantined =
        obs::MetricsRegistry::instance().counter("loader.quarantined");
    for (i64 r = 0; r < rows; ++r) {
      float* row = batch.images.data() + r * per;
      bool bad = false;
      for (i64 k = 0; k < per; ++k) {
        if (!std::isfinite(row[k])) {
          bad = true;
          break;
        }
      }
      if (!bad) continue;
      // Zero the sample rather than dropping it: batch geometry (and so
      // every downstream shape) is unchanged, and the zeroed row is
      // deterministic, so replay stays bitwise.
      std::fill(row, row + per, 0.f);
      bool newly = false;
      {
        std::lock_guard<std::mutex> lk(quarantine_mu_);
        newly = quarantined_.insert(batch.sample_indices[r]).second;
      }
      if (newly) quarantined.add(1);
      obs::trace_instant("loader.quarantine", "loader");
    }
  }
  return batch;
}

void DataLoader::worker_loop() {
  set_thread_rank(owner_rank_);
  obs::set_thread_label("loader.worker");
  for (;;) {
    i64 mine = -1;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_produce_.wait(lk, [&] {
        return stopping_ || !requeued_.empty() ||
               (next_to_claim_ < n_batches_ &&
                next_to_claim_ - next_to_consume_ <
                    options_.prefetch_batches);
      });
      if (stopping_) {
        --alive_workers_;
        cv_consume_.notify_all();
        return;
      }
      while (!requeued_.empty() && mine < 0) {
        // Orphans of a dead worker come first; entries the consumer
        // already rendered itself are stale — drop them.
        const i64 head = requeued_.front();
        requeued_.pop_front();
        if (head >= next_to_consume_ && ready_.count(head) == 0) mine = head;
      }
      if (mine < 0) {
        if (next_to_claim_ >= n_batches_) {
          --alive_workers_;
          cv_consume_.notify_all();
          return;
        }
        mine = next_to_claim_++;
      }
    }
    // Fault seam: consult the installed injector on the *global* batch
    // ordinal before rendering. An injected slow-render sleeps inside
    // the injector (that is the hang the consumer watchdog catches).
    comm::FaultHit fault;
    if (options_.fault_injector != nullptr) {
      const i64 ordinal = epoch_ * n_batches_ + mine;
      fault = options_.fault_injector->hit(
          comm::Seam::kRender, owner_rank_ < 0 ? 0 : owner_rank_, ordinal);
      if (fault.has(comm::FaultEvent::Kind::kLoaderWorkerKill)) {
        static auto& deaths =
            obs::MetricsRegistry::instance().counter("loader.worker_deaths");
        static auto& respawns =
            obs::MetricsRegistry::instance().counter("loader.respawns");
        deaths.add(1);
        obs::trace_instant("loader.worker_death", "loader");
        {
          std::lock_guard<std::mutex> lk(mu_);
          requeued_.push_back(mine);
          --alive_workers_;
          if (!stopping_ && respawns_used_ < options_.max_worker_respawns) {
            ++respawns_used_;
            ++alive_workers_;
            workers_.emplace_back([this] { worker_loop(); });
            respawns.add(1);
          }
        }
        cv_produce_.notify_all();
        cv_consume_.notify_all();
        return;  // this worker thread is dead
      }
    }
    Batch batch = render_faulted(mine, fault);
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (mine >= next_to_consume_ && ready_.count(mine) == 0) {
        ready_.emplace(mine, std::move(batch));
      } else {
        // A watchdog takeover beat us to it; renders are deterministic,
        // so the duplicate is bitwise identical and safe to drop.
        static auto& discarded =
            obs::MetricsRegistry::instance().counter(
                "loader.discarded_renders");
        discarded.add(1);
      }
    }
    cv_consume_.notify_all();
  }
}

std::optional<Batch> DataLoader::next() {
  if (options_.n_workers == 0) {
    if (next_to_consume_ >= batches_per_epoch()) return std::nullopt;
    GEOFM_CHECK(!permutation_.empty(), "next() before start_epoch()");
    // Synchronous path: the whole render happens on the consumer's
    // critical path, so it is all exposed time. The fault seam still
    // applies (an injected worker kill is meaningless here and ignored).
    const double t0 = monotonic_seconds();
    const i64 mine = next_to_consume_++;
    comm::FaultHit fault;
    if (options_.fault_injector != nullptr) {
      const i64 ordinal = epoch_ * batches_per_epoch() + mine;
      fault = options_.fault_injector->hit(
          comm::Seam::kRender, owner_rank_ < 0 ? 0 : owner_rank_, ordinal);
    }
    Batch batch = render_faulted(mine, fault);
    static auto& exposed_sync =
        obs::MetricsRegistry::instance().counter("loader.exposed_wait_seconds");
    exposed_sync.add(monotonic_seconds() - t0);
    return batch;
  }

  std::unique_lock<std::mutex> lk(mu_);
  GEOFM_CHECK(!permutation_.empty(), "next() before start_epoch()");
  if (next_to_consume_ >= n_batches_) return std::nullopt;
  const i64 want = next_to_consume_;
  if (ready_.count(want) == 0) {
    // Consumer outran the prefetchers: this wait is loader-exposed time,
    // the analogue of CommStats::exposed_wait_seconds for input.
    obs::TraceScope span("loader.wait", "loader", "batch", want);
    const double t0 = monotonic_seconds();
    static auto& exposed =
        obs::MetricsRegistry::instance().counter("loader.exposed_wait_seconds");
    static auto& stall_requeues =
        obs::MetricsRegistry::instance().counter("loader.stall_requeues");
    const double wd = options_.watchdog_seconds;
    while (ready_.count(want) == 0) {
      const bool workers_gone = alive_workers_ == 0;
      const bool overdue = wd > 0 && monotonic_seconds() - t0 > wd;
      if (workers_gone || overdue) {
        // Nobody is coming (every worker dead, respawn budget spent) or
        // the render is overdue (a hung worker): take the batch over on
        // the consumer. Renders are bitwise deterministic, so a late
        // duplicate from the original worker is discarded harmlessly.
        // The takeover render skips the fault seam — whatever fault
        // delayed or killed the original render already fired.
        if (overdue && !workers_gone) {
          stall_requeues.add(1);
          obs::trace_instant("loader.stall_takeover", "loader");
        }
        for (auto it = requeued_.begin(); it != requeued_.end(); ++it) {
          if (*it == want) {
            requeued_.erase(it);
            break;
          }
        }
        lk.unlock();
        Batch rescued = render_faulted(want, comm::FaultHit{});
        lk.lock();
        if (ready_.count(want) == 0) {
          ready_.emplace(want, std::move(rescued));
        } else {
          static auto& discarded =
              obs::MetricsRegistry::instance().counter(
                  "loader.discarded_renders");
          discarded.add(1);
        }
        break;
      }
      if (wd > 0) {
        cv_consume_.wait_for(
            lk, std::chrono::duration<double>(std::max(wd / 4, 1e-3)));
      } else {
        cv_consume_.wait(lk, [&] {
          return ready_.count(want) > 0 || alive_workers_ == 0;
        });
      }
    }
    exposed.add(monotonic_seconds() - t0);
  }
  Batch batch = std::move(ready_.at(want));
  ready_.erase(want);
  ++next_to_consume_;
  lk.unlock();
  cv_produce_.notify_all();  // a prefetch slot opened up
  return batch;
}

std::vector<i64> DataLoader::quarantined_samples() const {
  std::lock_guard<std::mutex> lk(quarantine_mu_);
  return std::vector<i64>(quarantined_.begin(), quarantined_.end());
}

void DataLoader::stop_workers() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_produce_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

}  // namespace geofm::data
