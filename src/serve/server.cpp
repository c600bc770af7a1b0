#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "ckpt/checkpoint.hpp"
#include "ckpt/state.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/thread_context.hpp"

namespace geofm::serve {

namespace {

/// Full-tensor slices for an explicit parameter subset — the serving-side
/// restore description (a replica wants whole tensors, like
/// ckpt::replicated_state with world 1, but over the encoder subset).
ckpt::StateDesc full_tensor_state(const std::vector<nn::Parameter*>& params) {
  ckpt::StateDesc desc;
  desc.slices.reserve(params.size());
  for (nn::Parameter* p : params) {
    ckpt::TensorSlice slice;
    slice.name = p->name;
    slice.shape = p->value.shape();
    slice.begin = 0;
    slice.data = p->value.flat_view(0, p->value.numel());
    desc.slices.push_back(std::move(slice));
  }
  return desc;
}

std::vector<std::string> resolve_sources(const ServerConfig& cfg) {
  if (!cfg.checkpoint_sources.empty()) return cfg.checkpoint_sources;
  return {cfg.checkpoint_root};
}

/// The degraded-modes table's precedence: cache-only > breaker-open >
/// mirror > healthy.
DegradedMode derive_mode(bool has_weights, std::size_t source_index,
                         bool breaker_open) {
  if (!has_weights) return DegradedMode::kCacheOnly;
  if (breaker_open) return DegradedMode::kBreakerOpen;
  if (source_index > 0) return DegradedMode::kMirror;
  return DegradedMode::kHealthy;
}

}  // namespace

ModelServer::ModelServer(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      sources_(resolve_sources(cfg_)),
      batcher_({cfg_.max_batch, cfg_.max_delay_us, cfg_.max_queue,
                cfg_.tenant_weights}),
      cache_(cfg_.cache_capacity) {
  GEOFM_CHECK(!sources_.empty() && !sources_.front().empty(),
              "ModelServer needs at least one checkpoint source");
  // Initial load walks the same failover order as every reload: newest
  // step first, primary wins ties, mirrors verified before trusted.
  const auto candidates = ckpt::published_sources(sources_);
  for (const ckpt::PublishedSource& cand : candidates) {
    try {
      if (cand.source > 0 && cfg_.verify_mirror_checksums) {
        ckpt::verify_checkpoint_dir(cand.dir);
      }
      current_ = load_model(cand.step, cand.dir, /*epoch=*/1, cand.source);
      break;
    } catch (const std::exception& e) {
      reload_failures_.fetch_add(1, std::memory_order_relaxed);
      GEOFM_WARN("serve: initial load of step "
                 << cand.step << " from " << cand.dir << " failed: "
                 << e.what());
    }
  }
  if (current_ == nullptr) {
    if (!cfg_.allow_degraded_start) {
      throw Error("ModelServer: no loadable checkpoint under any of " +
                  std::to_string(sources_.size()) + " source(s), first: " +
                  sources_.front());
    }
    // Cache-only start: epoch 0 so the first successful load gets epoch 1.
    current_ = std::make_shared<LoadedModel>();
    GEOFM_WARN("serve: starting in cache-only degraded mode (no loadable "
               "checkpoint); misses will be shed until one publishes");
  } else {
    reloads_.fetch_add(1, std::memory_order_relaxed);
    static auto& reloads =
        obs::MetricsRegistry::instance().counter("serve.reloads");
    reloads.add(1);
    if (current_->source_index > 0) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      static auto& failover_m =
          obs::MetricsRegistry::instance().counter("serve.failovers");
      failover_m.add(1);
      obs::trace_instant("serve.failover", "serve");
    }
    GEOFM_INFO("serve: serving step " << current_->step << " from "
                                      << current_->source);
  }

  publish_state();
  worker_ = std::thread([this] { worker_loop(); });
  if (cfg_.poll_interval_seconds > 0) {
    poller_ = std::thread([this] { poller_loop(); });
  }
}

ModelServer::~ModelServer() { stop(); }

void ModelServer::stop() {
  if (stopped_.exchange(true)) return;
  batcher_.close();
  {
    std::lock_guard<std::mutex> lk(poll_mu_);
    stop_poller_ = true;
  }
  poll_cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  if (poller_.joinable()) poller_.join();
}

std::future<EmbedResult> ModelServer::submit(EmbedRequest req) {
  const auto& m = cfg_.model.encoder;
  const i64 expect = m.in_channels * m.img_size * m.img_size;
  if (!req.image.defined() || req.image.numel() != expect) {
    throw Error("ModelServer: image has " +
                std::to_string(req.image.defined() ? req.image.numel() : 0) +
                " elements, served model expects " + std::to_string(expect));
  }
  if (req.deadline_us <= 0) req.deadline_us = cfg_.default_deadline_us;
  return batcher_.submit(std::move(req));
}

EmbedResult ModelServer::embed(EmbedRequest req) {
  obs::TraceScope span("serve.request", "serve");
  return submit(std::move(req)).get();
}

std::shared_ptr<ModelServer::LoadedModel> ModelServer::current() const {
  std::lock_guard<std::mutex> lk(model_mu_);
  return current_;
}

const std::vector<std::string>& ModelServer::sources() const {
  return sources_;
}

i64 ModelServer::model_step() const { return current()->step; }
i64 ModelServer::model_epoch() const { return current()->epoch; }

DegradedMode ModelServer::degraded_mode() const {
  const auto cur = current();
  return derive_mode(cur->model != nullptr, cur->source_index,
                     breaker_open_.load(std::memory_order_relaxed));
}

void ModelServer::publish_state() {
  auto& reg = obs::MetricsRegistry::instance();
  // Gauges, not just the trip counter, so the Prometheus exposition shows
  // the *current* state, alertable directly.
  static auto& degraded = reg.gauge("serve.degraded");
  static auto& breaker = reg.gauge("serve.breaker");
  breaker.set(breaker_open_.load(std::memory_order_relaxed) ? 1 : 0);
  degraded.set(static_cast<double>(static_cast<int>(degraded_mode())));
}

std::shared_ptr<ModelServer::LoadedModel> ModelServer::load_model(
    i64 step, const std::string& dir, i64 epoch, std::size_t source) {
  obs::TraceScope span("serve.reload", "serve", "step", step);
  const double t0 = monotonic_seconds();
  auto loaded = std::make_shared<LoadedModel>();
  // Construction seeds are irrelevant: every served weight is overwritten
  // by the restore (decoder weights stay at init under encoder-only
  // restore — the decoder never runs in serving).
  Rng rng(0x5e7eULL);
  loaded->model = std::make_unique<models::MAE>(cfg_.model, rng);
  ckpt::CheckpointReader reader(dir);
  reader.restore(full_tensor_state(cfg_.encoder_only_restore
                                       ? loaded->model->encoder_parameters()
                                       : loaded->model->parameters()));
  loaded->step = step;
  loaded->epoch = epoch;
  loaded->source = reader.location();
  loaded->source_index = source;
  static auto& reload_s =
      obs::MetricsRegistry::instance().histogram("serve.reload_seconds");
  reload_s.observe(monotonic_seconds() - t0);
  return loaded;
}

void ModelServer::install(std::shared_ptr<LoadedModel> fresh) {
  {
    std::lock_guard<std::mutex> lk(model_mu_);
    current_ = std::move(fresh);  // in-flight batches hold their pin
  }
  const auto cur = current();
  cache_.invalidate_older_than(cur->epoch);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  auto& reg = obs::MetricsRegistry::instance();
  static auto& reloads = reg.counter("serve.reloads");
  static auto& step_gauge = reg.gauge("serve.model_step");
  reloads.add(1);
  step_gauge.set(static_cast<double>(cur->step));
  GEOFM_INFO("serve: hot-swapped to step "
             << cur->step << " (epoch " << cur->epoch << ") from "
             << cur->source);
}

bool ModelServer::try_reload(bool force) {
  std::lock_guard<std::mutex> reload_lk(reload_mu_);
  if (!force && breaker_open_until_ > 0 &&
      monotonic_seconds() < breaker_open_until_) {
    return false;  // breaker open: skip this tick, retry when it expires
  }
  const auto cur = current();
  const bool cache_only = cur->model == nullptr;
  const auto candidates = ckpt::published_sources(sources_);

  std::shared_ptr<LoadedModel> fresh;
  std::size_t fresh_source = 0;
  bool attempted = false;
  for (const ckpt::PublishedSource& cand : candidates) {
    // Normally only a strictly newer step is worth a swap; in cache-only
    // mode any loadable checkpoint restores service (the step we used to
    // serve may be the one that comes back).
    if (!cache_only && cand.step <= cur->step) continue;
    attempted = true;
    try {
      if (cand.source > 0 && cfg_.verify_mirror_checksums) {
        ckpt::verify_checkpoint_dir(cand.dir);
      }
      fresh = load_model(cand.step, cand.dir, cur->epoch + 1, cand.source);
      fresh_source = cand.source;
      break;
    } catch (const std::exception& e) {
      // Keep serving on the current weights; try the next candidate (a
      // torn primary publication fails over to the mirror right here).
      reload_failures_.fetch_add(1, std::memory_order_relaxed);
      static auto& failures =
          obs::MetricsRegistry::instance().counter("serve.reload_failures");
      failures.add(1);
      GEOFM_WARN("serve: reload of step "
                 << cand.step << " from " << cand.dir << " failed ("
                 << e.what() << "); still serving step " << cur->step);
    }
  }

  if (fresh != nullptr) {
    install(fresh);
    if (fresh_source > 0) {
      failovers_.fetch_add(1, std::memory_order_relaxed);
      static auto& failover_m =
          obs::MetricsRegistry::instance().counter("serve.failovers");
      failover_m.add(1);
      obs::trace_instant("serve.failover", "serve");
      GEOFM_WARN("serve: failed over to source " << fresh_source << " ("
                                                 << fresh->source << ")");
    }
    // Success closes the breaker and resets its escalation.
    consecutive_failed_ticks_ = 0;
    breaker_attempt_ = 0;
    breaker_open_until_ = 0;
    breaker_open_.store(false, std::memory_order_relaxed);
  } else if (attempted) {
    // Every candidate this tick failed to verify or load. Count the tick
    // toward the breaker; at the threshold, open it with escalating
    // backoff so the poller stops hammering a torn publication. Once the
    // breaker has tripped, a failed half-open probe re-trips immediately
    // (escalated) instead of waiting out another threshold window.
    consecutive_failed_ticks_ += 1;
    if (breaker_attempt_ > 0 ||
        consecutive_failed_ticks_ >= cfg_.breaker_threshold) {
      breaker_attempt_ += 1;
      const double open_for =
          backoff_seconds(cfg_.breaker_backoff, /*key=*/0, breaker_attempt_);
      breaker_open_until_ = monotonic_seconds() + open_for;
      consecutive_failed_ticks_ = 0;  // the next window starts after probe
      breaker_trips_.fetch_add(1, std::memory_order_relaxed);
      breaker_open_.store(true, std::memory_order_relaxed);
      static auto& trips_m =
          obs::MetricsRegistry::instance().counter("serve.breaker_trips");
      trips_m.add(1);
      obs::trace_instant("serve.breaker_open", "serve");
      GEOFM_WARN("serve: reload circuit breaker open for "
                 << open_for << "s (trip " << breaker_attempt_ << ")");
    }
  } else if (candidates.empty() && !cache_only && cfg_.unload_on_sourceless) {
    // Every source vanished (a recall, not a torn write). Drop the
    // weights but keep step/epoch so epoch-pinned cache hits still
    // answer; everything else sheds with `Degraded` until a checkpoint
    // republishes.
    auto sentinel = std::make_shared<LoadedModel>();
    sentinel->step = cur->step;
    sentinel->epoch = cur->epoch;
    sentinel->source = cur->source;
    sentinel->source_index = cur->source_index;
    {
      std::lock_guard<std::mutex> lk(model_mu_);
      current_ = std::move(sentinel);
    }
    obs::trace_instant("serve.cache_only", "serve");
    GEOFM_WARN("serve: all " << sources_.size()
                             << " checkpoint source(s) are gone; entering "
                                "cache-only degraded mode at step "
                             << cur->step);
  }
  publish_state();
  return fresh != nullptr;
}

bool ModelServer::reload_now() { return try_reload(/*force=*/true); }

void ModelServer::poller_loop() {
  obs::set_thread_label("serve.poller");
  const auto interval = std::chrono::duration<double>(
      cfg_.poll_interval_seconds);
  std::unique_lock<std::mutex> lk(poll_mu_);
  while (!stop_poller_) {
    if (poll_cv_.wait_for(lk, interval, [&] { return stop_poller_; })) {
      return;
    }
    lk.unlock();
    try_reload(/*force=*/false);
    lk.lock();
  }
}

void ModelServer::worker_loop() {
  obs::set_thread_label("serve.worker");
  for (;;) {
    std::vector<PendingRequest> batch = batcher_.next_batch();
    if (batch.empty()) return;  // closed and drained
    process_batch(batch);
  }
}

void ModelServer::process_batch(std::vector<PendingRequest>& batch) {
  // Pin the model once per batch: every request in the batch is answered
  // by exactly these weights, and the pin keeps them alive across a
  // concurrent swap.
  const std::shared_ptr<LoadedModel> model = current();
  obs::TraceScope span("serve.batch", "serve", "size",
                       static_cast<i64>(batch.size()), "step", model->step);
  const double batch_t0 = monotonic_seconds();

  auto& reg = obs::MetricsRegistry::instance();
  static auto& requests_metric = reg.counter("serve.requests");
  static auto& batches_metric = reg.counter("serve.batches");
  static auto& encodes_metric = reg.counter("serve.encodes");
  static auto& batch_size_h = reg.histogram("serve.batch_size");
  static auto& request_s = reg.histogram("serve.request_seconds");
  static auto& encode_s = reg.histogram("serve.encode_seconds");

  batches_.fetch_add(1, std::memory_order_relaxed);
  batches_metric.add(1);
  batch_size_h.observe(static_cast<double>(batch.size()));

  // Cache pass: hits skip the encoder entirely.
  const std::size_t n = batch.size();
  std::vector<CachedEmbedding> hit(n);
  std::vector<bool> is_hit(n, false);
  std::vector<std::size_t> miss;
  miss.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::string& key = batch[i].request.key;
    if (!key.empty() && cache_.enabled() &&
        cache_.lookup(key, model->epoch, &hit[i])) {
      is_hit[i] = true;
    } else {
      miss.push_back(i);
    }
  }

  // Cache-only degraded mode: no weights in memory. Hits are still valid
  // (epoch-pinned) and answered, flagged `degraded`; misses cannot be
  // computed and are shed with a typed error — never left hanging.
  if (model->model == nullptr && !miss.empty()) {
    static auto& shed_degraded_m = reg.counter("serve.shed_degraded");
    shed_degraded_m.add(static_cast<double>(miss.size()));
    shed_degraded_.fetch_add(static_cast<i64>(miss.size()),
                             std::memory_order_relaxed);
    for (std::size_t i = 0; i < miss.size(); ++i) {
      obs::trace_instant("serve.shed_degraded", "serve");
    }
    auto error = std::make_exception_ptr(
        Degraded("serving degraded: no model weights loadable (cache-only "
                 "mode); only cached embeddings are served"));
    for (std::size_t m : miss) batch[m].promise.set_exception(error);
    // Compact the batch down to the hits and fall through to fulfillment.
    miss.clear();
  }

  // One batched encoder forward for every miss.
  const auto& enc = cfg_.model.encoder;
  const i64 per_image = enc.in_channels * enc.img_size * enc.img_size;
  Tensor features;
  if (!miss.empty()) {
    Tensor images({static_cast<i64>(miss.size()), enc.in_channels,
                   enc.img_size, enc.img_size});
    for (std::size_t m = 0; m < miss.size(); ++m) {
      images.flat_view(static_cast<i64>(m) * per_image, per_image)
          .copy_(batch[miss[m]].request.image);
    }
    {
      obs::TraceScope enc_span("serve.encode", "serve", "batch",
                               static_cast<i64>(miss.size()));
      const double t0 = monotonic_seconds();
      features = model->model->encode(images, cfg_.pool);
      encode_s.observe(monotonic_seconds() - t0);
    }
    encodes_.fetch_add(1, std::memory_order_relaxed);
    encoded_images_.fetch_add(static_cast<i64>(miss.size()),
                              std::memory_order_relaxed);
    encodes_metric.add(1);
    const i64 width = enc.width;
    for (std::size_t m = 0; m < miss.size(); ++m) {
      const std::string& key = batch[miss[m]].request.key;
      if (key.empty() || !cache_.enabled()) continue;
      CachedEmbedding entry;
      entry.embedding = Tensor({width});
      entry.embedding.copy_(
          features.flat_view(static_cast<i64>(m) * width, width));
      entry.model_step = model->step;
      entry.model_epoch = model->epoch;
      cache_.insert(key, std::move(entry));
    }
  }

  // Fulfillment: embeddings, per-tenant heads, latency accounting.
  const i64 width = enc.width;
  const bool degraded_serving = model->model == nullptr;
  std::size_t next_miss = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PendingRequest& p = batch[i];
    if (!is_hit[i] && degraded_serving) continue;  // already shed above
    try {
      EmbedResult r;
      r.model_step = model->step;
      r.model_epoch = model->epoch;
      r.cache_hit = is_hit[i];
      r.degraded = degraded_serving;
      if (is_hit[i]) {
        r.embedding = std::move(hit[i].embedding);
        r.batch_size = 0;
      } else {
        const std::size_t m = next_miss++;
        r.embedding = Tensor({width});
        r.embedding.copy_(
            features.flat_view(static_cast<i64>(m) * width, width));
        r.batch_size = static_cast<i64>(miss.size());
      }
      if (!p.request.tenant.empty()) {
        const std::shared_ptr<TenantHead> head =
            heads_.find(p.request.tenant);
        if (head == nullptr) {
          throw Error("ModelServer: no head registered for tenant '" +
                      p.request.tenant + "'");
        }
        // Only this worker thread ever runs forward on a resolved head.
        r.logits = head->head->forward(r.embedding.view({1, width}))
                       .view({head->head->out_features()});
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      requests_metric.add(1);
      request_s.observe(static_cast<double>(monotonic_ns() - p.submitted_ns) *
                        1e-9);
      p.promise.set_value(std::move(r));
    } catch (...) {
      p.promise.set_exception(std::current_exception());
    }
  }

  // Feed the admission estimator with real service time so the deadline
  // gate tracks the currently served model. Cache-only batches are
  // excluded: they never touch the encoder and would drag the EWMA to
  // near zero, letting hopeless requests through once weights return.
  if (!degraded_serving) {
    batcher_.record_batch_seconds(monotonic_seconds() - batch_t0);
  }
}

ServerStats ModelServer::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.encodes = encodes_.load(std::memory_order_relaxed);
  s.encoded_images = encoded_images_.load(std::memory_order_relaxed);
  const EmbeddingCache::Stats cs = cache_.stats();
  s.cache_hits = cs.hits;
  s.cache_misses = cs.misses;
  s.reloads = reloads_.load(std::memory_order_relaxed);
  s.reload_failures = reload_failures_.load(std::memory_order_relaxed);
  const BatcherStats bs = batcher_.stats();
  s.shed_overload = bs.shed_overload;
  s.shed_deadline = bs.shed_deadline;
  s.shed_shutdown = bs.shed_shutdown;
  s.shed_fair_share = bs.shed_fair_share;
  s.shed_degraded = shed_degraded_.load(std::memory_order_relaxed);
  s.breaker_trips = breaker_trips_.load(std::memory_order_relaxed);
  s.breaker_open = breaker_open_.load(std::memory_order_relaxed);
  s.failovers = failovers_.load(std::memory_order_relaxed);
  const auto cur = current();
  s.degraded = derive_mode(cur->model != nullptr, cur->source_index,
                           s.breaker_open);
  s.model_step = cur->step;
  s.model_epoch = cur->epoch;
  s.model_source = cur->source_index;
  return s;
}

}  // namespace geofm::serve
