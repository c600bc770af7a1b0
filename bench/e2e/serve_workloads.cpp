// Serving workloads: serve::ModelServer with the default ServerConfig,
// serving the `mid` encoder from checkpoints published with
// ckpt::Checkpointer.
//
// A run sets the server up, warms it, then repeats rounds of an open-loop
// Poisson phase (independent users: one sender thread submits on schedule,
// one collector thread resolves the futures in order; latency is timed from
// each request's due time) followed by a closed-loop saturation phase (one
// thread keeping a fixed number of requests outstanding). It reports medians
// over rounds, so an episode of slowness from elsewhere on the machine moves
// one round, not the result. serve-hot adds one publisher thread that saves
// a new checkpoint step early in every round; the server's default poller
// hot-swaps it.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "bench_e2e.hpp"
#include "ckpt/checkpoint.hpp"
#include "ckpt/format.hpp"
#include "ckpt/state.hpp"
#include "data/datasets.hpp"
#include "serve/server.hpp"
#include "util/thread_context.hpp"

namespace geofm::bench_e2e {
namespace {

namespace fs = std::filesystem;

struct ServeSpec {
  double rate = 0;          // open-loop requests per second
  bool unique_keys = true;  // every request a new key, else Zipf over scenes
  double tenant_share = 0;  // share of requests naming a tenant head
  bool publish = false;     // publish and hot-swap a new step every round
};

ServeSpec serve_spec(const std::string& name) {
  ServeSpec s;
  // Rates sit near a quarter of the saturation throughput: higher, and
  // queueing turns the machine's speed drift and the seed's arrival bursts
  // into tail latency that moves by a third between runs of the same code.
  if (name == "serve-miss") {
    s.rate = 150;
  } else if (name == "serve-hot") {
    s.rate = 400;
    s.unique_keys = false;
    s.tenant_share = 0.25;
    s.publish = true;
  } else {
    throw Error("unknown serving workload " + name);
  }
  return s;
}

constexpr i64 kImagePool = 256;  // distinct rendered scenes behind the keys
constexpr i64 kScenes = 4096;    // key space of the Zipf draws
constexpr double kZipfS = 1.1;
constexpr int kTenants = 4;
constexpr i64 kTenantClasses = 10;
constexpr int kSetupProbes = 15;  // setup_s is their median (~20 ms each)
constexpr int kRounds = 5;
constexpr double kSloSeconds = 0.050;
constexpr i64 kCheckEvery = 50;  // every Nth response is verified
constexpr size_t kClosedOutstanding = 32;

/// One request's inputs, drawn from the workload seed.
struct RequestSpec {
  std::string key;
  i64 image = 0;    // index into the image pool
  int tenant = -1;  // tenant head index, -1 = none
};

class RequestGen {
 public:
  RequestGen(const ServeSpec& spec, u64 seed, std::string prefix)
      : spec_(spec), rng_(seed), prefix_(std::move(prefix)) {
    if (!spec.unique_keys) {
      double total = 0;
      for (i64 k = 0; k < kScenes; ++k) {
        total += std::pow(static_cast<double>(k + 1), -kZipfS);
        cdf_.push_back(total);
      }
      for (double& c : cdf_) c /= total;
    }
  }

  RequestSpec next() {
    RequestSpec r;
    if (spec_.unique_keys) {
      r.key = prefix_ + std::to_string(count_++);
      r.image = rng_.uniform_int(kImagePool);
    } else {
      const double u = rng_.uniform();
      const i64 scene = static_cast<i64>(
          std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
      r.key = "scene-" + std::to_string(scene);
      r.image = scene % kImagePool;
    }
    if (spec_.tenant_share > 0 && rng_.uniform() < spec_.tenant_share) {
      r.tenant = static_cast<int>(rng_.uniform_int(kTenants));
    }
    return r;
  }

 private:
  const ServeSpec& spec_;
  Rng rng_;
  std::string prefix_;
  std::vector<double> cdf_;
  i64 count_ = 0;
};

std::string tenant_name(int t) { return "tenant-" + std::to_string(t); }

/// The inputs every phase draws from: rendered scenes and tenant heads
/// (the server gets one copy of each head, the checker keeps another).
struct Inputs {
  std::vector<Tensor> images;
  std::vector<std::unique_ptr<nn::Linear>> heads;

  std::unique_ptr<nn::Linear> make_head(int t, u64 seed) const {
    Rng rng(derive_seed(seed, "head", static_cast<u64>(t)));
    return std::make_unique<nn::Linear>(
        tenant_name(t), mid_model().encoder.width, kTenantClasses, rng);
  }
};

Inputs make_inputs(u64 seed) {
  Inputs in;
  const data::SceneDataset scenes("bench-scenes", 51, kImagePool, 0,
                                  mid_model().encoder.img_size,
                                  derive_seed(seed, "scenes"));
  for (i64 i = 0; i < kImagePool; ++i) {
    in.images.push_back(scenes.get(data::Split::kTrain, i).image);
  }
  for (int t = 0; t < kTenants; ++t) in.heads.push_back(in.make_head(t, seed));
  return in;
}

serve::EmbedRequest make_request(const RequestSpec& r, const Inputs& in) {
  serve::EmbedRequest req;
  req.key = r.key;
  req.image = in.images[static_cast<size_t>(r.image)];
  if (r.tenant >= 0) req.tenant = tenant_name(r.tenant);
  return req;
}

/// The weights published as checkpoint step `step`.
std::unique_ptr<models::MAE> step_model(u64 seed, i64 step) {
  Rng rng(derive_seed(seed, "publish", static_cast<u64>(step)));
  return std::make_unique<models::MAE>(mid_model(), rng);
}

void publish(models::MAE& model, const std::string& root, i64 step) {
  ckpt::SaveRequest req;
  req.dir = root;
  req.step = step;
  req.state = ckpt::replicated_state(model, nullptr, 0, 1, /*for_save=*/true);
  ckpt::Checkpointer writer(/*async=*/false);
  writer.save(req);
}

/// Saves checkpoint steps 1, 2, ... on its own thread, step k at the k-th
/// time passed to schedule() (monotonic seconds). The models are built
/// before the load starts, so the thread only runs Checkpointer::save.
class Publisher {
 public:
  struct Entry {
    i64 step = 0;
    double published = 0;  // save() returned (monotonic seconds)
    double save_ms = 0;
  };

  Publisher(std::string root, std::vector<std::unique_ptr<models::MAE>> steps)
      : root_(std::move(root)), steps_(std::move(steps)),
        thread_([this] { loop(); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void schedule(double at) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      due_.push_back(at);
    }
    cv_.notify_all();
  }

  /// Stops after the save in progress; returns what was published.
  std::vector<Entry> stop() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    return log_;
  }

 private:
  void loop() {
    try {
      std::unique_lock<std::mutex> lk(mu_);
      for (size_t k = 0; k < steps_.size(); ++k) {
        cv_.wait(lk, [&] { return stop_ || k < due_.size(); });
        if (stop_) return;
        const auto wait = std::chrono::duration<double>(
            std::max(0.0, due_[k] - monotonic_seconds()));
        if (cv_.wait_for(lk, wait, [&] { return stop_; })) return;
        lk.unlock();
        const i64 step = static_cast<i64>(k) + 1;
        const double t0 = monotonic_seconds();
        publish(*steps_[k], root_, step);
        const double t1 = monotonic_seconds();
        lk.lock();
        log_.push_back({step, t1, 1e3 * (t1 - t0)});
      }
    } catch (...) {
      error_ = std::current_exception();
    }
  }

  const std::string root_;
  const std::vector<std::unique_ptr<models::MAE>> steps_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<double> due_;
  bool stop_ = false;
  std::vector<Entry> log_;
  std::exception_ptr error_;
  std::thread thread_;
};

/// What happened to one request.
struct Outcome {
  enum State { kPending, kServed, kShed, kFailed };
  State state = kPending;
  double due = 0;   // scheduled send time (open loop) or submit time
  double done = 0;  // resolution observed
  double submit_us = 0;
  bool cache_hit = false;
  i64 model_step = -1;
};

/// A verified response: the inputs and what the server answered.
struct Sample {
  RequestSpec request;
  serve::EmbedResult result;
};

/// Outcomes of one phase plus what the checker needs.
struct Phase {
  std::vector<Outcome> out;
  std::vector<RequestSpec> requests;
  std::vector<Sample> samples;
  std::vector<double> late;  // sender lateness, seconds
  std::map<i64, double> first_seen;  // model step -> first response time
  double start = 0;
  double end = 0;

  void resolve(size_t i, std::future<serve::EmbedResult>& fut) {
    Outcome& o = out[i];
    if (fut.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
      return;  // stays pending: a correctness failure
    }
    try {
      serve::EmbedResult r = fut.get();
      o.state = Outcome::kServed;
      o.cache_hit = r.cache_hit;
      o.model_step = r.model_step;
      first_seen.emplace(r.model_step, monotonic_seconds());
      if (i % kCheckEvery == 0) samples.push_back({requests[i], std::move(r)});
    } catch (const serve::Overloaded&) {
      o.state = Outcome::kShed;
    } catch (const serve::DeadlineExceeded&) {
      o.state = Outcome::kShed;
    } catch (const serve::ShutdownError&) {
      o.state = Outcome::kShed;
    } catch (const serve::Degraded&) {
      o.state = Outcome::kShed;
    } catch (const std::exception&) {
      o.state = Outcome::kFailed;
    }
    o.done = monotonic_seconds();
  }

  i64 count(Outcome::State s) const {
    return std::count_if(out.begin(), out.end(),
                         [&](const Outcome& o) { return o.state == s; });
  }
  /// Latency from due time; requests not served never meet any limit.
  std::vector<double> latencies() const {
    std::vector<double> v;
    for (const Outcome& o : out) {
      v.push_back(o.state == Outcome::kServed
                      ? o.done - o.due
                      : std::numeric_limits<double>::infinity());
    }
    return v;
  }
};

/// Open loop: Poisson arrivals at `rate` for `seconds` from `start`
/// (monotonic seconds), sent on schedule by this thread, resolved in order
/// by one collector thread.
Phase open_loop(serve::ModelServer& server, const Inputs& in, RequestGen& gen,
                double rate, double start, double seconds, u64 seed) {
  Phase ph;
  Rng arrivals(seed);
  std::vector<double> offsets;
  for (double t = 0;;) {
    t += -std::log(1.0 - arrivals.uniform()) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  ph.out.resize(offsets.size());
  for (size_t i = 0; i < offsets.size(); ++i) ph.requests.push_back(gen.next());

  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, std::future<serve::EmbedResult>>> queue;
  bool sent_all = false;
  std::thread collector([&] {
    for (;;) {
      std::pair<size_t, std::future<serve::EmbedResult>> item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return sent_all || !queue.empty(); });
        if (queue.empty()) return;
        item = std::move(queue.front());
        queue.pop_front();
      }
      ph.resolve(item.first, item.second);
    }
  });
  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lk(mu);
      sent_all = true;
    }
    cv.notify_one();
    collector.join();
  };
  ph.start = start;
  try {
    for (size_t i = 0; i < offsets.size(); ++i) {
      Outcome& o = ph.out[i];
      o.due = ph.start + offsets[i];
      const double wait = o.due - monotonic_seconds();
      if (wait > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      const double t0 = monotonic_seconds();
      ph.late.push_back(t0 - o.due);
      auto fut = server.submit(make_request(ph.requests[i], in));
      o.submit_us = 1e6 * (monotonic_seconds() - t0);
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.emplace_back(i, std::move(fut));
      }
      cv.notify_one();
    }
  } catch (...) {
    finish();
    throw;
  }
  finish();
  ph.end = ph.start + seconds;
  return ph;
}

/// Closed loop: keeps kClosedOutstanding requests in flight for `seconds`.
Phase closed_loop(serve::ModelServer& server, const Inputs& in,
                  RequestGen& gen, double seconds) {
  Phase ph;
  std::deque<std::pair<size_t, std::future<serve::EmbedResult>>> inflight;
  ph.start = monotonic_seconds();
  const double stop_at = ph.start + seconds;
  for (;;) {
    while (inflight.size() < kClosedOutstanding &&
           monotonic_seconds() < stop_at) {
      const size_t i = ph.out.size();
      ph.requests.push_back(gen.next());
      ph.out.emplace_back();
      ph.out[i].due = monotonic_seconds();
      inflight.emplace_back(i, server.submit(make_request(ph.requests[i], in)));
    }
    if (inflight.empty()) break;
    ph.resolve(inflight.front().first, inflight.front().second);
    inflight.pop_front();
  }
  ph.end = monotonic_seconds();
  return ph;
}

/// Everything one pass over the workload produced.
struct ServeRun {
  std::vector<double> setup;
  Phase warm;
  std::vector<Phase> open;    // one per round
  std::vector<Phase> closed;  // one per round
  std::vector<Publisher::Entry> published;
  serve::ServerStats stats;
  std::vector<obs::TraceEvent> events;
  u64 dropped = 0;
  double peak_rss_mb = 0;  // after the first round

  std::vector<const Phase*> phases() const {
    std::vector<const Phase*> all = {&warm};
    for (const Phase& ph : open) all.push_back(&ph);
    for (const Phase& ph : closed) all.push_back(&ph);
    return all;
  }
};

ServeRun serve_once(const ServeSpec& spec, const Options& opts,
                    const Inputs& in, const std::string& root, bool traced) {
  ServeRun run;
  fs::remove_all(root);
  ckpt::reset_save_state(root);
  publish(*step_model(opts.seed, 0), root, 0);

  serve::ServerConfig scfg;
  scfg.checkpoint_root = root;
  scfg.model = mid_model();
  std::unique_ptr<serve::ModelServer> server;
  for (int k = 0; k < kSetupProbes; ++k) {
    server.reset();
    const double t0 = monotonic_seconds();
    server = std::make_unique<serve::ModelServer>(scfg);
    for (int t = 0; t < kTenants; ++t) {
      server->heads().put(tenant_name(t), in.make_head(t, opts.seed));
    }
    RequestSpec probe{"setup-" + std::to_string(k), k, -1};
    server->submit(make_request(probe, in)).get();
    run.setup.push_back(monotonic_seconds() - t0);
  }

  // 0.6 of --seconds in open loops and 0.2 in closed loops.
  const int rounds = opts.quick ? 2 : kRounds;
  const double round_s = (opts.quick ? 0.8 : 0.8 * opts.seconds) / rounds;
  const double open_s = 0.75 * round_s;
  const double closed_s = 0.25 * round_s;
  std::vector<std::unique_ptr<models::MAE>> steps;
  if (spec.publish) {
    for (int r = 1; r <= rounds; ++r) steps.push_back(step_model(opts.seed, r));
  }
  RequestGen open_gen(spec, derive_seed(opts.seed, "open"), "o-");
  RequestGen closed_gen(spec, derive_seed(opts.seed, "closed"), "c-");
  RequestGen warm_gen(spec, derive_seed(opts.seed, "warm"), "w-");
  {
    std::optional<TraceOn> on;
    if (traced) on.emplace();
    run.warm = open_loop(*server, in, warm_gen, spec.rate, monotonic_seconds(),
                         opts.quick ? 0.1 : 0.3,
                         derive_seed(opts.seed, "warm-arrivals"));
    std::optional<Publisher> publisher;
    if (spec.publish) publisher.emplace(root, std::move(steps));
    for (int r = 0; r < rounds; ++r) {
      const double start = monotonic_seconds() + 0.005;
      // One hot swap per round, at the same offset, so every round holds
      // the same disturbance and cache refill.
      if (publisher) publisher->schedule(start + 0.25 * open_s);
      run.open.push_back(
          open_loop(*server, in, open_gen, spec.rate, start, open_s,
                    derive_seed(opts.seed, "arrivals",
                                static_cast<u64>(r))));
      run.closed.push_back(closed_loop(*server, in, closed_gen, closed_s));
      // Memory of a server that has loaded, swapped once and filled its
      // cache. Later rounds only add allocator noise: each swap's restore
      // lands in whichever arena its thread picks.
      if (r == 0) run.peak_rss_mb = peak_rss_mb();
    }
    if (publisher) run.published = publisher->stop();
    server->stop();
    run.stats = server->stats();
    if (traced) {
      auto& rec = obs::TraceRecorder::instance();
      run.events = rec.snapshot();
      run.dropped = rec.dropped_events();
    }
  }
  return run;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// Conservation, pending futures, and the sampled bitwise checks against a
/// direct MAE::encode on the weights each response names.
void check_run(Result& res, const ServeSpec& spec, const Inputs& in,
               const std::string& root, const ServeRun& run) {
  res.attempted += kSetupProbes;
  bool swapped = false;
  for (const Phase* ph : run.phases()) {
    const i64 n = static_cast<i64>(ph->out.size());
    const i64 served = ph->count(Outcome::kServed);
    const i64 shed = ph->count(Outcome::kShed);
    const i64 failed = ph->count(Outcome::kFailed);
    res.attempted += n;
    res.failed += shed + failed;
    res.check(served + shed + failed == n,
              std::to_string(n - served - shed - failed) +
                  " futures left pending");
    if (spec.unique_keys) {
      res.check(std::none_of(ph->out.begin(), ph->out.end(),
                             [](const Outcome& o) { return o.cache_hit; }),
                "a unique-key request was served from the cache");
    }
    swapped |= !ph->first_seen.empty() && ph->first_seen.rbegin()->first > 0;
  }
  if (spec.publish) {
    res.check(swapped, "no published step was hot-swapped in during the run");
  }

  const auto& enc = mid_model().encoder;
  std::map<i64, std::unique_ptr<models::MAE>> models;
  for (const Phase* ph : run.phases()) {
    for (const Sample& s : ph->samples) {
      auto& model = models[s.result.model_step];
      if (model == nullptr) {
        Rng rng(0);
        model = std::make_unique<models::MAE>(mid_model(), rng);
        ckpt::CheckpointReader reader(
            (fs::path(root) / ckpt::format::step_dir_name(s.result.model_step))
                .string());
        reader.restore(ckpt::replicated_state(*model, nullptr, 0, 1,
                                              /*for_save=*/false));
      }
      const Tensor image =
          in.images[static_cast<size_t>(s.request.image)].view(
              {1, enc.in_channels, enc.img_size, enc.img_size});
      const Tensor direct = model->encode(image).view({enc.width});
      res.check(same_bits(direct, s.result.embedding),
                "response for " + s.request.key + " at step " +
                    std::to_string(s.result.model_step) +
                    " differs from a direct encode");
      if (s.request.tenant >= 0) {
        auto& head = *in.heads[static_cast<size_t>(s.request.tenant)];
        const Tensor logits =
            head.forward(s.result.embedding.view({1, enc.width}))
                .view({kTenantClasses});
        res.check(same_bits(logits, s.result.logits),
                  "tenant logits for " + s.request.key +
                      " differ from the head applied to the embedding");
      }
    }
  }
}

/// Median over rounds of each open loop's latency percentile `p`.
double round_latency(const ServeRun& run, double p) {
  std::vector<double> per_round;
  for (const Phase& ph : run.open) {
    per_round.push_back(percentile(ph.latencies(), p));
  }
  return median(per_round);
}

void set_e2e_metrics(Result& res, const ServeRun& run) {
  std::vector<double> rates;
  for (const Phase& ph : run.closed) {
    rates.push_back(static_cast<double>(ph.count(Outcome::kServed)) /
                    (ph.end - ph.start));
  }
  res.set("setup_s", median(run.setup));
  res.set("throughput_per_s", median(rates));
  res.set("latency_p50_ms", 1e3 * round_latency(run, 50));
  // p95 rather than p99: each round's open loop has ~10^2-10^3 samples,
  // and p95 keeps 10+ of them beyond it.
  res.set("latency_tail_ms", 1e3 * round_latency(run, 95));
}

void set_layer_metrics(Result& res, const ServeRun& run, double untraced_p50) {
  // Spans, outcomes and sender timings pooled over the open loops.
  std::vector<double> batch_ms, encode_ms, encode_batch, reload_ms;
  std::map<std::string, double> kernel_s, kernel_flops;
  for (const auto& e : run.events) {
    const bool in_open = std::any_of(
        run.open.begin(), run.open.end(), [&](const Phase& ph) {
          return in_window(e, static_cast<u64>(ph.start * 1e9),
                           static_cast<u64>(ph.end * 1e9));
        });
    if (!in_open) continue;
    const double ms = static_cast<double>(e.dur_ns) * 1e-6;
    const std::string name = e.name;
    if (name == "serve.batch") batch_ms.push_back(ms);
    if (name == "serve.encode") {
      encode_ms.push_back(ms);
      encode_batch.push_back(static_cast<double>(e.arg));
    }
    if (name == "serve.reload") reload_ms.push_back(ms);
    if (name.rfind("kernel.", 0) == 0) {
      kernel_s[name] += ms * 1e-3;
      if (e.arg_name != nullptr && std::strcmp(e.arg_name, "flops") == 0) {
        kernel_flops[name] += static_cast<double>(e.arg);
      }
    }
  }
  double open_s = 0, attempted = 0, served = 0, shed = 0;
  std::vector<double> submit_us, late_ms, lat;
  i64 hits = 0, within_slo = 0;
  for (const Phase& ph : run.open) {
    open_s += ph.end - ph.start;
    attempted += static_cast<double>(ph.out.size());
    served += static_cast<double>(ph.count(Outcome::kServed));
    shed += static_cast<double>(ph.count(Outcome::kShed));
    for (const Outcome& o : ph.out) {
      submit_us.push_back(o.submit_us);
      if (o.state != Outcome::kServed) continue;
      hits += o.cache_hit ? 1 : 0;
      within_slo += o.done - o.due <= kSloSeconds ? 1 : 0;
    }
    for (double l : ph.late) late_ms.push_back(1e3 * l);
    const std::vector<double> v = ph.latencies();
    lat.insert(lat.end(), v.begin(), v.end());
  }
  const double p50_ms = 1e3 * round_latency(run, 50);

  res.set("serve.submit_us.p50", percentile(submit_us, 50));
  res.set("serve.batch_mean", mean(encode_batch));
  res.set("serve.encodes_per_s",
          static_cast<double>(encode_ms.size()) / open_s);
  res.set("serve.batch_ms.p50", percentile(batch_ms, 50));
  res.set("serve.encode_ms.p50", percentile(encode_ms, 50));
  res.set("serve.wait_ms.p50",
          std::max(0.0, p50_ms - percentile(batch_ms, 50)));
  res.set("serve.cache_hit_frac", served > 0 ? hits / served : 0.0);
  res.set("serve.shed_frac", shed / attempted);
  res.set("serve.slo_frac", static_cast<double>(within_slo) / attempted);
  res.set("serve.reloads", static_cast<double>(run.stats.reloads - 1));
  res.set("serve.reload_ms", mean(reload_ms));
  std::vector<double> to_serve_ms, save_ms;
  for (const Publisher::Entry& p : run.published) {
    save_ms.push_back(p.save_ms);
    double first = std::numeric_limits<double>::infinity();
    for (const Phase* ph : run.phases()) {
      const auto it = ph->first_seen.find(p.step);
      if (it != ph->first_seen.end()) first = std::min(first, it->second);
    }
    if (std::isfinite(first)) {
      to_serve_ms.push_back(1e3 * (first - p.published));
    }
  }
  res.set("serve.publish_to_serve_ms.p50", percentile(to_serve_ms, 50));
  res.set("serve.p99_ms.raw", 1e3 * percentile(lat, 99));
  res.set("serve.max_ms", 1e3 * percentile(lat, 100));
  for (const char* family : {"gemm", "softmax", "layernorm", "adamw"}) {
    const std::string span = std::string("kernel.") + family;
    res.set(std::string("tensor.") + family + ".gflops",
            kernel_s[span] > 0 ? kernel_flops[span] / kernel_s[span] * 1e-9
                               : 0.0);
  }
  res.set("obs.trace_overhead_frac", p50_ms / (1e3 * untraced_p50) - 1.0);
  res.set("obs.dropped_events", static_cast<double>(run.dropped));
  res.set("load.gen_late_ms.p99", percentile(late_ms, 99));
  res.set("load.gen_late_ms.max", percentile(late_ms, 100));
  if (!save_ms.empty()) res.set("ckpt.publish_ms", median(save_ms));
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve-miss" || name == "serve-hot";
}

Result run_serve(const Options& opts) {
  Result res;
  try {
    const ServeSpec spec = serve_spec(opts.workload);
    const Inputs in = make_inputs(opts.seed);
    const std::string root = opts.work_dir + "/published";
    const ServeRun untraced = serve_once(spec, opts, in, root, false);
    check_run(res, spec, in, root, untraced);
    if (res.correct() && !opts.trace) {
      set_e2e_metrics(res, untraced);
      res.set("peak_rss_mb", untraced.peak_rss_mb);
    }
    if (res.correct() && opts.trace) {
      set_isolated_metrics(res, mid_model(), derive_seed(opts.seed, "model"),
                           opts.work_dir + "/publish");
      const ServeRun traced = serve_once(spec, opts, in, root, true);
      check_run(res, spec, in, root, traced);
      res.check(traced.dropped == 0,
                std::to_string(traced.dropped) + " trace events dropped");
      if (res.correct()) {
        set_layer_metrics(res, traced, round_latency(untraced, 50));
      }
    }
    fs::remove_all(root);
  } catch (const std::exception& e) {
    res.failed += 1;
    res.check(false, e.what());
  }
  return res;
}

}  // namespace geofm::bench_e2e
