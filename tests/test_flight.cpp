// Flight recorder, telemetry sampler, and run-health report tests.
//
// The flight tests drive real elastic runs: a fault-injected failure must
// leave exactly one postmortem bundle per recovery attempt, and the
// bundle's kind/diagnosis/suspects must match what the abort path (fault
// plan or watchdog) actually diagnosed. Atomicity is checked with the
// recorder's torn-write seam: a failed archive must leave nothing behind.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "comm/communicator.hpp"
#include "comm/fault.hpp"
#include "comm/watchdog.hpp"
#include "data/datasets.hpp"
#include "models/mae.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "parallel/fsdp.hpp"
#include "train/distributed.hpp"
#include "train/elastic.hpp"
#include "util/thread_context.hpp"

namespace geofm {
namespace {

using comm::Communicator;
using comm::run_ranks;
using obs::FlightRecorder;
using obs::PostmortemBundle;
using obs::TraceEvent;
using obs::TraceRecorder;
using obs::TraceScope;
using parallel::Fsdp;
using parallel::FsdpOptions;
using parallel::ShardingStrategy;
namespace fs = std::filesystem;

/// Enables tracing for one test body and restores the disabled,
/// empty-buffer state on exit so tests compose in any order.
struct TraceSession {
  TraceSession() {
    auto& r = TraceRecorder::instance();
    r.disable();
    r.clear();
    r.enable();
  }
  ~TraceSession() {
    auto& r = TraceRecorder::instance();
    r.disable();
    r.clear();
  }
};

/// Disarms the flight recorder and drops any leftover capture on exit.
struct FlightSession {
  ~FlightSession() {
    FlightRecorder::instance().set_write_fault_for_test(-1);
    FlightRecorder::instance().discard();
    FlightRecorder::instance().disable();
  }
};

models::MaeConfig elastic_mae_cfg() {
  models::ViTConfig enc{.name = "t", .width = 16, .depth = 3, .mlp_dim = 32,
                        .heads = 2, .img_size = 16, .patch_size = 4,
                        .in_channels = 3};
  return models::mae_for(enc);
}

std::string fresh_root(const std::string& name) {
  const std::string root = "/tmp/" + name;
  fs::remove_all(root);
  ckpt::reset_save_state(root);
  return root;
}

train::ElasticConfig base_config(const std::string& ckpt_root) {
  train::ElasticConfig cfg;
  cfg.model = elastic_mae_cfg();
  cfg.model_seed = 42;
  cfg.world = 4;
  cfg.fsdp.strategy = ShardingStrategy::kFullShard;
  cfg.train.steps = 8;
  cfg.train.global_batch = 12;  // divides 4, 3, and 2 — shrink-friendly
  cfg.train.lr = 1e-3;
  cfg.train.seed = 5;
  cfg.train.loader_workers = 0;
  cfg.train.verbose = false;
  cfg.train.checkpoint_every_n_steps = 3;
  cfg.train.checkpoint_dir = ckpt_root;
  cfg.train.async_checkpoint = false;
  return cfg;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Bundle files (postmortem_*.json) in a directory; run_health.json and
/// temp files do not count.
std::vector<std::string> bundle_files(const std::string& dir) {
  std::vector<std::string> out;
  if (!fs::exists(dir)) return out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("postmortem_", 0) == 0 &&
        name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      out.push_back(entry.path().string());
    }
  }
  return out;
}

bool dir_has_tmp_files(const std::string& dir) {
  if (!fs::exists(dir)) return false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp") != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// The value part of a top-level `"key": <value>` line in a bundle,
/// trailing comma stripped ("" if absent).
std::string json_line_value(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const auto pos = text.find(needle);
  if (pos == std::string::npos) return "";
  auto end = text.find('\n', pos);
  if (end == std::string::npos) end = text.size();
  std::string v = text.substr(pos + needle.size(), end - pos - needle.size());
  while (!v.empty() && (v.back() == ',' || v.back() == '\r')) v.pop_back();
  return v;
}

// Minimal structural JSON check: balanced braces/brackets outside string
// literals, non-empty, object at top level.
void expect_valid_json_structure(const std::string& s) {
  ASSERT_FALSE(s.empty());
  EXPECT_EQ(s.front(), '{');
  int depth_brace = 0, depth_bracket = 0;
  bool in_string = false, escaped = false;
  for (char c : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++depth_brace; break;
      case '}': --depth_brace; break;
      case '[': ++depth_bracket; break;
      case ']': --depth_bracket; break;
      default: break;
    }
    EXPECT_GE(depth_brace, 0);
    EXPECT_GE(depth_bracket, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth_brace, 0);
  EXPECT_EQ(depth_bracket, 0);
}

// ----- postmortem bundles from real elastic failures -------------------------

TEST(Postmortem, KillLeavesOneBundlePerRecovery) {
  FlightSession flight_session;
  const std::string root = fresh_root("geofm_test_flight_kill");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 5));

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.recoveries, 1);

  // One bundle per recovery attempt, next to the checkpoints.
  const std::string pm_dir = root + "/postmortem";
  const auto bundles = bundle_files(pm_dir);
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_FALSE(dir_has_tmp_files(pm_dir));

  // The failed attempt links its bundle; the completing one has none.
  EXPECT_EQ(res.attempts[0].postmortem, bundles[0]);
  EXPECT_TRUE(res.attempts[1].postmortem.empty());

  const std::string text = read_file(bundles[0]);
  expect_valid_json_structure(text);
  EXPECT_EQ(json_line_value(text, "kind"), "\"fault_kill\"");
  EXPECT_NE(text.find("killed by fault plan"), std::string::npos);
  // Archiver notes carry the supervisor's context.
  EXPECT_NE(text.find("\"attempt\": \"0\""), std::string::npos);
  EXPECT_NE(text.find("\"world\": \"4\""), std::string::npos);
  // The bundle froze evidence: spans from multiple ranks plus metrics.
  EXPECT_NE(text.find("\"spans\""), std::string::npos);
  EXPECT_NE(text.find("\"rank\": 0"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);

  // The completing run leaves its health report alongside the bundles.
  EXPECT_TRUE(fs::exists(pm_dir + "/run_health.json"));
  expect_valid_json_structure(read_file(pm_dir + "/run_health.json"));

  fs::remove_all(root);
}

TEST(Postmortem, StallBundleMatchesWatchdogDiagnosis) {
  FlightSession flight_session;
  const std::string root = fresh_root("geofm_test_flight_stall");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  cfg.train.steps = 6;
  cfg.train.checkpoint_every_n_steps = 2;
  cfg.faults.events.push_back(comm::FaultEvent::stall_at_step(2, 4, 2.5));
  cfg.watchdog_deadline_seconds = 0.75;

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{2}));

  const auto bundles = bundle_files(root + "/postmortem");
  ASSERT_EQ(bundles.size(), 1u);
  const std::string text = read_file(bundles[0]);
  expect_valid_json_structure(text);

  // The bundle's diagnosis IS the watchdog's: kind, stalled-rank
  // suspects, and the human-readable stall message all match.
  EXPECT_EQ(json_line_value(text, "kind"), "\"watchdog_abort\"");
  EXPECT_EQ(json_line_value(text, "suspects"), "[2]");
  EXPECT_NE(text.find("stalled in"), std::string::npos);
  EXPECT_NE(res.attempts[0].failure.find("stalled in"), std::string::npos);

  fs::remove_all(root);
}

TEST(Postmortem, SlowRankPastDeadlineDiagnosedAndArchived) {
  FlightSession flight_session;
  const std::string root = fresh_root("geofm_test_flight_slow");
  auto corpus = data::million_aid_pretrain(64, 16);
  auto cfg = base_config(root);
  // Rank 2 sleeps 2.5s before one post — a slow rank, not a dead one.
  // Past the 0.75s deadline that is indistinguishable from a stall, and
  // the watchdog must say so in the bundle.
  cfg.faults.events.push_back(comm::FaultEvent::slow_rank(2, 4, 2.5, 1));
  cfg.watchdog_deadline_seconds = 0.75;

  const auto res = train::run_elastic(cfg, corpus);

  ASSERT_GE(res.attempts.size(), 2u);
  EXPECT_EQ(res.recoveries, 1);
  EXPECT_EQ(res.attempts[0].quarantined, (std::vector<int>{2}));

  const auto bundles = bundle_files(root + "/postmortem");
  ASSERT_EQ(bundles.size(), 1u);
  const std::string text = read_file(bundles[0]);
  EXPECT_EQ(json_line_value(text, "kind"), "\"watchdog_abort\"");
  EXPECT_EQ(json_line_value(text, "suspects"), "[2]");

  fs::remove_all(root);
}

TEST(Postmortem, ReplayedPlanYieldsIdenticalBundleStructure) {
  FlightSession flight_session;
  auto corpus = data::million_aid_pretrain(64, 16);

  const std::string root_a = fresh_root("geofm_test_flight_replay_a");
  auto cfg = base_config(root_a);
  cfg.faults.events.push_back(comm::FaultEvent::kill_at_step(1, 5));
  const auto res_a = train::run_elastic(cfg, corpus);

  // Replay the realized fault schedule in a fresh root: the failure is
  // deterministic, so the bundle's identity fields must come out equal.
  const std::string root_b = fresh_root("geofm_test_flight_replay_b");
  auto cfg_b = base_config(root_b);
  cfg_b.faults = res_a.fired_plan;
  const auto res_b = train::run_elastic(cfg_b, corpus);

  const auto bundles_a = bundle_files(root_a + "/postmortem");
  const auto bundles_b = bundle_files(root_b + "/postmortem");
  ASSERT_EQ(bundles_a.size(), 1u);
  ASSERT_EQ(bundles_b.size(), 1u);

  const std::string text_a = read_file(bundles_a[0]);
  const std::string text_b = read_file(bundles_b[0]);
  for (const char* key : {"kind", "diagnosis", "suspects"}) {
    EXPECT_EQ(json_line_value(text_a, key), json_line_value(text_b, key))
        << "bundle field `" << key << "` diverged under replay";
  }
  EXPECT_EQ(res_a.attempts[0].failure, res_b.attempts[0].failure);

  fs::remove_all(root_a);
  fs::remove_all(root_b);
}

// ----- flight recorder unit behavior -----------------------------------------

TEST(Postmortem, BundleWriteIsAtomicUnderTornWrite) {
  FlightSession flight_session;
  TraceSession trace_session;
  auto& flight = FlightRecorder::instance();
  flight.discard();
  flight.enable(64);

  const std::string dir = "/tmp/geofm_test_flight_atomic";
  fs::remove_all(dir);

  flight.capture_now("torn-write probe");
  ASSERT_TRUE(flight.has_capture());
  flight.set_write_fault_for_test(48);
  EXPECT_THROW(flight.archive(dir), Error);

  // A torn write must leave NOTHING: no bundle, no temp file.
  EXPECT_TRUE(bundle_files(dir).empty());
  EXPECT_FALSE(dir_has_tmp_files(dir));

  // The seam disarms itself after one shot; the next capture archives.
  flight.capture_now("clean retry");
  const std::string path = flight.archive(dir, {{"note", "ok"}});
  ASSERT_TRUE(fs::exists(path));
  const std::string text = read_file(path);
  expect_valid_json_structure(text);
  EXPECT_EQ(json_line_value(text, "kind"), "\"explicit\"");
  EXPECT_NE(text.find("\"note\": \"ok\""), std::string::npos);
  EXPECT_FALSE(flight.has_capture());

  fs::remove_all(dir);
}

TEST(Postmortem, FirstCaptureWinsAndLastNSpansPerRankCapped) {
  FlightSession flight_session;
  TraceSession trace_session;
  auto& flight = FlightRecorder::instance();
  flight.discard();
  flight.enable(8);
  EXPECT_EQ(flight.last_n_spans(), 8u);

  // Two ranks each emit more spans than the cap keeps.
  for (int rank : {0, 1}) {
    std::thread emitter([rank] {
      set_thread_rank(rank);
      for (int i = 0; i < 30; ++i) {
        TraceScope s("pm.span", "test", "i", i);
      }
    });
    emitter.join();
  }

  flight.capture_now("root cause");
  flight.capture_now("cascade echo");  // must not displace the first

  PostmortemBundle b;
  ASSERT_TRUE(flight.peek(b));
  EXPECT_EQ(b.kind, "explicit");
  EXPECT_EQ(b.diagnosis, "root cause");

  int rank0 = 0, rank1 = 0;
  u64 prev_ts = 0;
  int prev_rank = -2;
  for (const TraceEvent& e : b.spans) {
    if (e.rank == 0) ++rank0;
    if (e.rank == 1) ++rank1;
    // Oldest-first within each rank.
    if (e.rank == prev_rank) {
      EXPECT_GE(e.ts_ns, prev_ts);
    }
    prev_rank = e.rank;
    prev_ts = e.ts_ns;
  }
  EXPECT_EQ(rank0, 8);
  EXPECT_EQ(rank1, 8);
  // The kept spans are the MOST RECENT ones: the last emitted arg index
  // (29) survives, the first (0) does not.
  bool saw_last = false, saw_first = false;
  for (const TraceEvent& e : b.spans) {
    if (e.arg == 29) saw_last = true;
    if (e.arg == 0) saw_first = true;
  }
  EXPECT_TRUE(saw_last);
  EXPECT_FALSE(saw_first);

  flight.discard();
  EXPECT_FALSE(flight.has_capture());
}

TEST(Postmortem, BarrierStallFreezesMissingRankAsInflightOp) {
  // A barrier is an ordinary op of the collective engine, so the abort
  // path freezes a rank missing from one like any collective: an
  // `inflight` entry with "op": "barrier" and the world rank missing.
  FlightSession flight_session;
  auto& flight = FlightRecorder::instance();
  flight.discard();
  flight.enable();
  run_ranks(3, [&](Communicator& c) {
    if (c.rank() == 0) {
      comm::WatchdogOptions opts;
      opts.deadline_seconds = 0.3;
      c.start_watchdog(opts);
    }
    if (c.rank() == 2) {
      while (!c.aborted()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    EXPECT_THROW(c.barrier(), comm::Aborted);
  });

  PostmortemBundle b;
  ASSERT_TRUE(flight.peek(b));
  EXPECT_EQ(b.kind, "watchdog_abort");
  EXPECT_EQ(b.suspects, (std::vector<int>{2}));
  ASSERT_EQ(b.inflight.size(), 1u);
  EXPECT_EQ(b.inflight[0].op, "barrier");
  EXPECT_EQ(b.inflight[0].arrived, 2);
  EXPECT_EQ(b.inflight[0].size, 3);
  EXPECT_EQ(b.inflight[0].missing, (std::vector<int>{2}));
  const std::string text = obs::bundle_to_json(b);
  expect_valid_json_structure(text);
  EXPECT_NE(text.find("\"op\": \"barrier\""), std::string::npos);
}

// ----- telemetry sampler -----------------------------------------------------

TEST(Telemetry, SamplerEmitsJsonlTimeSeries) {
  TraceSession trace_session;
  const std::string dir = "/tmp/geofm_test_telemetry";
  fs::remove_all(dir);

  obs::telemetry::TelemetryOptions opts;
  opts.dir = dir;
  opts.interval_seconds = 0.02;
  ASSERT_TRUE(obs::telemetry::start(opts));
  EXPECT_FALSE(obs::telemetry::start(opts));  // one sampler per process
  EXPECT_TRUE(obs::telemetry::running());

  auto corpus = data::million_aid_pretrain(64, 16);
  train::DistributedPretrainConfig cfg;
  cfg.steps = 4;
  cfg.global_batch = 8;
  cfg.lr = 1e-3;
  cfg.seed = 3;
  cfg.loader_workers = 0;
  cfg.verbose = false;
  run_ranks(2, [&](Communicator& c) {
    Rng rng(7);
    models::MAE mae(elastic_mae_cfg(), rng);
    FsdpOptions fopts;
    fopts.strategy = ShardingStrategy::kFullShard;
    Fsdp fsdp(mae, c, fopts);
    train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
  });

  obs::telemetry::stop();
  EXPECT_FALSE(obs::telemetry::running());
  obs::telemetry::stop();  // idempotent

  const std::string text = read_file(dir + "/telemetry.jsonl");
  ASSERT_FALSE(text.empty());
  std::istringstream lines(text);
  std::string line;
  int n_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++n_lines;
    expect_valid_json_structure(line);
  }
  // The stop() flush guarantees at least one sample even on a fast run.
  EXPECT_GE(n_lines, 1);
  // Across the series: timestamps, metric deltas, the per-rank step-time
  // breakdown drained from the trace, and process RSS.
  EXPECT_NE(text.find("\"t\""), std::string::npos);
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"ranks\""), std::string::npos);
  EXPECT_NE(text.find("\"step\""), std::string::npos);
#ifdef __linux__
  EXPECT_NE(text.find("\"rss_bytes\""), std::string::npos);
#endif
  // The sampler's own cost is visible to the span budget gate.
  bool saw_sample_span = false;
  for (const TraceEvent& e : TraceRecorder::instance().snapshot()) {
    if (e.phase == TraceEvent::Phase::kComplete &&
        std::string(e.name) == "telemetry.sample") {
      saw_sample_span = true;
    }
  }
  EXPECT_TRUE(saw_sample_span);

  fs::remove_all(dir);
}

// ----- run-health report -----------------------------------------------------

TEST(HealthReport, PhaseSumsReconcileWithCommStats) {
  TraceSession trace_session;
  auto corpus = data::million_aid_pretrain(64, 16);
  train::DistributedPretrainConfig cfg;
  cfg.steps = 4;
  cfg.global_batch = 8;
  cfg.lr = 1e-3;
  cfg.seed = 11;
  cfg.loader_workers = 0;
  cfg.verbose = false;

  std::mutex mu;
  std::vector<double> exposed(2, -1.0);
  run_ranks(2, [&](Communicator& c) {
    Rng rng(7);
    models::MAE mae(elastic_mae_cfg(), rng);
    FsdpOptions fopts;
    fopts.strategy = ShardingStrategy::kFullShard;
    Fsdp fsdp(mae, c, fopts);
    auto r = train::pretrain_mae_distributed(mae, fsdp, c, corpus, cfg);
    std::lock_guard<std::mutex> lk(mu);
    exposed[static_cast<size_t>(c.rank())] = r.exposed_wait_seconds;
  });

  const auto report = obs::build_run_health_report();

  ASSERT_EQ(report.ranks.size(), 2u);
  EXPECT_EQ(report.steps, 8);
  EXPECT_GT(report.step_seconds_total, 0.0);
  EXPECT_LE(report.p50_step_seconds, report.p99_step_seconds);

  double step_sum = 0, exposed_sum = 0;
  for (const auto& h : report.ranks) {
    ASSERT_GE(h.rank, 0);
    ASSERT_LT(h.rank, 2);
    EXPECT_EQ(h.steps, 4);
    EXPECT_LE(h.p50_step_seconds, h.p99_step_seconds);
    // The report's per-rank exposed comm wait is the driver's number: the
    // comm.exposed spans wrap the same wait the CommStats accumulator
    // times, so the two differ only by per-wait clock-read overhead.
    EXPECT_NEAR(h.exposed_wait_seconds, exposed[static_cast<size_t>(h.rank)],
                0.05 * exposed[static_cast<size_t>(h.rank)] + 2e-3);
    // Phases partition time measured inside steps: their sum (which
    // includes the overlapping comm.exposed category) stays within a
    // factor of the summed step time.
    double phase_sum = 0;
    for (const auto& [name, sec] : h.phase_seconds) phase_sum += sec;
    EXPECT_GT(phase_sum, 0.0);
    EXPECT_LT(phase_sum, 2.0 * h.step_seconds + 1e-6);
    step_sum += h.step_seconds;
    exposed_sum += h.exposed_wait_seconds;
  }
  EXPECT_NEAR(report.step_seconds_total, step_sum, 1e-9);
  EXPECT_NEAR(report.exposed_wait_seconds_total, exposed_sum, 1e-9);

  // Cross-rank phase totals are the sum of the per-rank maps.
  for (const auto& [name, total] : report.phase_seconds) {
    double by_rank = 0;
    for (const auto& h : report.ranks) {
      auto it = h.phase_seconds.find(name);
      if (it != h.phase_seconds.end()) by_rank += it->second;
    }
    EXPECT_NEAR(total, by_rank, 1e-9) << "phase " << name;
  }
  EXPECT_TRUE(report.phase_seconds.count("step.forward"));
  EXPECT_TRUE(report.phase_seconds.count("step.backward"));
  EXPECT_TRUE(report.phase_seconds.count("comm.exposed"));

  // Both renderings stay structurally sound.
  const std::string json = obs::report_to_json(report);
  expect_valid_json_structure(json);
  const std::string text = obs::report_to_text(report);
  EXPECT_NE(text.find("run health"), std::string::npos);
}

TEST(HealthReport, StragglerAndTimelineFromSyntheticEvents) {
  auto span = [](const char* name, int rank, double start_s, double dur_s) {
    TraceEvent e;
    e.name = name;
    e.cat = "test";
    e.rank = rank;
    e.ts_ns = static_cast<u64>(start_s * 1e9);
    e.dur_ns = static_cast<u64>(dur_s * 1e9);
    e.phase = TraceEvent::Phase::kComplete;
    return e;
  };
  auto instant = [](const char* name, int rank, double at_s) {
    TraceEvent e;
    e.name = name;
    e.cat = "test";
    e.rank = rank;
    e.ts_ns = static_cast<u64>(at_s * 1e9);
    e.phase = TraceEvent::Phase::kInstant;
    return e;
  };

  std::vector<TraceEvent> events;
  // Ranks 0 and 2 step in ~10ms; rank 1 needs 30ms — the straggler.
  for (int i = 0; i < 4; ++i) {
    events.push_back(span("step", 0, i * 0.1, 0.010));
    events.push_back(span("step", 1, i * 0.1, 0.030));
    events.push_back(span("step", 2, i * 0.1, 0.011));
  }
  // A recovery: kill at t=0.42, watchdog abort, detect/reform/reshard,
  // then a checkpoint publication.
  events.push_back(instant("fault.kill", 1, 0.42));
  events.push_back(instant("watchdog.abort", -1, 0.45));
  auto reform = span("recover.reform", -1, 0.50, 0.02);
  reform.arg_name = "world";
  reform.arg = 2;
  events.push_back(span("recover.detect", -1, 0.45, 0.05));
  events.push_back(reform);
  events.push_back(instant("ckpt.published", 0, 0.60));

  const auto report = obs::build_run_health_report(events, /*dropped=*/3);

  EXPECT_EQ(report.straggler_rank, 1);
  EXPECT_NEAR(report.skew_ratio, 0.030 / 0.011, 1e-6);
  EXPECT_EQ(report.trace_dropped, 3u);
  ASSERT_EQ(report.ranks.size(), 3u);
  EXPECT_EQ(report.steps, 12);

  // Timeline: every marker present, ordered by time, world attached to
  // the recover span that carried it.
  ASSERT_EQ(report.recovery_timeline.size(), 5u);
  for (size_t i = 1; i < report.recovery_timeline.size(); ++i) {
    EXPECT_GE(report.recovery_timeline[i].at_seconds,
              report.recovery_timeline[i - 1].at_seconds);
  }
  EXPECT_EQ(report.recovery_timeline[0].name, "fault.kill");
  bool saw_reform = false;
  for (const auto& t : report.recovery_timeline) {
    if (t.name == "recover.reform") {
      saw_reform = true;
      EXPECT_EQ(t.world, 2);
      EXPECT_NEAR(t.dur_seconds, 0.02, 1e-9);
    }
  }
  EXPECT_TRUE(saw_reform);

  const std::string text = obs::report_to_text(report);
  EXPECT_NE(text.find("straggler"), std::string::npos);
  EXPECT_NE(text.find("recover.reform"), std::string::npos);
}

TEST(HealthReport, PrometheusExposition) {
  using obs::MetricSample;
  std::vector<MetricSample> samples;
  MetricSample c;
  c.name = "comm.waits";
  c.kind = MetricSample::Kind::kCounter;
  c.value = 42;
  samples.push_back(c);
  MetricSample g;
  g.name = "recovery.world";
  g.kind = MetricSample::Kind::kGauge;
  g.value = 3;
  samples.push_back(g);
  MetricSample h;
  h.name = "step.seconds";
  h.kind = MetricSample::Kind::kHistogram;
  h.value = 1.5;  // sum
  h.count = 10;
  h.mean = 0.15;
  h.p50 = 0.14;
  h.p90 = 0.2;
  h.p99 = 0.25;
  samples.push_back(h);

  const std::string text = obs::prometheus_text(samples);

  // Names sanitized into the geofm_ namespace, one TYPE line per metric.
  EXPECT_NE(text.find("# TYPE geofm_comm_waits counter"), std::string::npos);
  EXPECT_NE(text.find("geofm_comm_waits 42"), std::string::npos);
  EXPECT_NE(text.find("# TYPE geofm_recovery_world gauge"),
            std::string::npos);
  EXPECT_NE(text.find("geofm_recovery_world 3"), std::string::npos);
  // Histograms render as summaries: quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE geofm_step_seconds summary"),
            std::string::npos);
  EXPECT_NE(text.find("geofm_step_seconds{quantile=\"0.5\"} 0.14"),
            std::string::npos);
  EXPECT_NE(text.find("geofm_step_seconds_sum 1.5"), std::string::npos);
  EXPECT_NE(text.find("geofm_step_seconds_count 10"), std::string::npos);
  // Exposition format: every line is comment or sample, ends in newline.
  EXPECT_EQ(text.back(), '\n');
}

}  // namespace
}  // namespace geofm
