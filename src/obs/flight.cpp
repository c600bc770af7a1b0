#include "obs/flight.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "util/log.hpp"
#include "util/thread_context.hpp"

namespace geofm::obs {
namespace {

struct FlightState {
  // 0 = uninitialized (consult GEOFM_POSTMORTEM), 1 = disabled, 2 = enabled.
  std::atomic<int> state{0};
  std::atomic<u64> last_n{256};
  std::atomic<u64> seq{0};
  std::atomic<i64> write_fault_bytes{-1};

  std::mutex mu;  // guards pending + auto_dir
  bool has_pending = false;
  PostmortemBundle pending;
  std::string auto_dir;  // from GEOFM_POSTMORTEM: archive a copy at capture
};

FlightState& state() {
  static FlightState s;
  return s;
}

bool init_slow() {
  FlightState& s = state();
  static std::once_flag once;
  std::call_once(once, [&s] {
    const char* env = std::getenv("GEOFM_POSTMORTEM");
    if (env != nullptr && env[0] != '\0') {
      {
        std::lock_guard<std::mutex> lk(s.mu);
        s.auto_dir = env;
      }
      s.state.store(2, std::memory_order_relaxed);
    } else {
      s.state.store(1, std::memory_order_relaxed);
    }
  });
  return s.state.load(std::memory_order_relaxed) == 2;
}

void append_escaped(std::string& out, const std::string& v) {
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
}

void append_quoted(std::string& out, const std::string& v) {
  out += '"';
  append_escaped(out, v);
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void append_int_array(std::string& out, const std::vector<int>& v) {
  out += '[';
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(v[i]);
  }
  out += ']';
}

const char* kind_name(MetricSample::Kind k) {
  switch (k) {
    case MetricSample::Kind::kCounter: return "counter";
    case MetricSample::Kind::kGauge: return "gauge";
    case MetricSample::Kind::kHistogram: return "histogram";
  }
  return "counter";
}

/// Keeps the last `n` complete spans per rank from a full trace snapshot,
/// ordered rank-major then oldest-first — the "what was each rank doing
/// right before it died" view.
std::vector<TraceEvent> last_n_spans_per_rank(std::vector<TraceEvent> events,
                                              u64 n) {
  std::map<int, std::vector<TraceEvent>> by_rank;
  for (auto& e : events) {
    if (e.phase != TraceEvent::Phase::kComplete) continue;
    by_rank[e.rank].push_back(e);
  }
  std::vector<TraceEvent> out;
  for (auto& [rank, v] : by_rank) {
    std::stable_sort(v.begin(), v.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.ts_ns < b.ts_ns;
                     });
    const size_t keep = std::min<size_t>(v.size(), static_cast<size_t>(n));
    out.insert(out.end(), v.end() - static_cast<std::ptrdiff_t>(keep),
               v.end());
  }
  return out;
}

/// Atomic bundle write: temp file in the target dir, fsync-free rename.
/// The test seam truncates the payload after `fault_bytes` and fails —
/// proving a torn write can never surface as a bundle.
void write_atomic(const std::string& dir, const std::string& name,
                  const std::string& payload, i64 fault_bytes) {
  namespace fs = std::filesystem;
  fs::create_directories(dir);
  const std::string tmp = dir + "/." + name + ".tmp";
  const std::string final_path = dir + "/" + name;
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f.good()) throw Error("postmortem: cannot open " + tmp);
    if (fault_bytes >= 0 &&
        static_cast<size_t>(fault_bytes) < payload.size()) {
      f.write(payload.data(), fault_bytes);
      f.flush();
      f.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      throw Error("postmortem: injected torn write after " +
                  std::to_string(fault_bytes) + " bytes");
    }
    f.write(payload.data(),
            static_cast<std::streamsize>(payload.size()));
    f.flush();
    if (!f.good()) {
      f.close();
      std::error_code ec;
      fs::remove(tmp, ec);
      throw Error("postmortem: short write to " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, final_path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw Error("postmortem: rename to " + final_path + " failed");
  }
}

}  // namespace

std::string bundle_to_json(const PostmortemBundle& b) {
  std::string out;
  out.reserve(4096 + b.spans.size() * 128);
  out += "{\n  \"geofm_postmortem\": 1,\n  \"kind\": ";
  append_quoted(out, b.kind);
  out += ",\n  \"diagnosis\": ";
  append_quoted(out, b.diagnosis);
  out += ",\n  \"suspects\": ";
  append_int_array(out, b.suspects);
  out += ",\n  \"captured_at_seconds\": ";
  append_double(out, b.captured_at_seconds);
  out += ",\n  \"notes\": {";
  for (size_t i = 0; i < b.notes.size(); ++i) {
    if (i > 0) out += ',';
    out += "\n    ";
    append_quoted(out, b.notes[i].first);
    out += ": ";
    append_quoted(out, b.notes[i].second);
  }
  out += b.notes.empty() ? "},\n" : "\n  },\n";
  out += "  \"inflight\": [";
  for (size_t i = 0; i < b.inflight.size(); ++i) {
    const InflightOpState& op = b.inflight[i];
    if (i > 0) out += ',';
    out += "\n    {\"ticket\": " + std::to_string(op.ticket) + ", \"op\": ";
    append_quoted(out, op.op);
    out += ", \"arrived\": " + std::to_string(op.arrived) +
           ", \"size\": " + std::to_string(op.size) + ", \"age_seconds\": ";
    append_double(out, op.age_seconds);
    out += ", \"missing\": ";
    append_int_array(out, op.missing);
    out += '}';
  }
  out += b.inflight.empty() ? "],\n" : "\n  ],\n";
  out += "  \"spans\": [";
  for (size_t i = 0; i < b.spans.size(); ++i) {
    const TraceEvent& e = b.spans[i];
    if (i > 0) out += ',';
    out += "\n    {\"rank\": " + std::to_string(e.rank) + ", \"name\": ";
    append_quoted(out, e.name != nullptr ? e.name : "");
    out += ", \"cat\": ";
    append_quoted(out, e.cat != nullptr ? e.cat : "app");
    out += ", \"ts_us\": ";
    append_double(out, static_cast<double>(e.ts_ns) * 1e-3);
    out += ", \"dur_us\": ";
    append_double(out, static_cast<double>(e.dur_ns) * 1e-3);
    if (e.arg_name != nullptr) {
      out += ", ";
      append_quoted(out, e.arg_name);
      out += ": " + std::to_string(e.arg);
      if (e.arg2_name != nullptr) {
        out += ", ";
        append_quoted(out, e.arg2_name);
        out += ": " + std::to_string(e.arg2);
      }
    }
    out += '}';
  }
  out += b.spans.empty() ? "],\n" : "\n  ],\n";
  out += "  \"metrics\": [";
  for (size_t i = 0; i < b.metrics.size(); ++i) {
    const MetricSample& m = b.metrics[i];
    if (i > 0) out += ',';
    out += "\n    {\"name\": ";
    append_quoted(out, m.name);
    out += ", \"kind\": \"";
    out += kind_name(m.kind);
    out += "\", \"value\": ";
    append_double(out, m.value);
    if (m.kind == MetricSample::Kind::kHistogram) {
      out += ", \"count\": " + std::to_string(m.count) + ", \"mean\": ";
      append_double(out, m.mean);
      out += ", \"p50\": ";
      append_double(out, m.p50);
      out += ", \"p99\": ";
      append_double(out, m.p99);
    }
    out += '}';
  }
  out += b.metrics.empty() ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder r;
  return r;
}

void FlightRecorder::enable(u64 last_n_spans_per_rank) {
  GEOFM_CHECK(last_n_spans_per_rank > 0);
  enabled();  // env init (so auto_dir is honored even after programmatic use)
  state().last_n.store(last_n_spans_per_rank, std::memory_order_relaxed);
  state().state.store(2, std::memory_order_relaxed);
}

void FlightRecorder::disable() {
  enabled();
  state().state.store(1, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  const int s = state().state.load(std::memory_order_relaxed);
  if (s == 0) return init_slow();
  return s == 2;
}

u64 FlightRecorder::last_n_spans() const {
  return state().last_n.load(std::memory_order_relaxed);
}

void FlightRecorder::capture(const std::string& kind,
                             const std::string& diagnosis,
                             const std::vector<int>& suspects,
                             std::vector<InflightOpState> inflight) {
  if (!enabled()) return;
  FlightState& s = state();
  {
    // Cheap early-out for abort cascades (first capture wins anyway, and
    // the trace/metrics snapshots below are not free).
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.has_pending) return;
  }
  PostmortemBundle b;
  b.kind = kind;
  b.diagnosis = diagnosis;
  b.suspects = suspects;
  b.captured_at_seconds = monotonic_seconds();
  b.inflight = std::move(inflight);
  // Trace + metrics snapshots happen outside s.mu: both take their own
  // registry locks and neither can re-enter the flight recorder.
  b.spans = last_n_spans_per_rank(TraceRecorder::instance().snapshot(),
                                  s.last_n.load(std::memory_order_relaxed));
  b.metrics = MetricsRegistry::instance().snapshot();

  std::string auto_dir;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    if (s.has_pending) return;  // first capture wins
    s.pending = std::move(b);
    s.has_pending = true;
    auto_dir = s.auto_dir;
  }
  if (!auto_dir.empty()) {
    // Env-driven auto-archive: write a copy now, leave the capture pending
    // so a supervising archiver can still claim it.
    PostmortemBundle copy;
    {
      std::lock_guard<std::mutex> lk(s.mu);
      copy = s.pending;
    }
    const u64 seq = s.seq.fetch_add(1, std::memory_order_relaxed);
    char name[96];
    std::snprintf(name, sizeof(name), "postmortem_%03llu_%s.json",
                  static_cast<unsigned long long>(seq), copy.kind.c_str());
    try {
      write_atomic(auto_dir, name, bundle_to_json(copy),
                   s.write_fault_bytes.exchange(-1,
                                               std::memory_order_relaxed));
    } catch (const std::exception& e) {
      GEOFM_WARN("postmortem auto-archive failed: " << e.what());
    }
  }
}

void FlightRecorder::capture_now(const std::string& diagnosis) {
  capture("explicit", diagnosis, {}, {});
}

bool FlightRecorder::has_capture() const {
  FlightState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  return s.has_pending;
}

bool FlightRecorder::peek(PostmortemBundle& out) const {
  FlightState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  if (!s.has_pending) return false;
  out = s.pending;
  return true;
}

void FlightRecorder::discard() {
  FlightState& s = state();
  std::lock_guard<std::mutex> lk(s.mu);
  s.has_pending = false;
  s.pending = PostmortemBundle{};
}

std::string FlightRecorder::archive(
    const std::string& dir,
    std::vector<std::pair<std::string, std::string>> notes) {
  FlightState& s = state();
  PostmortemBundle b;
  {
    std::lock_guard<std::mutex> lk(s.mu);
    GEOFM_CHECK(s.has_pending, "postmortem: no capture pending");
    b = std::move(s.pending);
    s.has_pending = false;
    s.pending = PostmortemBundle{};
  }
  for (auto& kv : notes) b.notes.push_back(std::move(kv));
  const u64 seq = s.seq.fetch_add(1, std::memory_order_relaxed);
  char name[96];
  std::snprintf(name, sizeof(name), "postmortem_%03llu_%s.json",
                static_cast<unsigned long long>(seq), b.kind.c_str());
  write_atomic(dir, name, bundle_to_json(b),
               s.write_fault_bytes.exchange(-1, std::memory_order_relaxed));
  return dir + "/" + name;
}

u64 FlightRecorder::bundles_written() const {
  return state().seq.load(std::memory_order_relaxed);
}

void FlightRecorder::set_write_fault_for_test(i64 fail_after_bytes) {
  state().write_fault_bytes.store(fail_after_bytes,
                                  std::memory_order_relaxed);
}

}  // namespace geofm::obs
