// FaultPlan <-> JSON trace. `plan_to_json` captures a plan (typically
// `FaultInjector::fired_plan()` — the schedule a run actually realized)
// in a stable text form; `plan_from_json` loads it back for a bitwise
// replay. The format is a plain JSON object:
//
//   {"seed": 7,
//    "events": [{"kind": "kill", "rank": 1, "step": 4, "after_posts": -1,
//                "seconds": 0, "posts_affected": 0, "io_path": "none",
//                "after_io": -1, "ops_affected": 1}, ...]}
//
// The on-disk schema predates the in-memory (seam, at, count) trigger and
// is kept byte-for-byte so existing traces and postmortem bundles replay:
// exactly one of `step`, `after_posts`, or `io_path` + `after_io` names
// the trigger (the step, post, or storage/render seam), and the window of
// a windowed kind is `posts_affected` on the post seam, `ops_affected`
// elsewhere. Every field is always emitted so traces diff cleanly;
// doubles are printed with %.17g (round-trip exact).
//
// The parser is a minimal recursive-descent reader for exactly this shape
// and treats its input as untrusted: unknown keys, out-of-range integers,
// non-finite or negative delays, and events naming zero or two triggers
// are rejected with `Error` rather than replaying a different schedule.
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

#include "comm/fault.hpp"

namespace geofm::comm {

namespace {

constexpr i64 kMaxI64 = std::numeric_limits<i64>::max();
constexpr i64 kMaxInt = std::numeric_limits<int>::max();

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // %.17g prints integral doubles as e.g. "2" — valid JSON, parses back
  // exactly, so no decoration needed.
  return buf;
}

// ----- minimal JSON reader --------------------------------------------

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    GEOFM_CHECK(pos_ < text_.size(), "fault trace: unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    GEOFM_CHECK(peek() == c, "fault trace: expected '" + std::string(1, c) +
                                 "' at offset " + std::to_string(pos_));
    ++pos_;
  }

  std::string read_string() {
    expect('"');
    std::string out;
    while (true) {
      GEOFM_CHECK(pos_ < text_.size(),
                  "fault trace: unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        GEOFM_CHECK(pos_ < text_.size(),
                    "fault trace: unterminated escape");
        char esc = text_[pos_++];
        switch (esc) {
          case '"':
          case '\\':
          case '/':
            out.push_back(esc);
            break;
          case 'n':
            out.push_back('\n');
            break;
          case 't':
            out.push_back('\t');
            break;
          default:
            throw Error("fault trace: unsupported escape in string");
        }
        continue;
      }
      out.push_back(c);
    }
    return out;
  }

  /// A finite, non-negative number (delays feed sleep_for directly).
  double read_seconds() {
    skip_ws();
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    GEOFM_CHECK(end != start, "fault trace: expected a number at offset " +
                                  std::to_string(pos_));
    GEOFM_CHECK(std::isfinite(v) && v >= 0,
                "fault trace: seconds must be finite and >= 0 at offset " +
                    std::to_string(pos_));
    pos_ += static_cast<size_t>(end - start);
    return v;
  }

  /// An integer literal in [lo, hi]; fractions, exponents, and values
  /// outside i64 are rejected rather than truncated.
  i64 read_int(i64 lo, i64 hi) {
    const char* start = integer_start();
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(start, &end, 10);
    finish_integer(start, end, errno != ERANGE && v >= lo && v <= hi);
    return v;
  }

  u64 read_u64() {
    const char* start = integer_start();
    char* end = nullptr;
    errno = 0;
    // strtoull would silently wrap a leading '-'.
    const unsigned long long v = std::strtoull(start, &end, 10);
    finish_integer(start, end, errno != ERANGE && *start != '-');
    return v;
  }

  bool at_end() {
    skip_ws();
    return pos_ >= text_.size();
  }

 private:
  const char* integer_start() {
    skip_ws();
    return text_.c_str() + pos_;
  }

  void finish_integer(const char* start, const char* end, bool in_range) {
    GEOFM_CHECK(end != start, "fault trace: expected an integer at offset " +
                                  std::to_string(pos_));
    GEOFM_CHECK(in_range && *end != '.' && *end != 'e' && *end != 'E',
                "fault trace: integer out of range at offset " +
                    std::to_string(pos_));
    pos_ += static_cast<size_t>(end - start);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

FaultEvent read_event(JsonReader& r) {
  FaultEvent e;
  // The on-disk trigger fields, at the defaults an older trace omits.
  i64 step = -1, after_posts = -1, posts_affected = 0;
  i64 after_io = -1, ops_affected = 1;
  std::string io_path = "none";
  r.expect('{');
  bool first = true;
  while (r.peek() != '}') {
    if (!first) r.expect(',');
    first = false;
    const std::string key = r.read_string();
    r.expect(':');
    if (key == "kind") {
      e.kind = kind_from_name(r.read_string());
    } else if (key == "io_path") {
      io_path = r.read_string();
    } else if (key == "rank") {
      e.rank = static_cast<int>(r.read_int(-1, kMaxInt));
    } else if (key == "step") {
      step = r.read_int(-1, kMaxI64);
    } else if (key == "after_posts") {
      after_posts = r.read_int(-1, kMaxI64);
    } else if (key == "seconds") {
      e.seconds = r.read_seconds();
    } else if (key == "posts_affected") {
      posts_affected = r.read_int(0, kMaxI64);
    } else if (key == "after_io") {
      after_io = r.read_int(-1, kMaxI64);
    } else if (key == "ops_affected") {
      ops_affected = r.read_int(0, kMaxI64);
    } else {
      throw Error("fault trace: unknown event field \"" + key + "\"");
    }
  }
  r.expect('}');

  const bool io = io_path != "none" || after_io >= 0;
  GEOFM_CHECK((step >= 0) + (after_posts >= 0) + io == 1,
              "fault trace: an event must name exactly one trigger (step, "
              "after_posts, or io_path + after_io)");
  if (step >= 0) {
    e.seam = Seam::kStep;
    e.at = step;
  } else if (after_posts >= 0) {
    e.seam = Seam::kPost;
    e.at = after_posts;
    e.count = posts_affected;
  } else {
    e.seam = seam_from_name(io_path);
    GEOFM_CHECK(e.seam != Seam::kStep && e.seam != Seam::kPost && after_io >= 0,
                "fault trace: io_path \"" + io_path +
                    "\" needs a storage or render path and an after_io");
    e.at = after_io;
    e.count = ops_affected;
  }
  if (!e.windowed()) e.count = 1;
  return e;
}

}  // namespace

std::string plan_to_json(const FaultPlan& plan) {
  std::string out = "{\"seed\": " + std::to_string(plan.seed) +
                    ",\n \"events\": [";
  bool first = true;
  for (const auto& e : plan.events) {
    const bool step = e.seam == Seam::kStep;
    const bool post = e.seam == Seam::kPost;
    const bool io = !step && !post;
    if (!first) out += ",";
    first = false;
    out += "\n  {\"kind\": \"" + std::string(kind_name(e.kind)) + "\"";
    out += ", \"rank\": " + std::to_string(e.rank);
    out += ", \"step\": " + std::to_string(step ? e.at : -1);
    out += ", \"after_posts\": " + std::to_string(post ? e.at : -1);
    out += ", \"seconds\": " + format_double(e.seconds);
    out += ", \"posts_affected\": " +
           std::to_string(post && e.windowed() ? e.count : 0);
    out += ", \"io_path\": \"" + std::string(io ? seam_name(e.seam) : "none") +
           "\"";
    out += ", \"after_io\": " + std::to_string(io ? e.at : -1);
    out += ", \"ops_affected\": " +
           std::to_string(io && e.windowed() ? e.count : 1);
    out += "}";
  }
  out += first ? "]}\n" : "\n ]}\n";
  return out;
}

FaultPlan plan_from_json(const std::string& json) {
  JsonReader r(json);
  FaultPlan plan;
  r.expect('{');
  bool first = true;
  while (r.peek() != '}') {
    if (!first) r.expect(',');
    first = false;
    const std::string key = r.read_string();
    r.expect(':');
    if (key == "seed") {
      plan.seed = r.read_u64();
    } else if (key == "events") {
      r.expect('[');
      while (r.peek() != ']') {
        plan.events.push_back(read_event(r));
        if (r.peek() != ']') r.expect(',');
      }
      r.expect(']');
    } else {
      throw Error("fault trace: unknown top-level field \"" + key + "\"");
    }
  }
  r.expect('}');
  GEOFM_CHECK(r.at_end(), "fault trace: trailing content after plan");
  return plan;
}

}  // namespace geofm::comm
