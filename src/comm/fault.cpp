#include "comm/fault.hpp"

#include <chrono>
#include <iterator>
#include <thread>

#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace geofm::comm {

namespace {

using Kind = FaultEvent::Kind;

constexpr u32 bit(Seam s) { return 1u << static_cast<int>(s); }
constexpr u32 kCommSeams = bit(Seam::kStep) | bit(Seam::kPost);
constexpr u32 kStorageSeams =
    bit(Seam::kWrite) | bit(Seam::kRead) | bit(Seam::kUpload);

// The kind table, indexed by Kind: the stable name, the trace instant
// emitted when the kind fires, the firing rule, whether the effect is an
// inline sleep of `seconds` (else a FaultHit bit the seam applies), and
// the seams that act on the kind.
struct KindInfo {
  const char* name;
  const char* instant;
  bool windowed;
  bool delays;
  u32 seams;
};

constexpr KindInfo kKinds[] = {
    {"kill", "fault.kill", false, false, kCommSeams},
    {"stall", "fault.stall", false, true, kCommSeams},
    {"slow_rank", nullptr, true, true, bit(Seam::kPost)},
    {"corrupt", "fault.corrupt", false, false, bit(Seam::kPost)},
    {"io_fail", "fault.io", true, false, kStorageSeams},
    {"io_torn", "fault.io", false, false, kStorageSeams},
    {"io_slow", "fault.io_slow", true, true, kStorageSeams},
    {"io_unreadable", "fault.io", false, false, kStorageSeams},
    {"loader_worker_kill", "fault.loader", false, false, bit(Seam::kRender)},
    {"loader_slow_render", "fault.loader_slow", true, true,
     bit(Seam::kRender)},
    {"loader_poison", "fault.loader", false, false, bit(Seam::kRender)},
};
static_assert(std::size(kKinds) ==
              static_cast<size_t>(Kind::kLoaderPoison) + 1);

constexpr const char* kSeams[] = {"step", "post",   "write",
                                  "read", "upload", "render"};
static_assert(std::size(kSeams) == static_cast<size_t>(Seam::kRender) + 1);

const KindInfo& info(Kind kind) { return kKinds[static_cast<int>(kind)]; }

}  // namespace

bool FaultEvent::windowed() const { return info(kind).windowed; }

const char* kind_name(Kind kind) { return info(kind).name; }

const char* seam_name(Seam seam) { return kSeams[static_cast<int>(seam)]; }

Kind kind_from_name(const std::string& name) {
  for (size_t k = 0; k < std::size(kKinds); ++k) {
    if (name == kKinds[k].name) return static_cast<Kind>(k);
  }
  throw Error("unknown fault kind \"" + name + "\"");
}

Seam seam_from_name(const std::string& name) {
  for (size_t s = 0; s < std::size(kSeams); ++s) {
    if (name == kSeams[s]) return static_cast<Seam>(s);
  }
  throw Error("unknown fault seam \"" + name + "\"");
}

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), fired_(plan_.events.size(), false) {
  for (const FaultEvent& e : plan_.events) {
    GEOFM_CHECK(info(e.kind).seams & bit(e.seam),
                "fault kind " << kind_name(e.kind) << " does nothing at the "
                              << seam_name(e.seam) << " seam");
    GEOFM_CHECK(e.at >= 0 && e.count >= 0 && e.seconds >= 0,
                "fault event needs a non-negative ordinal, count and delay");
    GEOFM_CHECK(e.rank >= ((bit(e.seam) & kCommSeams) ? 0 : -1),
                "fault event rank " << e.rank << " is out of range at the "
                                    << seam_name(e.seam) << " seam");
    seams_ |= bit(e.seam);
  }
}

FaultHit FaultInjector::hit(Seam seam, int rank, i64 ordinal) {
  FaultHit out;
  if (!has(seam)) return out;
  double sleep_seconds = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (seam != Seam::kStep && seam != Seam::kRender) {
      ordinal = counters_[{seam, rank}]++;
    }
    for (size_t i = 0; i < plan_.events.size(); ++i) {
      const FaultEvent& e = plan_.events[i];
      if (e.seam != seam || (e.rank != -1 && e.rank != rank)) continue;
      const KindInfo& k = info(e.kind);
      const bool due =
          k.windowed
              ? ordinal >= e.at && (e.count == 0 || ordinal - e.at < e.count)
              : ordinal == e.at && !fired_[i];
      if (!due) continue;
      fired_[i] = true;
      if (k.instant != nullptr) obs::trace_instant(k.instant, "fault");
      if (k.delays) {
        sleep_seconds += e.seconds;
        continue;
      }
      out.kinds |= 1u << static_cast<int>(e.kind);
      if (out.reason.empty()) {
        const std::string where = std::string(seam_name(seam)) + " " +
                                  std::to_string(ordinal);
        out.reason = e.kind == Kind::kKill
                         ? "rank " + std::to_string(rank) +
                               " killed by fault plan at " + where
                         : std::string("injected ") + k.name + " at " +
                               where + " on rank " + std::to_string(rank);
      }
    }
  }
  // One site hash per (seed, rank, ordinal): the same plan corrupts the
  // same payload bit, or poisons the same sample, on every run.
  out.site = mix64(plan_.seed ^
                   mix64(static_cast<u64>(ordinal) + 0x9e3779b97f4a7c15ull) ^
                   static_cast<u64>(static_cast<i64>(rank) + 1));
  // Delays sleep with the injector unlocked so peers' trigger checks are
  // not serialized behind them; a long one is exactly the hang the comm
  // and loader watchdogs exist to detect.
  if (sleep_seconds > 0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(sleep_seconds));
  }
  return out;
}

std::vector<bool> FaultInjector::fired() const {
  std::lock_guard<std::mutex> lk(mu_);
  return fired_;
}

FaultPlan FaultInjector::fired_plan() const {
  std::lock_guard<std::mutex> lk(mu_);
  FaultPlan out;
  out.seed = plan_.seed;
  for (size_t i = 0; i < plan_.events.size(); ++i) {
    if (fired_[i]) out.events.push_back(plan_.events[i]);
  }
  return out;
}

}  // namespace geofm::comm
