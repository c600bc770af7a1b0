// FaultPlan JSON record/replay. The serialized form is the contract for
// capturing a run's realized fault schedule (`FaultInjector::fired_plan`)
// and replaying it bitwise later: every kind and every trigger field must
// survive the round trip exactly, including doubles that are not
// representable in short decimal — and the bytes on disk must not drift,
// or existing traces and postmortem bundles stop replaying.
#include <gtest/gtest.h>

#include <string>

#include "comm/fault.hpp"

namespace geofm {
namespace {

using comm::FaultEvent;
using comm::FaultPlan;
using comm::Seam;

FaultPlan every_serializable_kind() {
  FaultPlan plan;
  plan.seed = 0xfeedbeefULL;
  plan.events.push_back(FaultEvent::kill_at_step(1, 5));
  plan.events.push_back(FaultEvent::kill_at_post(3, 17));
  plan.events.push_back(FaultEvent::stall_at_step(2, 7, 0.1));
  plan.events.push_back(FaultEvent::slow_rank(0, 3, 2.5, 4));
  plan.events.push_back(FaultEvent::corrupt_at_post(3, 9));
  plan.events.push_back(FaultEvent::io_fail_write(1, 2, 3));
  plan.events.push_back(FaultEvent::io_torn_write(0, 1));
  plan.events.push_back(FaultEvent::io_slow_write(2, 0, 0.015625, 0));
  plan.events.push_back(FaultEvent::io_unreadable_at_restore(-1, 4));
  plan.events.push_back(FaultEvent::io_fail_upload(0, 2));
  plan.events.push_back(FaultEvent::io_torn_upload(1));
  plan.events.push_back(FaultEvent::io_slow_upload(3, 0.2, 1));
  plan.events.push_back(FaultEvent::loader_worker_kill(2, 6));
  plan.events.push_back(FaultEvent::loader_slow_render(-1, 3, 0.03125, 2));
  plan.events.push_back(FaultEvent::loader_poison(0, 11));
  return plan;
}

// plan_to_json(every_serializable_kind()), byte for byte, as written by
// the nine-field event struct that preceded the (seam, at, count) model.
const char* const kPinnedJson =
    "{\"seed\": 4276993775,\n \"events\": [\n"
    "  {\"kind\": \"kill\", \"rank\": 1, \"step\": 5, \"after_posts\": -1, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"none\", "
    "\"after_io\": -1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"kill\", \"rank\": 3, \"step\": -1, \"after_posts\": 17, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"none\", "
    "\"after_io\": -1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"stall\", \"rank\": 2, \"step\": 7, \"after_posts\": -1, "
    "\"seconds\": 0.10000000000000001, \"posts_affected\": 0, "
    "\"io_path\": \"none\", \"after_io\": -1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"slow_rank\", \"rank\": 0, \"step\": -1, "
    "\"after_posts\": 3, \"seconds\": 2.5, \"posts_affected\": 4, "
    "\"io_path\": \"none\", \"after_io\": -1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"corrupt\", \"rank\": 3, \"step\": -1, \"after_posts\": 9, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"none\", "
    "\"after_io\": -1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"io_fail\", \"rank\": 1, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"write\", "
    "\"after_io\": 2, \"ops_affected\": 3},\n"
    "  {\"kind\": \"io_torn\", \"rank\": 0, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"write\", "
    "\"after_io\": 1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"io_slow\", \"rank\": 2, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0.015625, \"posts_affected\": 0, \"io_path\": \"write\", "
    "\"after_io\": 0, \"ops_affected\": 0},\n"
    "  {\"kind\": \"io_unreadable\", \"rank\": -1, \"step\": -1, "
    "\"after_posts\": -1, \"seconds\": 0, \"posts_affected\": 0, "
    "\"io_path\": \"read\", \"after_io\": 4, \"ops_affected\": 1},\n"
    "  {\"kind\": \"io_fail\", \"rank\": 0, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"upload\", "
    "\"after_io\": 0, \"ops_affected\": 2},\n"
    "  {\"kind\": \"io_torn\", \"rank\": 0, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0, \"posts_affected\": 0, \"io_path\": \"upload\", "
    "\"after_io\": 1, \"ops_affected\": 1},\n"
    "  {\"kind\": \"io_slow\", \"rank\": 0, \"step\": -1, \"after_posts\": -1, "
    "\"seconds\": 0.20000000000000001, \"posts_affected\": 0, "
    "\"io_path\": \"upload\", \"after_io\": 3, \"ops_affected\": 1},\n"
    "  {\"kind\": \"loader_worker_kill\", \"rank\": 2, \"step\": -1, "
    "\"after_posts\": -1, \"seconds\": 0, \"posts_affected\": 0, "
    "\"io_path\": \"render\", \"after_io\": 6, \"ops_affected\": 1},\n"
    "  {\"kind\": \"loader_slow_render\", \"rank\": -1, \"step\": -1, "
    "\"after_posts\": -1, \"seconds\": 0.03125, \"posts_affected\": 0, "
    "\"io_path\": \"render\", \"after_io\": 3, \"ops_affected\": 2},\n"
    "  {\"kind\": \"loader_poison\", \"rank\": 0, \"step\": -1, "
    "\"after_posts\": -1, \"seconds\": 0, \"posts_affected\": 0, "
    "\"io_path\": \"render\", \"after_io\": 11, \"ops_affected\": 1}\n"
    " ]}\n";

void expect_same_events(const FaultPlan& got, const FaultPlan& want) {
  EXPECT_EQ(got.seed, want.seed);
  ASSERT_EQ(got.events.size(), want.events.size());
  for (size_t i = 0; i < want.events.size(); ++i) {
    const FaultEvent& w = want.events[i];
    const FaultEvent& g = got.events[i];
    EXPECT_EQ(g.kind, w.kind) << "event " << i;
    EXPECT_EQ(g.rank, w.rank) << "event " << i;
    EXPECT_EQ(g.seam, w.seam) << "event " << i;
    EXPECT_EQ(g.at, w.at) << "event " << i;
    EXPECT_EQ(g.count, w.count) << "event " << i;
    EXPECT_EQ(g.seconds, w.seconds) << "event " << i;
  }
}

TEST(FaultTrace, JsonRoundTrip) {
  const FaultPlan plan = every_serializable_kind();
  const std::string json = comm::plan_to_json(plan);
  // The on-disk bytes are pinned: old traces and postmortem bundles must
  // keep replaying.
  EXPECT_EQ(json, kPinnedJson);

  // Serializing the parse reproduces the exact byte string: the format is
  // stable and lossless (doubles printed round-trip exact).
  const FaultPlan parsed = comm::plan_from_json(json);
  EXPECT_EQ(comm::plan_to_json(parsed), json);
  expect_same_events(parsed, plan);

  // A hand-trimmed trace in the same schema (fields omitted take their
  // defaults) parses to the same triggers.
  const FaultPlan trimmed = comm::plan_from_json(
      "{\"seed\": 3, \"events\": ["
      "{\"kind\": \"kill\", \"rank\": 1, \"step\": 5},"
      "{\"kind\": \"slow_rank\", \"after_posts\": 3, \"seconds\": 2.5, "
      "\"posts_affected\": 4},"
      "{\"kind\": \"io_torn\", \"io_path\": \"upload\", \"after_io\": 1}]}");
  FaultPlan want;
  want.seed = 3;
  want.events = {FaultEvent::kill_at_step(1, 5),
                 FaultEvent::slow_rank(0, 3, 2.5, 4),
                 FaultEvent::io_torn_upload(1)};
  expect_same_events(trimmed, want);
}

TEST(FaultTrace, MalformedJsonIsRejected) {
  EXPECT_THROW(comm::plan_from_json(""), Error);
  // A plan with no events is valid (an empty realized schedule).
  EXPECT_TRUE(comm::plan_from_json("{\"seed\": 1}").events.empty());
  EXPECT_THROW(
      comm::plan_from_json("{\"seed\": 1, \"events\": [{\"kind\": \"nope\"}]}"),
      Error);
  // Unknown keys are an error, not silently dropped: a replay must never
  // quietly ignore part of the schedule it was handed.
  const std::string unknown =
      "{\"seed\": 1,\n \"events\": [\n  {\"kind\": \"kill\", \"rank\": 0, "
      "\"step\": 1, \"mystery\": 3}\n ]}\n";
  EXPECT_THROW(comm::plan_from_json(unknown), Error);

  // Outside input: every field is range-checked instead of being cast or
  // wrapped into a different schedule.
  auto event = [](const std::string& fields) {
    return "{\"seed\": 1, \"events\": [{\"kind\": \"stall\", " + fields +
           "}]}";
  };
  EXPECT_NO_THROW(comm::plan_from_json(event("\"rank\": 1, \"step\": 2")));
  for (const std::string bad : {
           "\"rank\": 1e300, \"step\": 2",             // rank not an int
           "\"rank\": 1, \"step\": 9223372036854775808",  // ordinal > i64
           "\"rank\": 1, \"step\": 2.5",               // fractional ordinal
           "\"rank\": 1, \"step\": 2, \"seconds\": 1e999",  // infinite
           "\"rank\": 1, \"step\": 2, \"seconds\": nan",    // not a number
           "\"rank\": 1, \"step\": 2, \"seconds\": -0.5",   // negative delay
           "\"rank\": 1",                              // no trigger
           "\"rank\": 1, \"step\": 2, \"after_posts\": 3",  // two triggers
           "\"rank\": 1, \"step\": 2, \"io_path\": \"write\", \"after_io\": 0",
           "\"rank\": 1, \"io_path\": \"write\"",      // path without op
           "\"rank\": 1, \"io_path\": \"post\", \"after_io\": 0",
       }) {
    EXPECT_THROW(comm::plan_from_json(event(bad)), Error) << bad;
  }
  EXPECT_THROW(comm::plan_from_json("{\"seed\": -1}"), Error);
  EXPECT_THROW(comm::plan_from_json("{\"seed\": 18446744073709551616}"),
               Error);

  // A well-formed event that no seam acts on is refused when the plan is
  // installed, rather than accepted and never fired.
  FaultEvent corrupt_write = FaultEvent::io_fail_write(0, 0);
  corrupt_write.kind = FaultEvent::Kind::kCorrupt;
  FaultEvent kill_render = FaultEvent::loader_poison(0, 0);
  kill_render.kind = FaultEvent::Kind::kKill;
  for (const FaultEvent& e :
       {corrupt_write, kill_render, FaultEvent::kill_at_step(-1, 3),
        FaultEvent::io_torn_write(0, -2)}) {
    EXPECT_THROW(comm::FaultInjector(FaultPlan{0, {e}}), Error);
  }
}

TEST(FaultTrace, FiredPlanCapturesOnlyFiredEvents) {
  FaultPlan plan;
  plan.seed = 11;
  plan.events.push_back(FaultEvent::io_fail_write(0, 0));
  plan.events.push_back(FaultEvent::io_fail_write(0, 99));  // never reached
  comm::FaultInjector injector(plan);
  EXPECT_FALSE(injector.has(Seam::kRead));
  const auto fault = injector.hit(Seam::kWrite, 0);
  EXPECT_TRUE(fault.has(FaultEvent::Kind::kIoFail));

  const FaultPlan fired = injector.fired_plan();
  EXPECT_EQ(fired.seed, plan.seed);
  ASSERT_EQ(fired.events.size(), 1u);
  EXPECT_EQ(fired.events[0].at, 0);
  // The realized schedule is serializable as-is.
  const FaultPlan replay = comm::plan_from_json(comm::plan_to_json(fired));
  ASSERT_EQ(replay.events.size(), 1u);
  EXPECT_EQ(replay.events[0].kind, FaultEvent::Kind::kIoFail);
}

}  // namespace
}  // namespace geofm
