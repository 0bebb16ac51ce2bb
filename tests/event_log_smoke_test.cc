// End-to-end gate for the per-query event log: runs real bench binaries
// at tiny scale with CONFCARD_EVENTS_JSONL (and the metrics artifact)
// armed and checks that (a) every record carries the full schema, and
// (b) the mean of the per-query covered bits, grouped by method run,
// reproduces the artifact's "harness.coverage.<run>.<model>.<method>"
// gauge to 1e-9 — the event stream and the aggregate tables must be two
// views of the same data. The online bench additionally checks the
// stream events against the conformal.online.* monitors. Binary paths
// are baked in by CMake.
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/event_log.h"
#include "obs/json.h"

namespace confcard {
namespace {

using obs::JsonValue;

std::string ReadFileOrEmpty(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct BenchOutput {
  JsonValue artifact;
  std::vector<JsonValue> events;
};

void RunBench(const char* bench_path, const std::string& tag,
              BenchOutput* out) {
  const auto tmp = std::filesystem::temp_directory_path();
  const auto artifact = tmp / ("confcard_events_" + tag + ".json");
  const auto events = tmp / ("confcard_events_" + tag + ".jsonl");
  std::filesystem::remove(artifact);
  std::filesystem::remove(events);
  const std::string cmd =
      "CONFCARD_SCALE=0.01 CONFCARD_METRICS_JSON=" + artifact.string() +
      " CONFCARD_EVENTS_JSONL=" + events.string() + " " + bench_path +
      " > /dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;

  Result<JsonValue> doc = obs::ParseJson(ReadFileOrEmpty(artifact));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  out->artifact = std::move(doc).value();

  size_t skipped = 0;
  Result<std::vector<JsonValue>> recs =
      obs::ReadJsonlFile(events.string(), &skipped);
  ASSERT_TRUE(recs.ok()) << recs.status().ToString();
  EXPECT_EQ(skipped, 0u);
  out->events = std::move(recs).value();

  std::filesystem::remove(artifact);
  std::filesystem::remove(events);
}

void CheckSchema(const JsonValue& e) {
  for (const char* key :
       {"run", "q", "model", "method", "alpha", "est", "lo", "hi", "truth",
        "covered", "width", "qerr", "lat_us"}) {
    ASSERT_NE(e.Find(key), nullptr) << "event lacks key " << key;
  }
  ASSERT_EQ(e.Find("covered")->kind, JsonValue::Kind::kBool);
  ASSERT_FALSE(e.Find("model")->string_value.empty());
  ASSERT_FALSE(e.Find("method")->string_value.empty());
}

// Groups batch-harness events (run > 0) and asserts each group's mean
// covered bit equals the artifact coverage gauge to 1e-9.
void CheckCoverageReproduction(const BenchOutput& out) {
  struct Group {
    std::string model, method;
    uint64_t count = 0;
    uint64_t covered = 0;
  };
  std::map<uint64_t, Group> groups;
  for (const JsonValue& e : out.events) {
    CheckSchema(e);
    const uint64_t run = static_cast<uint64_t>(e.Find("run")->number);
    if (run == 0) continue;  // online stream, no batch gauge
    Group& g = groups[run];
    g.model = e.Find("model")->string_value;
    g.method = e.Find("method")->string_value;
    ++g.count;
    g.covered += e.Find("covered")->bool_value ? 1 : 0;
  }
  ASSERT_FALSE(groups.empty());

  const JsonValue* gauges = out.artifact.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const auto& [run, g] : groups) {
    const std::string name = "harness.coverage." + std::to_string(run) +
                             "." + g.model + "." + g.method;
    const JsonValue* gauge = gauges->Find(name);
    ASSERT_NE(gauge, nullptr) << name;
    const double event_coverage =
        static_cast<double>(g.covered) / static_cast<double>(g.count);
    EXPECT_NEAR(event_coverage, gauge->number, 1e-9) << name;
  }
}

#ifdef CONFCARD_FIG_BENCH_PATH
TEST(EventLogSmokeTest, FigureBenchEventsReproduceArtifactCoverage) {
  BenchOutput out;
  RunBench(CONFCARD_FIG_BENCH_PATH, "fig", &out);
  ASSERT_GE(out.events.size(), 100u);
  CheckCoverageReproduction(out);
  // The artifact records that events were streamed this run.
  const JsonValue* meta = out.artifact.Find("run")->Find("meta");
  ASSERT_NE(meta, nullptr);
  const JsonValue* flag = meta->Find("events_jsonl");
  ASSERT_NE(flag, nullptr);
  EXPECT_EQ(flag->string_value, "1");
}
#endif

#ifdef CONFCARD_ABL_BENCH_PATH
TEST(EventLogSmokeTest, AblationBenchEventsReproduceArtifactCoverage) {
  // The validity ablation reruns the same (model, method) pair at
  // several alphas — the run_seq disambiguation is what keeps the
  // groups from collapsing into each other.
  BenchOutput out;
  RunBench(CONFCARD_ABL_BENCH_PATH, "abl", &out);
  ASSERT_GE(out.events.size(), 100u);
  CheckCoverageReproduction(out);
  std::map<std::string, size_t> runs_per_pair;
  for (const JsonValue& e : out.events) {
    const uint64_t q = static_cast<uint64_t>(e.Find("q")->number);
    if (q != 0) continue;
    ++runs_per_pair[e.Find("model")->string_value + "/" +
                    e.Find("method")->string_value];
  }
  size_t max_runs = 0;
  for (const auto& [pair, n] : runs_per_pair) {
    max_runs = std::max(max_runs, n);
  }
  EXPECT_GT(max_runs, 1u) << "expected repeated (model, method) runs";
}
#endif

#ifdef CONFCARD_ONLINE_BENCH_PATH
TEST(EventLogSmokeTest, OnlineBenchStreamsObserveEvents) {
  BenchOutput out;
  RunBench(CONFCARD_ONLINE_BENCH_PATH, "online", &out);

  size_t online_events = 0;
  for (const JsonValue& e : out.events) {
    CheckSchema(e);
    if (e.Find("method")->string_value != "online-s-cp") continue;
    EXPECT_EQ(e.Find("run")->number, 0.0);
    ++online_events;
  }
  ASSERT_GT(online_events, 0u);

  // One event per Observe: the stream length must match the counter.
  const JsonValue* counters = out.artifact.Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* observations =
      counters->Find("conformal.online.observations");
  ASSERT_NE(observations, nullptr);
  EXPECT_EQ(static_cast<double>(online_events), observations->number);

  // The rolling monitors were published.
  const JsonValue* gauges = out.artifact.Find("gauges");
  ASSERT_NE(gauges, nullptr);
  for (const char* name :
       {"conformal.online.rolling_coverage", "conformal.online.rolling_width",
        "conformal.online.window_occupancy"}) {
    ASSERT_NE(gauges->Find(name), nullptr) << name;
  }
  const JsonValue* cov = gauges->Find("conformal.online.rolling_coverage");
  EXPECT_GE(cov->number, 0.0);
  EXPECT_LE(cov->number, 1.0);
}
#endif

}  // namespace
}  // namespace confcard
