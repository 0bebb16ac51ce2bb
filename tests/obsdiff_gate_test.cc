// The artifact regression gate, unit and end to end. Unit: DiffRuns
// threshold semantics on synthetic RunViews. End to end: run a real
// ablation bench twice at tiny scale with both the metrics artifact and
// the per-query event log armed, assert obsdiff exits 0 across the two
// runs with timing off and every other number held exact (they are
// seed-deterministic), then rewrite a copy of the first artifact with a
// synthetic 2x latency inflation / 5-point coverage drop and assert
// obsdiff exits nonzero naming the offending metric. Binary paths are
// baked in by CMake.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "obs/diff.h"
#include "obs/event_log.h"

namespace confcard {
namespace {

using obs::DiffOptions;
using obs::DiffReport;
using obs::DiffRuns;
using obs::JsonValue;
using obs::RunView;

RunView MakeBase() {
  RunView v;
  v.name = "base";
  v.counters["conformal.clip.s-cp.total"] = 800;
  v.gauges["harness.coverage.1.mscn.s-cp"] = 0.90;
  v.gauges["calib.size"] = 1500.0;
  RunView::HistView h;
  h.count = 800;
  h.mean = 2000.0;
  h.p50 = 1800.0;
  h.p90 = 3000.0;
  h.p99 = 5000.0;
  h.sum = h.mean * 800;
  v.histograms["harness.infer_us"] = h;
  return v;
}

TEST(DiffRunsTest, IdenticalRunsHaveNoFindings) {
  const RunView v = MakeBase();
  const DiffReport report = DiffRuns(v, v, DiffOptions());
  EXPECT_FALSE(report.HasRegression()) << report.ToText();
  EXPECT_TRUE(report.findings.empty());
  EXPECT_GT(report.compared, 0u);
}

TEST(DiffRunsTest, DefaultExclusionsSkipSchedulingTelemetry) {
  RunView base = MakeBase();
  base.counters["pool.tasks_executed"] = 100;
  base.gauges["pool.queue_depth"] = 3.0;
  RunView cand = base;
  cand.counters["pool.tasks_executed"] = 900;  // varies with threads
  cand.gauges["pool.queue_depth"] = 17.0;
  const DiffReport report = DiffRuns(base, cand, DiffOptions());
  EXPECT_FALSE(report.HasRegression()) << report.ToText();
}

TEST(DiffRunsTest, CustomExcludePrefixesReplaceDefaults) {
  RunView base = MakeBase();
  base.counters["pool.tasks_executed"] = 100;
  RunView cand = base;
  cand.counters["pool.tasks_executed"] = 900;
  cand.counters["conformal.clip.s-cp.total"] = 999;
  DiffOptions opt;
  opt.exclude_prefixes = {"conformal."};
  const DiffReport report = DiffRuns(base, cand, opt);
  // The custom list excludes conformal.* but no longer shields pool.*.
  ASSERT_TRUE(report.HasRegression());
  const std::string text = report.ToText();
  EXPECT_NE(text.find("counter/pool.tasks_executed"), std::string::npos);
  EXPECT_EQ(text.find("conformal.clip"), std::string::npos);
}

TEST(DiffRunsTest, LoadExcludePrefixesParsesCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "exclude_prefixes.txt";
  {
    std::ofstream out(path);
    out << "# comment line\n"
        << "\n"
        << "  pool.  \n"
        << "ce.guard.latency\n"
        << "   # indented comment\n";
  }
  auto prefixes = obs::LoadExcludePrefixes(path);
  ASSERT_TRUE(prefixes.ok());
  ASSERT_EQ(prefixes->size(), 2u);
  EXPECT_EQ((*prefixes)[0], "pool.");
  EXPECT_EQ((*prefixes)[1], "ce.guard.latency");
  std::filesystem::remove(path);

  EXPECT_FALSE(obs::LoadExcludePrefixes("/nonexistent/exclude.txt").ok());
}

TEST(DiffRunsTest, CounterChangeIsExactRegression) {
  RunView cand = MakeBase();
  cand.counters["conformal.clip.s-cp.total"] = 801;
  const DiffReport report = DiffRuns(MakeBase(), cand, DiffOptions());
  ASSERT_TRUE(report.HasRegression());
  EXPECT_NE(report.ToText().find("counter/conformal.clip.s-cp.total"),
            std::string::npos);
}

TEST(DiffRunsTest, CoverageDropBeyondToleranceRegresses) {
  RunView cand = MakeBase();
  cand.gauges["harness.coverage.1.mscn.s-cp"] = 0.85;  // 5-point drop
  const DiffReport report = DiffRuns(MakeBase(), cand, DiffOptions());
  ASSERT_EQ(report.NumRegressions(), 1u) << report.ToText();
  EXPECT_NE(report.ToText().find("gauge/harness.coverage.1.mscn.s-cp"),
            std::string::npos);
  EXPECT_NE(report.ToText().find("coverage dropped"), std::string::npos);
}

TEST(DiffRunsTest, CoverageWithinToleranceAndRisesPass) {
  RunView cand = MakeBase();
  cand.gauges["harness.coverage.1.mscn.s-cp"] = 0.89;  // within 0.02
  EXPECT_FALSE(DiffRuns(MakeBase(), cand, DiffOptions()).HasRegression());
  cand.gauges["harness.coverage.1.mscn.s-cp"] = 0.97;  // rise: note only
  const DiffReport report = DiffRuns(MakeBase(), cand, DiffOptions());
  EXPECT_FALSE(report.HasRegression());
  EXPECT_EQ(report.findings.size(), 1u);
}

TEST(DiffRunsTest, NonCoverageGaugeUsesRelativeTolerance) {
  RunView cand = MakeBase();
  cand.gauges["calib.size"] = 1501.0;
  EXPECT_TRUE(DiffRuns(MakeBase(), cand, DiffOptions()).HasRegression());
  DiffOptions loose;
  loose.gauge_rel_tol = 0.01;
  EXPECT_FALSE(DiffRuns(MakeBase(), cand, loose).HasRegression());
}

TEST(DiffRunsTest, LatencyInflationAboveFloorRegresses) {
  RunView cand = MakeBase();
  RunView::HistView& h = cand.histograms["harness.infer_us"];
  h.mean *= 2.0;
  h.p50 *= 2.0;
  h.p90 *= 2.0;
  h.p99 *= 2.0;
  const DiffReport report = DiffRuns(MakeBase(), cand, DiffOptions());
  ASSERT_TRUE(report.HasRegression());
  EXPECT_NE(report.ToText().find("histogram/harness.infer_us"),
            std::string::npos);
  EXPECT_NE(report.ToText().find("latency inflated"), std::string::npos);
  // Improvement in the other direction is a note, not a regression.
  EXPECT_FALSE(DiffRuns(cand, MakeBase(), DiffOptions()).HasRegression());
}

TEST(DiffRunsTest, QuantilesUnderNoiseFloorAreSkipped) {
  RunView base = MakeBase();
  RunView::HistView tiny;
  tiny.count = 10;
  tiny.mean = 5.0;
  tiny.p50 = 4.0;
  tiny.p90 = 8.0;
  tiny.p99 = 9.0;
  base.histograms["harness.infer_us"] = tiny;
  RunView cand = base;
  RunView::HistView& h = cand.histograms["harness.infer_us"];
  h.mean *= 10.0;  // still under the 100us floor
  h.p50 *= 10.0;
  h.p90 *= 10.0;
  h.p99 *= 10.0;
  EXPECT_FALSE(DiffRuns(base, cand, DiffOptions()).HasRegression());
}

TEST(DiffRunsTest, MissingMetricSeverityFollowsOption) {
  RunView cand = MakeBase();
  cand.gauges.erase("harness.coverage.1.mscn.s-cp");
  cand.counters.erase("conformal.clip.s-cp.total");
  DiffOptions strict;
  EXPECT_EQ(DiffRuns(MakeBase(), cand, strict).NumRegressions(), 2u);
  DiffOptions lax;
  lax.fail_on_missing = false;
  EXPECT_FALSE(DiffRuns(MakeBase(), cand, lax).HasRegression());
}

TEST(DiffRunsTest, ReportJsonIsParseable) {
  RunView cand = MakeBase();
  cand.gauges["harness.coverage.1.mscn.s-cp"] = 0.5;
  const DiffReport report = DiffRuns(MakeBase(), cand, DiffOptions());
  Result<JsonValue> doc = obs::ParseJson(report.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("regressions")->number, 1.0);
  ASSERT_GE(doc->Find("findings")->elements.size(), 1u);
  EXPECT_EQ(doc->Find("findings")->elements[0].Find("severity")
                ->string_value,
            "regression");
}

#if defined(CONFCARD_OBSDIFF_PATH) && defined(CONFCARD_ABL_BENCH_PATH)

std::string ReadFileOrEmpty(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  ASSERT_TRUE(out.good()) << path;
}

// Multiplies mean/p50/p90/p99 of every histogram in the artifact by
// `factor` (the shape of a uniform slowdown; sample counts untouched).
void InflateHistograms(JsonValue* doc, double factor) {
  for (auto& [key, section] : doc->members) {
    if (key != "histograms") continue;
    for (auto& [name, hist] : section.members) {
      for (auto& [field, value] : hist.members) {
        if (field == "mean" || field == "p50" || field == "p90" ||
            field == "p99" || field == "sum") {
          value.number *= factor;
        }
      }
    }
  }
}

void DropCoverageGauges(JsonValue* doc, double points) {
  for (auto& [key, section] : doc->members) {
    if (key != "gauges") continue;
    for (auto& [name, value] : section.members) {
      if (name.find("coverage") != std::string::npos) {
        value.number -= points;
      }
    }
  }
}

struct BenchRun {
  std::filesystem::path artifact;
  std::filesystem::path events;
};

BenchRun RunAblBench(const std::string& tag) {
  const auto tmp = std::filesystem::temp_directory_path();
  BenchRun run;
  run.artifact = tmp / ("confcard_gate_" + tag + ".json");
  run.events = tmp / ("confcard_gate_" + tag + ".jsonl");
  std::filesystem::remove(run.artifact);
  std::filesystem::remove(run.events);
  const std::string cmd =
      "CONFCARD_SCALE=0.01 CONFCARD_METRICS_JSON=" + run.artifact.string() +
      " CONFCARD_EVENTS_JSONL=" + run.events.string() + " " +
      CONFCARD_ABL_BENCH_PATH + " > /dev/null 2>&1";
  EXPECT_EQ(std::system(cmd.c_str()), 0) << cmd;
  return run;
}

// The event log's records in order, each re-rendered without its
// "lat_us" field, the one timing an event carries.
std::vector<std::string> EventsWithoutLatency(
    const std::filesystem::path& path) {
  std::vector<std::string> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    Result<JsonValue> record = obs::ParseJson(line);
    EXPECT_TRUE(record.ok()) << line;
    if (!record.ok()) continue;
    auto& members = record->members;
    std::erase_if(members, [](const auto& m) { return m.first == "lat_us"; });
    out.push_back(obs::SerializeJson(*record));
  }
  return out;
}

// One obsdiff invocation; returns the exit code and captures stdout.
int Obsdiff(const std::string& args, std::string* out_text) {
  const auto out_path = std::filesystem::temp_directory_path() /
                        "confcard_gate_obsdiff.out";
  const std::string cmd = std::string(CONFCARD_OBSDIFF_PATH) + " " + args +
                          " > " + out_path.string() + " 2>&1";
  const int rc = std::system(cmd.c_str());
  *out_text = ReadFileOrEmpty(out_path);
  std::filesystem::remove(out_path);
  return WEXITSTATUS(rc);
}

TEST(ObsdiffGateTest, EndToEndGateOnRealBenchRuns) {
  const BenchRun a = RunAblBench("a");
  const BenchRun b = RunAblBench("b");
  ASSERT_TRUE(std::filesystem::exists(a.artifact));
  ASSERT_TRUE(std::filesystem::exists(b.artifact));
  ASSERT_TRUE(std::filesystem::exists(a.events));
  ASSERT_TRUE(std::filesystem::exists(b.events));

  // Two runs of one seeded bench share every number but their timings,
  // which vary with the host's load. So the live pair is gated with
  // timing off (no quantile reaches an infinite floor) and zero
  // tolerance on everything else, in both directions so that a
  // coverage rise fails as a drop does; latency is left to the
  // synthetic half below.
  const std::string exact =
      " --latency-floor-us inf --coverage-tol 0 --gauge-tol 0 --count-tol 0";
  std::string text;
  for (const auto& [x, y] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
    EXPECT_EQ(Obsdiff(x->artifact.string() + " " + y->artifact.string() +
                          exact,
                      &text),
              0)
        << text;
    EXPECT_EQ(Obsdiff(x->events.string() + " " + y->events.string() + exact,
                      &text),
              0)
        << text;
  }
  // Every event field but the per-query latency matches, record by
  // record.
  EXPECT_EQ(EventsWithoutLatency(a.events), EventsWithoutLatency(b.events));

  Result<JsonValue> doc = obs::ParseJson(ReadFileOrEmpty(a.artifact));
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const auto tmp = std::filesystem::temp_directory_path();

  // Synthetic 2x latency inflation: nonzero exit naming a histogram
  // quantile. Default tolerances; the mutated copy differs from its
  // source only by the injection, so the comparison is deterministic.
  JsonValue slow = *doc;
  InflateHistograms(&slow, 2.0);
  const auto slow_path = tmp / "confcard_gate_slow.json";
  WriteFile(slow_path, obs::SerializeJson(slow));
  EXPECT_EQ(Obsdiff(a.artifact.string() + " " + slow_path.string(), &text),
            1)
      << text;
  EXPECT_NE(text.find("latency inflated"), std::string::npos) << text;
  EXPECT_NE(text.find("histogram/"), std::string::npos) << text;

  // Synthetic 5-point coverage drop: nonzero exit naming the gauge.
  JsonValue uncovered = *doc;
  DropCoverageGauges(&uncovered, 0.05);
  const auto drop_path = tmp / "confcard_gate_drop.json";
  WriteFile(drop_path, obs::SerializeJson(uncovered));
  EXPECT_EQ(Obsdiff(a.artifact.string() + " " + drop_path.string(), &text),
            1)
      << text;
  EXPECT_NE(text.find("coverage dropped"), std::string::npos) << text;
  EXPECT_NE(text.find("gauge/harness.coverage."), std::string::npos) << text;

  // Usage / IO errors exit 2, distinct from the regression exit.
  EXPECT_EQ(Obsdiff("", &text), 2);
  EXPECT_EQ(Obsdiff(a.artifact.string() + " /nonexistent/path.json", &text),
            2);

  std::filesystem::remove(a.artifact);
  std::filesystem::remove(a.events);
  std::filesystem::remove(b.artifact);
  std::filesystem::remove(b.events);
  std::filesystem::remove(slow_path);
  std::filesystem::remove(drop_path);
}

#endif  // CONFCARD_OBSDIFF_PATH && CONFCARD_ABL_BENCH_PATH

}  // namespace
}  // namespace confcard
