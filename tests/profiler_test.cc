// prof-smoke suite: the sampling profiler's concurrency and crash
// contracts. Signal-safety is exercised by arming the profiler under an
// oversubscribed ParallelFor hammer (tools/run_tsan_obs.sh runs this
// suite under TSan); folded-output well-formedness and span-label
// attribution are checked on real captures, as is the serving worker's
// registration and thread label; the resource counters backing span
// accounting must be monotone; and a death test proves a crashed run
// still leaves a parseable partial profile.
//
// gtest_discover_tests runs each case in its own process, so every case
// owns the (process-global) profiler state it starts.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ce/guarded.h"
#include "common/parallel.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/generators.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "query/workload.h"
#include "serve/serve.h"

namespace confcard {
namespace obs {
namespace {

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/confcard_prof_" + std::to_string(::getpid()) +
         "_" + name;
}

// Burns roughly `ms` of thread CPU time (the clock sampling runs on),
// so sample yields are deterministic even on a loaded 1-core host.
void BurnCpuMillis(double ms) {
  const double end = prof::ThreadCpuMicros() + ms * 1000.0;
  volatile double sink = 1.0;
  while (prof::ThreadCpuMicros() < end) {
    for (int i = 0; i < 4000; ++i) sink = sink * 1.0000001 + 1e-9;
  }
}

// Validates every line of a folded profile: `stack COUNT` with a
// positive integer count after the last space and no empty frames.
// Writes the number of lines (0 for a missing/empty file) to `*lines`.
// Void-returning because ASSERT_* requires it.
void CheckFoldedFile(const std::string& path, size_t* lines_out) {
  *lines_out = 0;
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) return;
  size_t lines = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    const size_t space = line.find_last_of(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    const std::string count = line.substr(space + 1);
    ASSERT_FALSE(count.empty()) << line;
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
    EXPECT_NE(count, "0") << line;
    // Frames: non-empty between ';' separators (sanitization maps ';'
    // and '\n' inside symbol names to ':').
    const std::string stack = line.substr(0, space);
    size_t begin = 0;
    for (;;) {
      const size_t semi = stack.find(';', begin);
      const size_t len =
          (semi == std::string::npos ? stack.size() : semi) - begin;
      EXPECT_GT(len, 0u) << line;
      if (semi == std::string::npos) break;
      begin = semi + 1;
    }
  }
  *lines_out = lines;
}

size_t ReturnsCheckedLines(const std::string& path) {
  size_t lines = 0;
  CheckFoldedFile(path, &lines);
  return lines;
}

TEST(ProfilerSmokeTest, SamplesUnderParallelHammerAndWritesWellFormed) {
  const std::string path = TempPath("hammer.folded");
  std::remove(path.c_str());
  const int saved = CurrentThreads();
  SetThreads(8);
  ASSERT_TRUE(prof::StartProfiler(path, 2000).ok());
  EXPECT_TRUE(prof::ProfilerEnabled());
  EXPECT_EQ(prof::SamplingHz(), 2000);
  // Oversubscribed hammer: 8 pool threads register mid-profile and take
  // SIGPROF while racing over chunks. Spans exercise the label stack on
  // every worker.
  for (int round = 0; round < 4; ++round) {
    ParallelFor(32, 1, [&](size_t begin, size_t end) {
      TraceSpan span("proftest.chunk");
      for (size_t i = begin; i < end; ++i) BurnCpuMillis(2.0);
    });
  }
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  EXPECT_FALSE(prof::ProfilerEnabled());
  SetThreads(saved);
  EXPECT_GT(prof::SampleCount(), 0u);
  const size_t lines = ReturnsCheckedLines(path);
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

TEST(ProfilerSmokeTest, SpanLabelsAttributeSamples) {
  const std::string path = TempPath("labels.folded");
  std::remove(path.c_str());
  ASSERT_TRUE(prof::StartProfiler(path, 2000).ok());
  EXPECT_EQ(prof::SpanLabelDepth(), 0);
  {
    TraceSpan outer("proftest.outer");
    EXPECT_EQ(prof::SpanLabelDepth(), 1);
    TraceSpan inner("proftest.inner");
    EXPECT_EQ(prof::SpanLabelDepth(), 2);
    BurnCpuMillis(100.0);  // ~200 samples at 2000 Hz, all inside both
  }
  EXPECT_EQ(prof::SpanLabelDepth(), 0);
  const std::string folded = prof::RenderFoldedProfile();
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  // Span labels lead the stack as pseudo-frames, outermost first.
  EXPECT_NE(folded.find("proftest.outer;proftest.inner;"),
            std::string::npos)
      << folded.substr(0, 2000);
  std::remove(path.c_str());
}

TEST(ProfilerSmokeTest, ResourceCountersAreMonotonic) {
  const uint64_t count0 = prof::ThreadAllocCount();
  const uint64_t bytes0 = prof::ThreadAllocBytes();
  {
    std::vector<char*> blocks;
    for (int i = 0; i < 16; ++i) blocks.push_back(new char[1024]);
    for (char* b : blocks) delete[] b;
  }
  const uint64_t count1 = prof::ThreadAllocCount();
  const uint64_t bytes1 = prof::ThreadAllocBytes();
  EXPECT_GE(count1, count0 + 16);  // frees never decrement the counters
  EXPECT_GE(bytes1, bytes0 + 16 * 1024);

  const double cpu0 = prof::ThreadCpuMicros();
  BurnCpuMillis(5.0);
  const double cpu1 = prof::ThreadCpuMicros();
  EXPECT_GE(cpu1, cpu0 + 4000.0);

  uint64_t vol0 = 0, invol0 = 0, vol1 = 0, invol1 = 0;
  prof::ThreadContextSwitches(&vol0, &invol0);
  BurnCpuMillis(1.0);
  prof::ThreadContextSwitches(&vol1, &invol1);
  EXPECT_GE(vol1, vol0);
  EXPECT_GE(invol1, invol0);
}

// Spends thread CPU in every batch, so a serving worker is on CPU long
// enough to be sampled.
class BurnEstimator : public CardinalityEstimator {
 public:
  std::string name() const override { return "burn"; }
  void EstimateBatch(const Query*, size_t n, double* out) const override {
    BurnCpuMillis(2.0);
    for (size_t i = 0; i < n; ++i) out[i] = 1.0;
  }
};

TEST(ProfilerSmokeTest, ServingWorkerSamplesLeadWithItsLabel) {
  TableSpec spec;
  spec.name = "p";
  spec.num_rows = 200;
  spec.seed = 3;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 4;
  spec.columns = {a};
  const Table table = GenerateTable(spec).value();
  WorkloadConfig wc;
  wc.num_queries = 4;
  wc.seed = 7;
  const Workload workload = GenerateWorkload(table, wc).value();
  BurnEstimator primary;
  GuardedEstimator guard(primary, table);
  SplitConformal scp(MakeScoring(ScoreKind::kResidual), 0.1);
  ASSERT_TRUE(scp.Calibrate({1.0, 2.0, 3.0, 4.0}, {2.0, 1.0, 4.0, 3.0}).ok());
  serve::ServeFrontEnd::Options opts;
  opts.max_batch = 1;
  std::deque<serve::Request> requests(40);  // ~80 ms of worker CPU
  // The worker starts before the profiler does, as a bench's would: it
  // must arm its own timer at its next batch.
  serve::ServeFrontEnd front({&guard}, scp,
                             static_cast<double>(table.num_rows()), opts);
  const std::string path = TempPath("serve.folded");
  std::remove(path.c_str());
  ASSERT_TRUE(prof::StartProfiler(path, 2000).ok());
  for (size_t i = 0; i < requests.size(); ++i) {
    requests[i].query = workload[i % workload.size()].query;
    ASSERT_EQ(front.Submit(&requests[i]), serve::Admit::kAccepted);
  }
  for (const serve::Request& r : requests) r.Wait();
  const std::string folded = prof::RenderFoldedProfile();
  ASSERT_TRUE(prof::StopProfilerAndWrite().ok());
  front.Stop();
  size_t worker_lines = 0;
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("serve-worker-0;", 0) == 0) ++worker_lines;
  }
  EXPECT_GT(worker_lines, 0u) << folded.substr(0, 2000);
  EXPECT_GT(ReturnsCheckedLines(path), 0u);
  std::remove(path.c_str());
}

TEST(ProfilerCrashTest, FatalSignalFlushesPartialProfile) {
  const std::string path = TempPath("crash.folded");
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        if (!prof::StartProfiler(path, 2000).ok()) std::exit(3);
        BurnCpuMillis(150.0);  // fill the ring with samples, no drain
        std::raise(SIGSEGV);
      },
      ::testing::KilledBySignal(SIGSEGV), "");
  // The crash flush writes raw (unsymbolized) count-1 lines straight
  // from the rings; they must still parse as a folded profile.
  const size_t lines = ReturnsCheckedLines(path);
  EXPECT_GT(lines, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace confcard
