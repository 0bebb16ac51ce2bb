// Tests of the benchmark's measurement helpers.
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "measure.h"
#include "trace.h"

namespace perfbench {
namespace {

using confcard::serve::Admit;
using confcard::serve::Response;

TEST(HistogramTest, PercentilesOfUniformSamples) {
  Histogram h;
  for (uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_EQ(h.count(), 100000u);
  EXPECT_NEAR(h.Quantile(0.50), 50000.0, 50000.0 * 0.01);
  EXPECT_NEAR(h.Quantile(0.90), 90000.0, 90000.0 * 0.01);
  EXPECT_NEAR(h.Quantile(0.99), 99000.0, 99000.0 * 0.01);
  EXPECT_NEAR(h.Mean(), 50000.5, 1e-6);
}

TEST(HistogramTest, SmallValuesAreExactAndRangeIsClamped) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(7);
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 7.0);
  EXPECT_DOUBLE_EQ(Histogram().Quantile(0.5), 0.0);
}

TEST(HistogramTest, BucketsCoverEveryValueWithBoundedWidth) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 1000ull, 123456ull,
                     987654321ull, 1ull << 40}) {
    const size_t i = Histogram::Index(v);
    EXPECT_LE(Histogram::Lower(i), v);
    EXPECT_LT(v, Histogram::Lower(i) + Histogram::Width(i));
    EXPECT_LE(static_cast<double>(Histogram::Width(i)),
              std::max(1.0, static_cast<double>(v) / 127.0));
  }
}

TEST(DueTimingTest, LatencyCountsTheWaitBeforeSubmit) {
  // Due at 1 ms, submitted 30 us late, published 50 us after submit.
  DueTiming t{1000000, 1030000};
  EXPECT_DOUBLE_EQ(t.LateUs(), 30.0);
  EXPECT_DOUBLE_EQ(t.LatencyUs(50.0), 80.0);
  // Submitting early is never negative lateness.
  DueTiming early{1000000, 999000};
  EXPECT_DOUBLE_EQ(early.LateUs(), 0.0);
}

TEST(PoissonScheduleTest, MeanGapMatchesRateAndSeedRepeats) {
  PoissonSchedule a(200000.0, 42);
  PoissonSchedule b(200000.0, 42);
  int64_t last = 0;
  for (int i = 0; i < 100000; ++i) {
    const int64_t t = a.Next();
    EXPECT_EQ(t, b.Next());
    EXPECT_GE(t, last);
    last = t;
  }
  // 100000 arrivals at 200K/s take about 0.5 s.
  EXPECT_NEAR(static_cast<double>(last), 0.5e9, 0.5e9 * 0.01);
}

TEST(SlotRingTest, ReusesSlotsOnlyAfterHarvestInOrder) {
  struct S {
    int id = -1;
    bool done = false;
  };
  SlotRing<S> ring(4);
  std::vector<S*> handed;
  for (int i = 0; i < 4; ++i) {
    S& s = ring.Acquire();
    s.id = i;
    s.done = false;
    handed.push_back(&s);
  }
  EXPECT_TRUE(ring.full());
  std::vector<int> taken;
  auto done = [](const S& s) { return s.done; };
  auto take = [&](S& s) { taken.push_back(s.id); };
  // A later request finishing first does not free the oldest slot.
  handed[1]->done = true;
  EXPECT_EQ(ring.Harvest(done, take), 0u);
  EXPECT_TRUE(ring.full());
  handed[0]->done = true;
  EXPECT_EQ(ring.Harvest(done, take), 2u);
  EXPECT_EQ(taken, (std::vector<int>{0, 1}));
  EXPECT_EQ(ring.outstanding(), 2u);
  // The next slot handed out is the oldest harvested one.
  EXPECT_EQ(&ring.Acquire(), handed[0]);
  EXPECT_EQ(ring.submitted(), 5u);
}

TEST(TallyTest, ShedIsFailedAndNeverCovered) {
  Tally t;
  Response shed;
  shed.shed = true;
  shed.degraded = true;
  shed.lo = 0.0;
  shed.hi = 1000.0;  // the trivially valid [0, N]
  t.Add(Admit::kShedQueueFull, shed, 10.0, 1000.0);
  t.Add(Admit::kShedBreaker, shed, 10.0, 1000.0);

  Response hit;
  hit.lo = 5.0;
  hit.hi = 15.0;
  t.Add(Admit::kAccepted, hit, 10.0, 1000.0);
  Response miss;
  miss.lo = 20.0;
  miss.hi = 40.0;
  miss.degraded = true;
  t.Add(Admit::kAccepted, miss, 10.0, 1000.0);

  EXPECT_EQ(t.attempted, 4u);
  EXPECT_EQ(t.answered, 2u);
  EXPECT_EQ(t.failed(), 2u);
  EXPECT_EQ(t.shed_queue_full, 1u);
  EXPECT_EQ(t.shed_breaker, 1u);
  // Degraded answers are answered and counted apart from shed ones.
  EXPECT_EQ(t.degraded, 1u);
  EXPECT_DOUBLE_EQ(t.AnsweredFrac(), 0.5);
  EXPECT_DOUBLE_EQ(t.Coverage(), 0.5);
  EXPECT_DOUBLE_EQ(t.Width(), (10.0 + 20.0) / 2.0 / 1000.0);
}

TEST(QuantileOfTest, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {40.0, 10.0, 30.0, 20.0, 50.0};
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.25), 20.0);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 0.375), 25.0);
  EXPECT_DOUBLE_EQ(QuantileOf(v, 1.0), 50.0);
  EXPECT_DOUBLE_EQ(Median(v), 30.0);
  EXPECT_DOUBLE_EQ(Median({1.0, 2.0, 4.0, 8.0}), 3.0);
  EXPECT_DOUBLE_EQ(QuantileOf({}, 0.5), 0.0);
}

TEST(CpuNsTest, CountsWorkNotSleep) {
  const int64_t cpu0 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const int64_t slept = CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  EXPECT_LT(slept, 20000000);  // well under the 50 ms slept
  volatile double sink = 0.0;
  const int64_t cpu1 = CpuNs(CLOCK_THREAD_CPUTIME_ID);
  for (int i = 0; i < 20000000; ++i) sink = sink + 1.0;
  EXPECT_GT(CpuNs(CLOCK_THREAD_CPUTIME_ID) - cpu1, 0);
  EXPECT_GE(CpuNs(CLOCK_PROCESS_CPUTIME_ID), CpuNs(CLOCK_THREAD_CPUTIME_ID));
}

TEST(TracerTest, SelfTimeSubtractsTheUnionOfChildren) {
  Tracer tr(16);
  const int32_t root = tr.Add("root", 0, 100, -1, 1);
  tr.Add("a", 10, 40, root, 1);
  tr.Add("b", 30, 60, root, 1);   // overlaps a
  tr.Add("c", 90, 120, root, 1);  // runs past the parent
  const std::vector<int64_t> self = tr.SelfNs();
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30);
  const auto by_name = tr.SelfByName();
  EXPECT_EQ(by_name.at("root").first, 1u);
  EXPECT_EQ(by_name.at("b").second, 30);
}

TEST(TracerTest, FullStoreCountsDroppedSpans) {
  Tracer tr(1);
  EXPECT_EQ(tr.Add("a", 0, 1, -1, 0), 0);
  EXPECT_EQ(tr.Add("b", 0, 1, -1, 0), -1);
  EXPECT_EQ(tr.dropped(), 1u);
}

}  // namespace
}  // namespace perfbench
