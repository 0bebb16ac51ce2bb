// Concurrency and export tests for the sharded metrics rebuild: exact
// totals under a multi-thread hammer, slot leases (more threads than
// owned slots, slots reused after their threads exit, records made
// after a thread's slot went back), NaN-safe atomic min/max, the
// recording kill switch, bucket-index equivalence with the frexp-based
// reference, and the Prometheus text exposition format.
#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace confcard {
namespace obs {
namespace {

constexpr int kThreads = 8;

// Runs `body(thread_index)` on `threads` threads behind a start barrier
// that opens once every one of them holds its metric slot, so all are
// live at once and none releases a slot mid-run.
template <typename Body>
void Hammer(int threads, const Body& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      internal::MetricShardIndex();  // leases this thread's slot
      ready.fetch_add(1, std::memory_order_acq_rel);
      while (ready.load(std::memory_order_acquire) < threads) {
        std::this_thread::yield();
      }
      body(t);
    });
  }
  for (std::thread& w : workers) w.join();
}

TEST(ShardedCounterTest, MultiThreadTotalsExact) {
  Counter& c = Metrics().GetCounter("shard_test.counter");
  c.Reset();
  constexpr uint64_t kPerThread = 100000;
  Hammer(kThreads, [&](int) {
    for (uint64_t i = 0; i < kPerThread; ++i) c.Increment();
  });
  EXPECT_EQ(c.value(), kPerThread * kThreads);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(ShardedCounterTest, IncrementByNAcrossThreads) {
  Counter& c = Metrics().GetCounter("shard_test.counter_n");
  c.Reset();
  Hammer(kThreads, [&](int t) {
    for (int i = 0; i < 1000; ++i) {
      c.Increment(static_cast<uint64_t>(t) + 1);
    }
  });
  // sum over t of 1000 * (t + 1)
  uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    expected += 1000ull * (static_cast<uint64_t>(t) + 1);
  }
  EXPECT_EQ(c.value(), expected);
}

TEST(ShardedHistogramTest, MultiThreadCountSumMinMaxExact) {
  Histogram& h = Metrics().GetHistogram("shard_test.hist");
  h.Reset();
  constexpr int kPerThread = 50000;
  // Integer-valued samples keep the double sum exact regardless of
  // accumulation order, so the cross-shard merge is checkable exactly.
  Hammer(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      h.Record(static_cast<double>(t * kPerThread + i));
    }
  });
  const Histogram::Snapshot s = h.TakeSnapshot();
  const uint64_t n = static_cast<uint64_t>(kThreads) * kPerThread;
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(n) *
                              static_cast<double>(n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(n - 1));
  uint64_t bucket_total = 0;
  for (uint64_t b : s.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, n);
}

// Reference bucket computation: the frexp/ldexp formulation the bit-twiddling
// implementation replaced. Bucket i holds (2^(i-1), 2^i].
size_t ReferenceBucket(double value) {
  if (!(value > 1.0)) return 0;
  int exp = 0;
  std::frexp(value, &exp);
  size_t idx = static_cast<size_t>(exp);
  if (std::ldexp(1.0, exp - 1) == value) --idx;
  return std::min(idx, Histogram::kNumBuckets - 1);
}

size_t RecordedBucket(double value) {
  Histogram h;
  h.Record(value);
  const Histogram::Snapshot s = h.TakeSnapshot();
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    if (s.buckets[i] == 1) return i;
  }
  return Histogram::kNumBuckets;  // not recorded
}

TEST(ShardedHistogramTest, BucketIndexMatchesFrexpReference) {
  std::vector<double> values = {0.0,  0.5,   1.0,    1.5,  2.0,
                                2.5,  3.0,   4.0,    7.9,  8.0,
                                8.1,  100.0, 1024.0, 1e6,  1e9,
                                1e18, 1e300};
  for (int e = 0; e < 60; ++e) {
    const double p = std::ldexp(1.0, e);
    values.push_back(p);
    values.push_back(std::nextafter(p, 0.0));
    values.push_back(std::nextafter(p, 2.0 * p));
  }
  for (double v : values) {
    EXPECT_EQ(RecordedBucket(v), ReferenceBucket(v)) << "value=" << v;
  }
  // Infinity lands in the unbounded last bucket; negatives clamp to 0.
  EXPECT_EQ(RecordedBucket(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
  EXPECT_EQ(RecordedBucket(-5.0), 0u);
  // NaN is dropped entirely.
  Histogram h;
  h.Record(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
}

TEST(AtomicMinMaxTest, EightThreadHammerFindsGlobalExtremes) {
  std::atomic<double> min{std::numeric_limits<double>::infinity()};
  std::atomic<double> max{-std::numeric_limits<double>::infinity()};
  constexpr int kPerThread = 20000;
  Hammer(kThreads, [&](int t) {
    for (int i = 0; i < kPerThread; ++i) {
      const double v = static_cast<double>((i * kThreads + t) % 100003);
      AtomicMinDouble(&min, v);
      AtomicMaxDouble(&max, v);
      if (i % 997 == 0) {
        // NaN candidates must be dropped, not installed.
        AtomicMinDouble(&min, std::numeric_limits<double>::quiet_NaN());
        AtomicMaxDouble(&max, std::numeric_limits<double>::quiet_NaN());
      }
    }
  });
  EXPECT_DOUBLE_EQ(min.load(), 0.0);
  EXPECT_DOUBLE_EQ(max.load(), 100002.0);
}

TEST(AtomicMinMaxTest, NaNInTargetSelfHeals) {
  std::atomic<double> min{std::numeric_limits<double>::quiet_NaN()};
  std::atomic<double> max{std::numeric_limits<double>::quiet_NaN()};
  AtomicMinDouble(&min, 7.0);
  AtomicMaxDouble(&max, 7.0);
  EXPECT_DOUBLE_EQ(min.load(), 7.0);
  EXPECT_DOUBLE_EQ(max.load(), 7.0);
}

TEST(AtomicMinMaxTest, AddDropsNaNDelta) {
  std::atomic<double> sum{3.0};
  AtomicAddDouble(&sum, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(sum.load(), 3.0);
  AtomicAddDouble(&sum, 2.0);
  EXPECT_DOUBLE_EQ(sum.load(), 5.0);
}

TEST(KillSwitchTest, DisabledRecordingIsANoOp) {
  Counter& c = Metrics().GetCounter("shard_test.kill.counter");
  Gauge& g = Metrics().GetGauge("shard_test.kill.gauge");
  Histogram& h = Metrics().GetHistogram("shard_test.kill.hist");
  c.Reset();
  g.Reset();
  h.Reset();
  g.Set(1.0);
  ASSERT_TRUE(MetricsEnabled());
  SetMetricsEnabled(false);
  EXPECT_FALSE(MetricsEnabled());
  c.Increment(5);
  g.Set(42.0);
  h.Record(100.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_EQ(h.TakeSnapshot().count, 0u);
  SetMetricsEnabled(true);
  c.Increment(5);
  g.Set(42.0);
  h.Record(100.0);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_DOUBLE_EQ(g.value(), 42.0);
  EXPECT_EQ(h.TakeSnapshot().count, 1u);
}

TEST(TextExpositionTest, FormatsCountersGaugesAndHistograms) {
  Metrics().ResetForTest();
  Metrics().SetMeta("scale", 1.0);
  Metrics().GetCounter("expo.test.count").Increment(3);
  Metrics().GetGauge("expo.test.gauge").Set(0.5);
  Histogram& h = Metrics().GetHistogram("expo.test.lat_us");
  h.Record(1.0);   // bucket 0 (le 1)
  h.Record(3.0);   // bucket 2 (le 4)
  h.Record(5.0);   // bucket 3 (le 8)
  const std::string text = Metrics().WriteTextExposition();

  // Dots sanitize to underscores; TYPE lines precede samples.
  EXPECT_NE(text.find("# meta scale 1\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_test_count counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_test_gauge gauge\n"), std::string::npos);
  EXPECT_NE(text.find("expo_test_gauge 0.5\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE expo_test_lat_us histogram\n"),
            std::string::npos);
  // Cumulative buckets: le="1" sees only the first sample, le="4" two,
  // le="8" and everything above (incl. +Inf) all three.
  EXPECT_NE(text.find("expo_test_lat_us_bucket{le=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_lat_us_bucket{le=\"4\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_lat_us_bucket{le=\"8\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_lat_us_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("expo_test_lat_us_sum 9\n"), std::string::npos);
  EXPECT_NE(text.find("expo_test_lat_us_count 3\n"), std::string::npos);
  Metrics().ResetForTest();
}

TEST(TextExpositionTest, HelpLinesPrecedeTypeAndCarryDottedName) {
  Metrics().ResetForTest();
  Metrics().GetCounter("expo.help.count").Increment();
  Metrics().GetHistogram("expo.help.lat_us").Record(2.0);
  const std::string text = Metrics().WriteTextExposition();
  // HELP carries the original dotted path (the exposition name flattens
  // dots), immediately before the matching TYPE line.
  const size_t help = text.find(
      "# HELP expo_help_count confcard metric expo.help.count\n");
  const size_t type = text.find("# TYPE expo_help_count counter\n");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  EXPECT_LT(help, type);
  EXPECT_NE(
      text.find("# HELP expo_help_lat_us confcard metric expo.help.lat_us\n"),
      std::string::npos);
  Metrics().ResetForTest();
}

TEST(TextExpositionTest, EscapesNewlinesAndBackslashesInFreeText) {
  Metrics().ResetForTest();
  // A raw newline in a meta value would splice arbitrary text into the
  // exposition body; backslashes must round-trip under scrapers that
  // unescape. (Label values get the same treatment plus double-quote,
  // but the only labels emitted today are numeric `le` bounds.)
  Metrics().SetMeta("note", "line1\nline2\\tail");
  const std::string text = Metrics().WriteTextExposition();
  EXPECT_NE(text.find("# meta note line1\\nline2\\\\tail\n"),
            std::string::npos);
  Metrics().ResetForTest();
}

TEST(TextExpositionTest, NonFiniteGaugesUsePrometheusSpellings) {
  Metrics().ResetForTest();
  Metrics().GetGauge("expo.inf").Set(
      std::numeric_limits<double>::infinity());
  Metrics().GetGauge("expo.nan").Set(
      std::numeric_limits<double>::quiet_NaN());
  const std::string text = Metrics().WriteTextExposition();
  EXPECT_NE(text.find("expo_inf +Inf\n"), std::string::npos);
  EXPECT_NE(text.find("expo_nan NaN\n"), std::string::npos);
  Metrics().ResetForTest();
}

TEST(SlotLeaseTest, TwiceAsManyThreadsAsSlotsKeepTotalsExact) {
  constexpr int kLive = 2 * static_cast<int>(kMetricShards);
  // Long enough that threads sharing a slot overlap under time slicing:
  // without the lease, runs of this size lost records.
  constexpr uint64_t kPerThread = 200000;
  Counter& c = Metrics().GetCounter("shard_test.lease.counter");
  Histogram& h = Metrics().GetHistogram("shard_test.lease.hist");
  c.Reset();
  h.Reset();
  std::atomic<int> on_shared{0};
  Hammer(kLive, [&](int t) {
    if (internal::MetricShardIndex() == internal::kSharedMetricSlot) {
      on_shared.fetch_add(1, std::memory_order_relaxed);
    }
    for (uint64_t i = 0; i < kPerThread; ++i) {
      c.Increment();
      h.Record(static_cast<double>(static_cast<uint64_t>(t) * kPerThread + i));
    }
  });
  // At most kMetricShards threads own a slot; the rest share one.
  EXPECT_GE(on_shared.load(), kLive - static_cast<int>(kMetricShards));
  const uint64_t n = static_cast<uint64_t>(kLive) * kPerThread;
  EXPECT_EQ(c.value(), n);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.sum, static_cast<double>(n) *
                              static_cast<double>(n - 1) / 2.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, static_cast<double>(n - 1));
}

TEST(SlotLeaseTest, SecondWaveOwnsTheSlotsTheFirstReleased) {
  // This thread records in earlier tests; give its lease back so both
  // waves can lease every owned slot.
  internal::ReleaseMetricSlot();
  ASSERT_EQ(internal::MetricShardIndex(), internal::kSharedMetricSlot);
  constexpr int kWave = static_cast<int>(kMetricShards);
  constexpr uint64_t kPerThread = 5000;
  Counter& c = Metrics().GetCounter("shard_test.wave.counter");
  Histogram& h = Metrics().GetHistogram("shard_test.wave.hist");
  c.Reset();
  h.Reset();
  for (int wave = 0; wave < 2; ++wave) {
    std::vector<uint32_t> slots(kWave);
    Hammer(kWave, [&](int t) {
      slots[static_cast<size_t>(t)] = internal::MetricShardIndex();
      for (uint64_t i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Record(2.0);
      }
    });
    const std::set<uint32_t> distinct(slots.begin(), slots.end());
    EXPECT_EQ(distinct.size(), kMetricShards) << "wave " << wave;
    for (uint32_t slot : slots) {
      EXPECT_LT(slot, kMetricShards) << "wave " << wave;
    }
  }
  const uint64_t n = 2 * static_cast<uint64_t>(kWave) * kPerThread;
  EXPECT_EQ(c.value(), n);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, n);
  EXPECT_DOUBLE_EQ(s.sum, 2.0 * static_cast<double>(n));
}

// Records at thread exit, from a thread_local constructed before the
// thread's first record, so it is destroyed after the slot lease.
struct ExitRecorder {
  Counter* counter = nullptr;
  Histogram* histogram = nullptr;
  std::atomic<uint32_t>* slot_at_exit = nullptr;
  ~ExitRecorder() {
    slot_at_exit->store(internal::MetricShardIndex());
    counter->Increment(7);
    histogram->Record(3.0);
  }
};

TEST(SlotLeaseTest, RecordAfterSlotReleaseAtThreadExitIsCounted) {
  Counter& c = Metrics().GetCounter("shard_test.exit.counter");
  Histogram& h = Metrics().GetHistogram("shard_test.exit.hist");
  c.Reset();
  h.Reset();
  std::atomic<uint32_t> owned{internal::kNoMetricSlot};
  std::atomic<uint32_t> at_exit{internal::kNoMetricSlot};
  std::thread worker([&] {
    thread_local ExitRecorder recorder;
    recorder.counter = &c;
    recorder.histogram = &h;
    recorder.slot_at_exit = &at_exit;
    c.Increment();  // first record: leases a slot
    h.Record(1.0);
    owned.store(internal::MetricShardIndex());
  });
  worker.join();
  EXPECT_LT(owned.load(), kMetricShards);
  EXPECT_EQ(at_exit.load(), internal::kSharedMetricSlot);
  EXPECT_EQ(c.value(), 8u);
  const Histogram::Snapshot s = h.TakeSnapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.sum, 4.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
}

// The 8 hammer threads and this one never exhaust the owned slots, so
// every one of them owns its slot.
TEST(ShardAssignmentTest, ThreadsGetStableSlotsInRange) {
  std::vector<uint32_t> seen(kThreads);
  Hammer(kThreads, [&](int t) {
    const uint32_t a = internal::MetricShardIndex();
    const uint32_t b = internal::MetricShardIndex();
    EXPECT_EQ(a, b);  // stable per thread
    seen[static_cast<size_t>(t)] = a;
  });
  for (uint32_t idx : seen) EXPECT_LT(idx, kMetricShards);
}

}  // namespace
}  // namespace obs
}  // namespace confcard
