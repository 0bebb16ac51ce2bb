// ThreadPool / ParallelFor semantics: destruction runs every queued
// helper slot, exceptions propagate to the caller, and chunked loops
// cover [0, n) exactly once at any thread count. Also
// covers the EventLog concurrent-append contract the parallel harness
// loops rely on.
#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_log.h"
#include "obs/metrics.h"

namespace confcard {
namespace {

// Tests mutate the process-wide thread count; restore it on exit so
// test order never matters.
class ThreadsRestorer {
 public:
  ThreadsRestorer() : saved_(CurrentThreads()) {}
  ~ThreadsRestorer() { SetThreads(saved_); }

 private:
  int saved_;
};

TEST(ThreadPoolTest, DestructionRunsQueuedWork) {
  // Both workers sleep in one chunk each, so the eight slots queued
  // behind them are still queued when the destructor starts. Each slot
  // retires itself by decrementing `outstanding`, whether or not it
  // found a chunk left to drain.
  internal::LoopState busy;
  busy.n = busy.num_chunks = 2;
  busy.chunk = 1;
  busy.body = [](void*, size_t, size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  std::atomic<int> count{0};
  internal::LoopState queued;
  queued.n = queued.num_chunks = 32;
  queued.chunk = 1;
  queued.body = [](void* ctx, size_t begin, size_t end) {
    static_cast<std::atomic<int>*>(ctx)->fetch_add(
        static_cast<int>(end - begin));
  };
  queued.ctx = &count;
  {
    ThreadPool pool(2);
    EXPECT_EQ(pool.num_threads(), 2);
    busy.outstanding = 2;
    ASSERT_EQ(pool.SubmitLoopHelpers(&busy, 2), 2);
    queued.outstanding = 8;
    ASSERT_EQ(pool.SubmitLoopHelpers(&queued, 8), 8);
    // Destructor must execute every queued slot before joining.
  }
  EXPECT_EQ(busy.outstanding, 0);
  EXPECT_EQ(queued.outstanding, 0);
  EXPECT_EQ(count.load(), 32);
}

// The pool is sized by the thread count, not by the first loop's
// helper count: a later, wider loop must never rebuild it while another
// issuer may still hold it. ctest runs each test in its own process, so
// this loop is the pool's first use there.
TEST(ParallelForTest, FirstLoopSizesThePoolForTheThreadCount) {
  ThreadsRestorer restore;
  SetThreads(4);
  std::atomic<int> count{0};
  ParallelFor(2, 1, [&count](size_t begin, size_t end) {
    count.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(count.load(), 2);
  EXPECT_EQ(obs::Metrics().GetGauge("pool.threads").value(), 3.0);
}

TEST(ParallelForTest, ZeroIterationsNeverInvokesBody) {
  ThreadsRestorer restore;
  for (int threads : {1, 4}) {
    SetThreads(threads);
    bool called = false;
    ParallelFor(0, 0, [&called](size_t, size_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadsRestorer restore;
  for (int threads : {1, 4}) {
    SetThreads(threads);
    for (size_t n : {size_t{1}, size_t{2}, size_t{7}, size_t{63},
                     size_t{1000}}) {
      for (size_t chunk : {size_t{0}, size_t{1}, size_t{3}, size_t{16}}) {
        std::vector<std::atomic<int>> hits(n);
        ParallelFor(n, chunk, [&hits](size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1)
              << "n=" << n << " chunk=" << chunk << " threads=" << threads
              << " index=" << i;
        }
      }
    }
  }
}

TEST(ParallelForTest, RethrowsFirstException) {
  ThreadsRestorer restore;
  for (int threads : {1, 4}) {
    SetThreads(threads);
    EXPECT_THROW(
        ParallelFor(100, 1,
                    [](size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        if (i == 50) throw std::runtime_error("chunk failed");
                      }
                    }),
        std::runtime_error);
    // The pool survives a failed loop.
    std::atomic<int> count{0};
    ParallelFor(8, 1, [&count](size_t begin, size_t end) {
      count.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(count.load(), 8);
  }
}

TEST(ParallelForTest, NestedLoopsRunInlineOnTheWorker) {
  ThreadsRestorer restore;
  SetThreads(4);
  EXPECT_FALSE(InParallelWorker());
  std::atomic<int> inner_total{0};
  std::atomic<int> inner_whole_range{0};
  ParallelFor(8, 1, [&](size_t, size_t) {
    EXPECT_TRUE(InParallelWorker());
    // A nested loop must execute inline as one whole-range call.
    ParallelFor(16, 1, [&](size_t begin, size_t end) {
      if (begin == 0 && end == 16) inner_whole_range.fetch_add(1);
      inner_total.fetch_add(static_cast<int>(end - begin));
    });
  });
  EXPECT_FALSE(InParallelWorker());
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_EQ(inner_whole_range.load(), 8);
}

TEST(ParallelForTest, SlotResultsIdenticalAcrossThreadCounts) {
  ThreadsRestorer restore;
  const size_t n = 4096;
  auto run = [n](int threads) {
    SetThreads(threads);
    std::vector<double> out(n);
    ParallelFor(n, 0, [&out](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        out[i] = static_cast<double>(i) * 0.5 + 1.0 / (1.0 + i);
      }
    });
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// Hammer for the allocation-free dispatch path: several external
// threads issue top-level ParallelFors against the shared pool at once,
// so stack LoopStates from different issuers interleave in the helper
// ring and retire out of order. Every loop must still cover its range
// exactly and unwind its own state (run under TSan via the
// parallel-smoke label). Nothing warms the pool first, and issuers
// alternate between a two-chunk loop (one helper) and a wide one
// (three), so the first loops race to build the pool.
TEST(ParallelForTest, ConcurrentTopLevelLoopsFromManyThreads) {
  ThreadsRestorer restore;
  SetThreads(4);
  constexpr int kIssuers = 6;
  constexpr int kRounds = 40;
  std::atomic<long> grand_total{0};
  std::vector<std::thread> issuers;
  issuers.reserve(kIssuers);
  for (int t = 0; t < kIssuers; ++t) {
    issuers.emplace_back([&grand_total, t] {
      for (int round = 0; round < kRounds; ++round) {
        const size_t n = (t + round) % 2 == 0 ? 2 : 257;
        const size_t chunk = n == 2 ? 1 : 4;
        std::atomic<long> covered{0};
        ParallelFor(n, chunk, [&covered](size_t begin, size_t end) {
          covered.fetch_add(static_cast<long>(end - begin));
        });
        EXPECT_EQ(covered.load(), static_cast<long>(n));
        grand_total.fetch_add(covered.load());
      }
    });
  }
  for (std::thread& th : issuers) th.join();
  // Each issuer runs kRounds / 2 loops of each size.
  EXPECT_EQ(grand_total.load(),
            static_cast<long>(kIssuers) * (kRounds / 2) * (2 + 257));
}

TEST(EventLogTest, ConcurrentAppendsNeverInterleaveLines) {
  ThreadsRestorer restore;
  SetThreads(4);
  const std::string path =
      ::testing::TempDir() + "parallel_event_log_test.jsonl";
  obs::EventLog& elog = obs::EventLog::Instance();
  ASSERT_TRUE(elog.OpenForTest(path).ok());

  const size_t n = 2000;
  ParallelFor(n, 1, [&elog](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      obs::QueryEvent e;
      e.query_id = i;
      e.model = "m";
      e.method = "t";
      e.truth = static_cast<double>(i);
      if (i % 3 == 0) {
        elog.AppendAll({e});
      } else {
        elog.Append(e);
      }
    }
  });
  EXPECT_EQ(elog.appended(), n);
  elog.CloseForTest();

  auto records = obs::ReadJsonlFile(path);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records->size(), n);
  // Every line must be a complete record; ids cover [0, n) exactly.
  std::vector<int> seen(n, 0);
  for (const obs::JsonValue& r : *records) {
    const obs::JsonValue* q = r.Find("q");
    ASSERT_NE(q, nullptr);
    seen[static_cast<size_t>(q->number)] += 1;
  }
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(seen[i], 1) << "query " << i;
}

}  // namespace
}  // namespace confcard
