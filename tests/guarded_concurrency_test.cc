// Concurrency hammer for the guard's lock-free circuit breaker: many
// threads drive EstimateGuarded through a primary that is flipped
// flaky -> down -> healthy mid-run, exercising trip, cooldown-tick
// claiming, the single-probe-in-flight slot, and recovery — all under
// the TSan preset (the serve-smoke label is in its filter). Assertions
// stick to invariants that hold under any interleaving; the serial
// trip/cooldown/probe schedule is pinned by guarded_test.
#include "ce/guarded.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "ce/histogram.h"
#include "data/generators.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload workload;
};

Fixture MakeFixture() {
  TableSpec spec;
  spec.name = "gc";
  spec.num_rows = 1500;
  spec.seed = 19;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 5;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 30.0;
  spec.columns = {a, b};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = 20;
  wc.seed = 5;
  Workload wl = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(wl)};
}

// Thread-safe primary with a switchable failure mode.
class MoodyEstimator : public CardinalityEstimator {
 public:
  enum Mode { kFlaky = 0, kDown = 1, kHealthy = 2 };

  std::string name() const override { return "moody"; }
  void EstimateBatch(const Query*, size_t n, double* out) const override {
    for (size_t i = 0; i < n; ++i) out[i] = Next();
  }
  void set_mode(Mode m) { mode_.store(m, std::memory_order_release); }

 private:
  double Next() const {
    switch (mode_.load(std::memory_order_acquire)) {
      case kDown:
        return std::numeric_limits<double>::quiet_NaN();
      case kHealthy:
        return 11.0;
      default: {
        // Periodic failures: exercises sanitize/retry without ever
        // accumulating enough consecutive failures to trip the breaker.
        const uint64_t i = calls_.fetch_add(1, std::memory_order_relaxed);
        return (i % 3 == 0) ? std::numeric_limits<double>::quiet_NaN() : 7.0;
      }
    }
  }

  std::atomic<Mode> mode_{kFlaky};
  mutable std::atomic<uint64_t> calls_{0};
};

TEST(GuardedConcurrencyTest, HammerAcrossBreakerPhasesKeepsInvariants) {
  Fixture f = MakeFixture();
  MoodyEstimator primary;
  GuardOptions opts;
  opts.max_retries = 1;
  opts.breaker_threshold = 4;
  opts.breaker_cooldown = 8;
  GuardedEstimator guard(primary, f.table, opts);

  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  std::atomic<bool> bad_result{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        const Query& q = f.workload[(t + i) % f.workload.size()].query;
        const GuardedEstimate got = guard.EstimateGuarded(q);
        // Sanitization holds under every interleaving: no NaN/Inf or
        // negative value ever escapes, and provenance stays in range
        // (primary or the terminal histogram fallback).
        if (!std::isfinite(got.value) || got.value < 0.0 || got.source < 0 ||
            got.source > 1) {
          bad_result.store(true, std::memory_order_relaxed);
        }
        if (got.source == 0 && got.degraded) {
          bad_result.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  // Flip the primary's mood while the hammer runs so trip, cooldown, and
  // probe transitions happen under contention.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  primary.set_mode(MoodyEstimator::kDown);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  primary.set_mode(MoodyEstimator::kHealthy);
  for (auto& t : threads) t.join();
  EXPECT_FALSE(bad_result.load());

  // With the primary healthy again, serial traffic burns any remaining
  // cooldown, a probe succeeds, and service returns to the primary.
  bool recovered = false;
  for (int i = 0; i < 1000 && !recovered; ++i) {
    const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
    recovered = !guard.breaker_open() && got.source == 0 && !got.degraded &&
                got.value == 11.0;
  }
  EXPECT_TRUE(recovered);
}

TEST(GuardedConcurrencyTest, ConcurrentBatchFastPathStaysBitIdentical) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  std::vector<double> expected(queries.size());
  primary.EstimateBatch(queries.data(), queries.size(), expected.data());

  constexpr int kThreads = 6;
  constexpr int kIters = 50;
  std::atomic<bool> mismatch{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      GuardBatchScratch scratch;  // per-thread, like a serving worker
      std::vector<GuardedEstimate> out(queries.size());
      for (int i = 0; i < kIters; ++i) {
        guard.EstimateBatchGuarded(queries.data(), queries.size(), out.data(),
                                   /*order_key_base=*/0, &scratch);
        for (size_t j = 0; j < queries.size(); ++j) {
          if (out[j].value != expected[j] || out[j].degraded ||
              out[j].source != 0) {
            mismatch.store(true, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(mismatch.load());
  EXPECT_FALSE(guard.breaker_open());
}

}  // namespace
}  // namespace confcard
