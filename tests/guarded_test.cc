// The guarded serving path: sanitization of insane primary outputs,
// retry-then-fallback, the circuit breaker's trip/cooldown/probe cycle,
// invalid-query quarantine, latency budgets, and the faults-off
// bit-identity contract against the raw primary.
#include "ce/guarded.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include "ce/histogram.h"
#include "data/generators.h"
#include "query/validate.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload workload;
};

Fixture MakeFixture() {
  TableSpec spec;
  spec.name = "g";
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

// A primary whose answers are scripted per call: the value at the call
// ordinal is returned (the last entry repeats forever). Lets tests
// produce NaN on attempt 0 and a healthy value on the retry, flip a
// failing primary healthy mid-test, and count exactly how many times
// the guard consulted it.
class ScriptedEstimator : public CardinalityEstimator {
 public:
  explicit ScriptedEstimator(std::vector<double> script)
      : script_(std::move(script)) {}

  std::string name() const override { return "scripted"; }

  void EstimateBatch(const Query*, size_t n, double* out) const override {
    for (size_t k = 0; k < n; ++k) {
      const size_t i = calls_++;
      out[k] = script_[i < script_.size() ? i : script_.size() - 1];
    }
  }

  int calls() const { return static_cast<int>(calls_); }
  void Reset(std::vector<double> script) {
    script_ = std::move(script);
    calls_ = 0;
  }

 private:
  mutable std::vector<double> script_;
  mutable size_t calls_ = 0;
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// A primary with a real defect on one query (NaN however often it is
// retried) that answers 10 for every other; counts the queries it
// estimates.
class PoisonedEstimator : public CardinalityEstimator {
 public:
  explicit PoisonedEstimator(const Query& bad)
      : bad_key_(QueryContentKey(bad)) {}

  std::string name() const override { return "poisoned"; }

  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override {
    for (size_t i = 0; i < n; ++i) {
      out[i] = QueryContentKey(queries[i]) == bad_key_ ? kNan : 10.0;
    }
    calls_ += static_cast<int>(n);
  }

  int calls() const { return calls_; }

 private:
  uint64_t bad_key_;
  mutable int calls_ = 0;
};

TEST(GuardedTest, SanitizesNanInfAndNegativeToFallback) {
  Fixture f = MakeFixture();
  const Query& q = f.workload[0].query;
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 0;  // isolate sanitization from the breaker
  for (double bad : {kNan, kInf, -3.0}) {
    ScriptedEstimator primary({bad});
    GuardedEstimator guard(primary, f.table, opts);
    const GuardedEstimate got = guard.EstimateGuarded(q);
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.source, 1);  // terminal histogram: no other fallbacks
    EXPECT_TRUE(std::isfinite(got.value));
    EXPECT_GE(got.value, 0.0);
    EXPECT_EQ(primary.calls(), 1);
  }
}

TEST(GuardedTest, RetryRecoversWithoutDegrading) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({kNan, 123.0});
  GuardOptions opts;
  opts.max_retries = 1;
  GuardedEstimator guard(primary, f.table, opts);
  const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
  EXPECT_FALSE(got.degraded);
  EXPECT_EQ(got.source, 0);
  EXPECT_EQ(got.value, 123.0);
  EXPECT_EQ(primary.calls(), 2);
  EXPECT_FALSE(guard.breaker_open());
}

TEST(GuardedTest, FallbackChainPrefersInsertionOrder) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({kNan});
  ScriptedEstimator broken_fallback({-1.0});  // insane too: skipped
  ScriptedEstimator good_fallback({77.0});
  GuardOptions opts;
  opts.max_retries = 0;
  GuardedEstimator guard(primary, f.table, opts);
  guard.AddFallback(broken_fallback);
  guard.AddFallback(good_fallback);
  const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.source, 2);  // second registered fallback
  EXPECT_EQ(got.value, 77.0);
  EXPECT_EQ(broken_fallback.calls(), 1);
}

TEST(GuardedTest, InvalidQueryIsQuarantinedWithoutRunningAnyEstimator) {
  Fixture f = MakeFixture();
  ScriptedEstimator primary({50.0});
  GuardedEstimator guard(primary, f.table);
  // Column 9 does not exist in the 2-column table.
  const Query bad{{Predicate::Between(9, 0.0, 1.0)}};
  const GuardedEstimate got = guard.EstimateGuarded(bad);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.source, -1);
  EXPECT_EQ(got.value, 0.0);
  EXPECT_EQ(primary.calls(), 0);
}

TEST(GuardedTest, LatencyBudgetTurnsSlownessIntoFallback) {
  Fixture f = MakeFixture();
  // Healthy value, but every call sleeps well past the budget.
  class SlowEstimator : public CardinalityEstimator {
   public:
    std::string name() const override { return "slow"; }
    void EstimateBatch(const Query*, size_t n, double* out) const override {
      for (size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        out[i] = 10.0;
      }
    }
  } slow;
  GuardOptions opts;
  opts.max_retries = 1;
  opts.latency_budget_us = 100.0;  // 100us budget vs ~2ms calls
  GuardedEstimator guard(slow, f.table, opts);
  const GuardedEstimate got = guard.EstimateGuarded(f.workload[0].query);
  EXPECT_TRUE(got.degraded);
  EXPECT_EQ(got.source, 1);
}

TEST(GuardedTest, BreakerTripsCoolsDownAndRecovers) {
  Fixture f = MakeFixture();
  const Query& q = f.workload[0].query;
  ScriptedEstimator primary({kNan});
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 3;
  opts.breaker_cooldown = 2;
  GuardedEstimator guard(primary, f.table, opts);

  // Three consecutive failures trip the breaker.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  }
  EXPECT_TRUE(guard.breaker_open());
  EXPECT_EQ(primary.calls(), 3);

  // During cooldown the primary is not consulted at all.
  for (int i = 0; i < 2; ++i) {
    const GuardedEstimate got = guard.EstimateGuarded(q);
    EXPECT_TRUE(got.degraded);
    EXPECT_EQ(got.source, 1);
  }
  EXPECT_EQ(primary.calls(), 3);

  // Cooldown expired: the next query probes the (still broken) primary,
  // which fails and restarts the cooldown.
  EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  EXPECT_EQ(primary.calls(), 4);
  EXPECT_TRUE(guard.breaker_open());

  // Primary heals. The breaker still serves fallback until the fresh
  // cooldown drains...
  primary.Reset({42.0});
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(guard.EstimateGuarded(q).degraded);
  }
  EXPECT_EQ(primary.calls(), 0);

  // ...then a healthy probe closes it and service resumes on the
  // primary.
  const GuardedEstimate probe = guard.EstimateGuarded(q);
  EXPECT_FALSE(probe.degraded);
  EXPECT_EQ(probe.value, 42.0);
  EXPECT_FALSE(guard.breaker_open());
  const GuardedEstimate after = guard.EstimateGuarded(q);
  EXPECT_EQ(after.source, 0);
  EXPECT_EQ(primary.calls(), 2);
}

// Failures scattered through healthy traffic, never `threshold` in a
// row: {good, bad, good} three times must leave the breaker closed and
// consult the primary once per query, whether the nine queries arrive
// as three batches or one at a time.
TEST(GuardedTest, ScatteredFailuresInBatchesKeepBreakerClosed) {
  Fixture f = MakeFixture();
  const Query& good = f.workload[0].query;
  const Query& bad = f.workload[1].query;
  ASSERT_NE(QueryContentKey(good), QueryContentKey(bad));
  const std::vector<Query> batch = {good, bad, good};
  GuardOptions opts;
  opts.max_retries = 0;
  opts.breaker_threshold = 3;

  PoisonedEstimator batched_primary(bad);
  GuardedEstimator batched(batched_primary, f.table, opts);
  std::vector<GuardedEstimate> out(batch.size());
  for (int b = 0; b < 3; ++b) {
    batched.EstimateBatchGuarded(batch.data(), batch.size(), out.data());
    EXPECT_EQ(out[0].source, 0);
    EXPECT_TRUE(out[1].degraded);
    EXPECT_EQ(out[2].source, 0);
  }
  EXPECT_FALSE(batched.breaker_open());
  EXPECT_EQ(batched_primary.calls(), 9);

  PoisonedEstimator single_primary(bad);
  GuardedEstimator single(single_primary, f.table, opts);
  for (int b = 0; b < 3; ++b) {
    for (const Query& q : batch) single.EstimateGuarded(q);
  }
  EXPECT_FALSE(single.breaker_open());
  EXPECT_EQ(single_primary.calls(), 9);
}

TEST(GuardedTest, FaultsOffGuardedPathMatchesRawPrimaryBitForBit) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);

  // Scalar path.
  for (const Query& q : queries) {
    ASSERT_EQ(guard.EstimateCardinality(q), primary.EstimateCardinality(q));
  }

  // Batch fast path: values bit-identical to the primary's batch, every
  // slot healthy.
  std::vector<double> raw(queries.size());
  primary.EstimateBatch(queries.data(), queries.size(), raw.data());
  std::vector<GuardedEstimate> guarded(queries.size());
  guard.EstimateBatchGuarded(queries.data(), queries.size(), guarded.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(guarded[i].value, raw[i]) << "query " << i;
    EXPECT_FALSE(guarded[i].degraded);
    EXPECT_EQ(guarded[i].source, 0);
  }

  // The double-returning override agrees with the rich path.
  std::vector<double> values(queries.size());
  guard.EstimateBatch(queries.data(), queries.size(), values.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(values[i], raw[i]) << "query " << i;
  }
}

TEST(GuardedTest, BatchFastPathQuarantinesInvalidSlots) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  const size_t bad_slot = 4;
  queries.insert(queries.begin() + bad_slot,
                 Query{{Predicate::Between(9, 0.0, 1.0)}});

  std::vector<GuardedEstimate> guarded(queries.size());
  guard.EstimateBatchGuarded(queries.data(), queries.size(), guarded.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (i == bad_slot) {
      EXPECT_TRUE(guarded[i].degraded);
      EXPECT_EQ(guarded[i].source, -1);
      EXPECT_EQ(guarded[i].value, 0.0);
    } else {
      ASSERT_EQ(guarded[i].value, primary.EstimateCardinality(queries[i]))
          << "query " << i;
      EXPECT_FALSE(guarded[i].degraded);
    }
  }

  // n == 0 is a no-op on both batch entry points.
  guard.EstimateBatchGuarded(nullptr, 0, nullptr);
  guard.EstimateBatch(nullptr, 0, nullptr);
}

TEST(GuardedTest, NameWrapsPrimary) {
  Fixture f = MakeFixture();
  HistogramEstimator primary(f.table);
  GuardedEstimator guard(primary, f.table);
  EXPECT_EQ(guard.name(), "guarded(histogram-avi)");
}

}  // namespace
}  // namespace confcard
