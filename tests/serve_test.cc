// The serving front-end's contracts: bit-identity of the micro-batched
// path against the per-query guarded path (at 1 and 4 shards), the B=1
// and T=0 degenerate batching modes, queue-full and breaker-watermark
// shedding, clean drain on Stop() with requests in flight, quarantine
// of invalid queries, multi-producer submission, the scratch-reuse
// overload of EstimateBatchGuarded, and the default batching options.
#include "serve/serve.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "ce/guarded.h"
#include "ce/histogram.h"
#include "conformal/interval.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/generators.h"
#include "query/workload.h"

namespace confcard {
namespace serve {
namespace {

struct Base {
  Table table;
  Workload workload;
};

Base MakeBase() {
  TableSpec spec;
  spec.name = "s";
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

// Histogram primary + guard + a conformal predictor calibrated on the
// fixture workload's (estimate, truth) pairs. Residual scoring keeps
// zero-cardinality calibration queries well-defined.
struct ServeFixture {
  Base base = MakeBase();
  HistogramEstimator primary{base.table};
  GuardedEstimator guard{primary, base.table};
  SplitConformal scp{MakeScoring(ScoreKind::kResidual), 0.1};
  double num_rows = static_cast<double>(base.table.num_rows());

  ServeFixture() {
    std::vector<double> estimates;
    std::vector<double> truths;
    for (const LabeledQuery& lq : base.workload) {
      estimates.push_back(primary.EstimateCardinality(lq.query));
      truths.push_back(lq.cardinality);
    }
    const Status st = scp.Calibrate(estimates, truths);
    EXPECT_TRUE(st.ok()) << st.message();
  }
};

// Blocks every estimate until opened; lets tests pin a worker inside a
// batch so queue backlogs build deterministically.
class GateEstimator : public CardinalityEstimator {
 public:
  explicit GateEstimator(bool open) : open_(open) {}
  std::string name() const override { return "gate"; }
  void EstimateBatch(const Query*, size_t n, double* out) const override {
    while (!open_.load(std::memory_order_acquire)) std::this_thread::yield();
    for (size_t i = 0; i < n; ++i) out[i] = 42.0;
  }
  void set_open(bool open) { open_.store(open, std::memory_order_release); }

 private:
  mutable std::atomic<bool> open_;
};

class FailingEstimator : public CardinalityEstimator {
 public:
  std::string name() const override { return "failing"; }
  void EstimateBatch(const Query*, size_t n, double* out) const override {
    for (size_t i = 0; i < n; ++i) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
    }
  }
};

TEST(ServeTest, BatchedPathBitIdenticalToPerQueryGuardedPath) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  // The defaults the serving benches run with: B = 32, T = 200 us.
  EXPECT_EQ(opts.max_batch, 32);
  EXPECT_EQ(opts.flush_timeout_us, 200);
  opts.max_batch = 8;
  opts.flush_timeout_us = 100;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  const size_t n = f.base.workload.size();
  std::deque<Request> requests(n);
  for (size_t i = 0; i < n; ++i) {
    requests[i].query = f.base.workload[i].query;
    ASSERT_EQ(front.Submit(&requests[i]), Admit::kAccepted);
  }
  for (Request& r : requests) r.Wait();

  for (size_t i = 0; i < n; ++i) {
    const GuardedEstimate offline =
        f.guard.EstimateGuarded(f.base.workload[i].query);
    const Response& resp = requests[i].response;
    ASSERT_EQ(resp.estimate, offline.value) << "query " << i;
    EXPECT_FALSE(resp.degraded);
    EXPECT_FALSE(resp.shed);
    EXPECT_EQ(resp.source, 0);
    EXPECT_EQ(resp.shard, 0);
    EXPECT_GE(resp.batch_size, 1u);
    const Interval iv =
        ClipToCardinality(f.scp.Predict(offline.value), f.num_rows);
    ASSERT_EQ(resp.lo, iv.lo) << "query " << i;
    ASSERT_EQ(resp.hi, iv.hi) << "query " << i;
    EXPECT_LE(resp.lo, resp.estimate);
    EXPECT_GE(resp.hi, resp.estimate);
  }
  front.Stop();
}

TEST(ServeTest, FourShardsBitIdenticalToOneShard) {
  ServeFixture f;
  // Four shared-nothing replicas: separate estimator + guard instances
  // over the same table are behaviorally identical.
  std::vector<std::unique_ptr<HistogramEstimator>> primaries;
  std::vector<std::unique_ptr<GuardedEstimator>> guards;
  std::vector<const GuardedEstimator*> shard_guards;
  for (int i = 0; i < 4; ++i) {
    primaries.push_back(std::make_unique<HistogramEstimator>(f.base.table));
    guards.push_back(
        std::make_unique<GuardedEstimator>(*primaries.back(), f.base.table));
    shard_guards.push_back(guards.back().get());
  }
  ServeFrontEnd::Options opts;
  opts.max_batch = 8;
  opts.flush_timeout_us = 100;
  ServeFrontEnd front(shard_guards, f.scp, f.num_rows, opts);
  ASSERT_EQ(front.num_shards(), 4);

  const size_t n = f.base.workload.size();
  std::deque<Request> requests(n);
  for (size_t i = 0; i < n; ++i) {
    requests[i].query = f.base.workload[i].query;
    ASSERT_EQ(front.Submit(&requests[i]), Admit::kAccepted);
  }
  for (Request& r : requests) r.Wait();

  std::set<int> shards_used;
  for (size_t i = 0; i < n; ++i) {
    const Query& q = f.base.workload[i].query;
    const Response& resp = requests[i].response;
    // Same value the 1-shard (and offline per-query) path produces.
    ASSERT_EQ(resp.estimate, f.guard.EstimateGuarded(q).value) << "query " << i;
    EXPECT_FALSE(resp.degraded);
    EXPECT_EQ(resp.shard, front.ShardFor(q));
    shards_used.insert(resp.shard);
  }
  // Content-hash routing spreads a 20-query workload across replicas.
  EXPECT_GE(shards_used.size(), 2u);
  front.Stop();
}

TEST(ServeTest, MaxBatchOneDegeneratesToPerQuery) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  opts.max_batch = 1;
  opts.flush_timeout_us = 200;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  const size_t n = f.base.workload.size();
  std::deque<Request> requests(n);
  for (size_t i = 0; i < n; ++i) {
    requests[i].query = f.base.workload[i].query;
    ASSERT_EQ(front.Submit(&requests[i]), Admit::kAccepted);
  }
  for (Request& r : requests) r.Wait();
  front.Stop();

  uint64_t total = 0;
  const std::vector<uint64_t> counts = front.BatchSizeCounts();
  ASSERT_EQ(counts.size(), 2u);  // indices 0 and 1
  total = counts[1];
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(total, n);  // every batch had exactly one request
  for (const Request& r : requests) {
    EXPECT_EQ(r.response.batch_size, 1u);
  }
}

TEST(ServeTest, ZeroTimeoutFlushesImmediately) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  opts.max_batch = 32;
  opts.flush_timeout_us = 0;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  // Submitting one at a time, the queue never holds more than one
  // request, and T=0 forbids waiting for stragglers: every batch is 1.
  for (const LabeledQuery& lq : f.base.workload) {
    Request r;
    r.query = lq.query;
    ASSERT_EQ(front.Submit(&r), Admit::kAccepted);
    r.Wait();
    EXPECT_EQ(r.response.batch_size, 1u);
    EXPECT_FALSE(r.response.degraded);
  }
  front.Stop();
}

TEST(ServeTest, FullQueueShedsInsteadOfBlocking) {
  ServeFixture f;
  GateEstimator gate(/*open=*/false);
  GuardOptions gopts;
  gopts.max_retries = 0;
  gopts.breaker_threshold = 0;  // isolate queue shedding from the breaker
  GuardedEstimator guard(gate, f.base.table, gopts);
  ServeFrontEnd::Options opts;
  opts.max_batch = 1;
  opts.flush_timeout_us = 0;
  opts.queue_capacity = 4;
  ServeFrontEnd front({&guard}, f.scp, f.num_rows, opts);

  // The worker pops at most one request and blocks on the gate; the
  // queue (capacity 4) then fills, so at most 5 of 8 are accepted.
  constexpr size_t kSubmits = 8;
  std::deque<Request> requests(kSubmits);
  size_t shed = 0;
  for (size_t i = 0; i < kSubmits; ++i) {
    requests[i].query = f.base.workload[i % f.base.workload.size()].query;
    const Admit a = front.Submit(&requests[i]);
    if (a == Admit::kShedQueueFull) {
      ++shed;
      // Shed responses are published synchronously with the trivially
      // valid interval and both provenance flags raised.
      ASSERT_TRUE(requests[i].done());
      EXPECT_TRUE(requests[i].response.shed);
      EXPECT_TRUE(requests[i].response.degraded);
      EXPECT_EQ(requests[i].response.lo, 0.0);
      EXPECT_EQ(requests[i].response.hi, f.num_rows);
      EXPECT_EQ(requests[i].response.batch_size, 0u);
    } else {
      ASSERT_EQ(a, Admit::kAccepted);
    }
  }
  EXPECT_GE(shed, kSubmits - 5);
  EXPECT_LT(shed, kSubmits);

  gate.set_open(true);
  for (Request& r : requests) r.Wait();
  for (const Request& r : requests) {
    if (!r.response.shed) {
      EXPECT_EQ(r.response.estimate, 42.0);
      EXPECT_FALSE(r.response.degraded);
    }
  }
  front.Stop();
}

TEST(ServeTest, OpenBreakerShedsAboveWatermark) {
  ServeFixture f;
  FailingEstimator failing;
  GateEstimator gate(/*open=*/true);
  GuardOptions gopts;
  gopts.max_retries = 0;
  gopts.breaker_threshold = 1;
  gopts.breaker_cooldown = 1000000;  // stays open for the whole test
  GuardedEstimator guard(failing, f.base.table, gopts);
  guard.AddFallback(gate);

  // Trip the breaker while the gate fallback still answers instantly.
  ASSERT_TRUE(guard.EstimateGuarded(f.base.workload[0].query).degraded);
  ASSERT_TRUE(guard.breaker_open());
  gate.set_open(false);  // now the fallback pins the worker mid-batch

  ServeFrontEnd::Options opts;
  opts.max_batch = 1;
  opts.flush_timeout_us = 0;
  opts.queue_capacity = 8;
  opts.breaker_shed_watermark = 0.25;  // shed once the backlog hits 2
  ServeFrontEnd front({&guard}, f.scp, f.num_rows, opts);

  // Worker holds one request inside the gated fallback; by the fourth
  // submit the queue depth is >= 2, so admission control sheds.
  constexpr size_t kSubmits = 6;
  std::deque<Request> requests(kSubmits);
  size_t shed_breaker = 0;
  for (size_t i = 0; i < kSubmits; ++i) {
    requests[i].query = f.base.workload[i % f.base.workload.size()].query;
    const Admit a = front.Submit(&requests[i]);
    if (a == Admit::kShedBreaker) {
      ++shed_breaker;
      ASSERT_TRUE(requests[i].done());
      EXPECT_TRUE(requests[i].response.shed);
      EXPECT_TRUE(requests[i].response.degraded);
      EXPECT_EQ(requests[i].response.hi, f.num_rows);
    }
  }
  EXPECT_GE(shed_breaker, 1u);

  gate.set_open(true);
  for (Request& r : requests) r.Wait();
  for (const Request& r : requests) {
    if (!r.response.shed) {
      // Served through the open breaker's fallback chain: degraded, with
      // the inflated (here: trivially wide after clipping) interval.
      EXPECT_TRUE(r.response.degraded);
      EXPECT_EQ(r.response.estimate, 42.0);
    }
  }
  front.Stop();
}

TEST(ServeTest, StopDrainsInFlightRequestsCleanly) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  opts.max_batch = 32;
  opts.flush_timeout_us = 5000;  // long flush window: Stop must not wait it out
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  const size_t n = f.base.workload.size();
  std::deque<Request> requests(n);
  size_t accepted = 0;
  for (size_t i = 0; i < n; ++i) {
    requests[i].query = f.base.workload[i].query;
    if (front.Submit(&requests[i]) == Admit::kAccepted) ++accepted;
  }
  front.Stop();
  ASSERT_EQ(accepted, n);

  // Every accepted request has a published, correct response — none were
  // dropped between the queue, the worker exit, and the post-join drain.
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(requests[i].done()) << "request " << i;
    const Response& resp = requests[i].response;
    EXPECT_FALSE(resp.shed);
    ASSERT_EQ(resp.estimate,
              f.guard.EstimateGuarded(f.base.workload[i].query).value)
        << "request " << i;
  }

  // Submits after Stop are rejected with an immediate shed response.
  Request late;
  late.query = f.base.workload[0].query;
  EXPECT_EQ(front.Submit(&late), Admit::kRejectedStopped);
  EXPECT_TRUE(late.done());
  EXPECT_TRUE(late.response.shed);

  front.Stop();  // idempotent
}

TEST(ServeTest, InvalidQueryIsQuarantinedThroughServe) {
  ServeFixture f;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows);

  Request r;
  r.query = Query{{Predicate::Between(9, 0.0, 1.0)}};  // no column 9
  ASSERT_EQ(front.Submit(&r), Admit::kAccepted);
  r.Wait();
  EXPECT_TRUE(r.response.degraded);
  EXPECT_FALSE(r.response.shed);
  EXPECT_EQ(r.response.source, -1);
  EXPECT_EQ(r.response.estimate, 0.0);
  EXPECT_GE(r.response.lo, 0.0);
  EXPECT_LE(r.response.hi, f.num_rows);
  front.Stop();
}

TEST(ServeTest, MultiProducerSubmissionsAllServedCorrectly) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  opts.max_batch = 8;
  opts.flush_timeout_us = 50;
  opts.queue_capacity = 4096;  // no shedding: this test checks values
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  constexpr int kProducers = 4;
  constexpr int kRounds = 25;
  const size_t n = f.base.workload.size();
  std::vector<std::deque<Request>> slots(kProducers);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    slots[p].resize(kRounds * n);
    producers.emplace_back([&, p] {
      for (int round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < n; ++i) {
          Request& r = slots[p][round * n + i];
          r.query = f.base.workload[i].query;
          while (front.Submit(&r) != Admit::kAccepted) {
            std::this_thread::yield();
          }
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  front.Stop();

  for (int p = 0; p < kProducers; ++p) {
    for (int round = 0; round < kRounds; ++round) {
      for (size_t i = 0; i < n; ++i) {
        const Request& r = slots[p][round * n + i];
        ASSERT_TRUE(r.done());
        ASSERT_EQ(r.response.estimate,
                  f.guard.EstimateGuarded(f.base.workload[i].query).value)
            << "producer " << p << " round " << round << " query " << i;
        EXPECT_FALSE(r.response.degraded);
      }
    }
  }
}

TEST(ServeTest, SteadyStateHotPathIsAllocationFree) {
  ServeFixture f;
  ServeFrontEnd::Options opts;
  opts.max_batch = 4;
  opts.flush_timeout_us = 0;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, opts);

  auto run_pass = [&] {
    for (const LabeledQuery& lq : f.base.workload) {
      Request r;
      r.query = lq.query;
      ASSERT_EQ(front.Submit(&r), Admit::kAccepted);
      r.Wait();
    }
  };
  run_pass();  // warmup: grows Query slots, scratch, arena tensors
  front.ResetStats();
  run_pass();
  EXPECT_EQ(front.HotPathAllocs(), 0u);
  front.Stop();
}

TEST(ServeTest, ScratchReuseMatchesScratchFreeBatchPath) {
  ServeFixture f;
  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.base.workload) queries.push_back(lq.query);
  // Include an invalid slot so the compaction path exercises the scratch
  // `compacted` buffer too.
  queries.insert(queries.begin() + 3, Query{{Predicate::Between(9, 0.0, 1.0)}});

  std::vector<GuardedEstimate> plain(queries.size());
  f.guard.EstimateBatchGuarded(queries.data(), queries.size(), plain.data());

  GuardBatchScratch scratch;
  for (int pass = 0; pass < 2; ++pass) {  // second pass reuses capacity
    std::vector<GuardedEstimate> with_scratch(queries.size());
    f.guard.EstimateBatchGuarded(queries.data(), queries.size(),
                                 with_scratch.data(), /*order_key_base=*/0,
                                 &scratch);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(with_scratch[i].value, plain[i].value) << "slot " << i;
      ASSERT_EQ(with_scratch[i].degraded, plain[i].degraded) << "slot " << i;
      ASSERT_EQ(with_scratch[i].source, plain[i].source) << "slot " << i;
    }
  }
}

}  // namespace
}  // namespace serve
}  // namespace confcard
