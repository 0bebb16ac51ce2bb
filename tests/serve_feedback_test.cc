// The serving feedback loop's contracts: Observe routing and
// backpressure, warmup seeding, replay determinism of the adaptive
// trajectory (including out-of-order cross-shard feedback and 1-vs-4
// CONFCARD_THREADS), an unwarmed recalibrator falling back to the frozen
// delta, an all-degraded primary (every answer from the fallback chain)
// keeping the loop functional, the ladder topping out at kInflate on the
// primary with the guard's breaker untouched, a golden drift-and-recover
// trajectory at 1 and 4 shards, a heavier tail beyond the quantile
// leaving the ladder healthy, and the "shed":true JSONL record
// satellite.
#include "serve/serve.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ce/histogram.h"
#include "ce/lwnn.h"
#include "common/fault.h"
#include "common/parallel.h"
#include "conformal/interval.h"
#include "conformal/online.h"
#include "conformal/scoring.h"
#include "conformal/split.h"
#include "data/generators.h"
#include "obs/event_log.h"
#include "query/workload.h"

namespace confcard {
namespace serve {
namespace {

struct Base {
  Table table;
  Workload workload;
};

Base MakeBase(size_t num_queries = 60) {
  TableSpec spec;
  spec.name = "fb";
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
  wc.num_queries = num_queries;
  wc.seed = 5;
  Workload wl = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(wl)};
}

// Histogram primary + guard + q-error conformal calibrated on the
// fixture workload (the same scoring the drift loop recalibrates).
struct FeedbackFixture {
  Base base = MakeBase();
  HistogramEstimator primary{base.table};
  GuardedEstimator guard{primary, base.table};
  SplitConformal scp{MakeScoring(ScoreKind::kQError), 0.1};
  double num_rows = static_cast<double>(base.table.num_rows());

  FeedbackFixture() {
    std::vector<double> estimates;
    std::vector<double> truths;
    for (const LabeledQuery& lq : base.workload) {
      estimates.push_back(primary.EstimateCardinality(lq.query));
      truths.push_back(lq.cardinality);
    }
    const Status st = scp.Calibrate(estimates, truths);
    EXPECT_TRUE(st.ok()) << st.message();
  }

  ServeFrontEnd::Options FeedbackOptions() const {
    ServeFrontEnd::Options o;
    o.feedback = true;
    o.flush_timeout_us = 0;
    return o;
  }
};

struct Served {
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool degraded = false;
  int source = 0;
  /// The serving shard's ladder stage once the response is published.
  int stage = 0;

  bool operator==(const Served& other) const = default;
};

// Submits `query` and waits for its response. With one request in
// flight, the serving shard's stage cannot move until the next submit.
Served Serve(ServeFrontEnd* front, const Query& query) {
  Request r;
  r.query = query;
  front->Submit(&r);
  r.Wait();
  const Response& resp = r.response;
  return {resp.estimate, resp.lo, resp.hi, resp.degraded, resp.source,
          static_cast<int>(front->ShardStage(resp.shard))};
}

// Lockstep submit -> wait -> Observe over the fixture workload, cycled
// `rounds` times so the recalibrator sees a long stream. When given,
// `truth(round, i)` is what query i reports back in `round`.
std::vector<Served> RunLockstep(
    ServeFrontEnd* front, const Workload& wl, int rounds,
    const std::function<double(int, size_t)>& truth = nullptr) {
  std::vector<Served> served;
  for (int round = 0; round < rounds; ++round) {
    for (size_t i = 0; i < wl.size(); ++i) {
      served.push_back(Serve(front, wl[i].query));
      front->Observe(wl[i].query,
                     truth ? truth(round, i) : wl[i].cardinality);
    }
  }
  return served;
}

TEST(ServeFeedbackTest, ObserveRequiresFeedbackEnabled) {
  FeedbackFixture f;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows);
  EXPECT_FALSE(front.Observe(f.base.workload[0].query, 10.0));
  front.Stop();
  EXPECT_FALSE(front.Observe(f.base.workload[0].query, 10.0));
}

TEST(ServeFeedbackTest, FullRingDropsInsteadOfBlocking) {
  FeedbackFixture f;
  ServeFrontEnd::Options o = f.FeedbackOptions();
  o.feedback_capacity = 4;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, o);
  // No requests flow, so no worker ever drains the ring: pushes beyond
  // capacity must fail fast and be counted, never block.
  size_t accepted = 0;
  for (int i = 0; i < 64; ++i) {
    if (front.Observe(f.base.workload[0].query, 5.0)) ++accepted;
  }
  EXPECT_LE(accepted, 4u);
  EXPECT_EQ(front.FeedbackDropped(), 64u - accepted);
  front.Stop();
}

TEST(ServeFeedbackTest, WarmupSeedsHealthyStage) {
  FeedbackFixture f;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, f.FeedbackOptions());
  front.WarmupFeedback(f.base.workload);
  EXPECT_EQ(front.ShardStage(0), DriftStage::kHealthy);
  // A served request after warmup gets a finite adaptive interval.
  const Served s = Serve(&front, f.base.workload[0].query);
  EXPECT_FALSE(std::isinf(s.hi));
  EXPECT_LE(s.lo, s.hi);
  front.Stop();
}

TEST(ServeFeedbackTest, ReplayIsBitIdentical) {
  FeedbackFixture f;
  auto run = [&f]() {
    ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, f.FeedbackOptions());
    front.WarmupFeedback(f.base.workload);
    std::vector<Served> s = RunLockstep(&front, f.base.workload, 3);
    front.Stop();
    return s;
  };
  EXPECT_EQ(run(), run());
}

// The adaptive trajectory must be a pure function of each shard's
// feedback order. Observing the same per-shard sequences through a
// different *global* interleaving (all of shard A's truths before all
// of shard B's, vs stream order) must not change any response.
TEST(ServeFeedbackTest, CrossShardFeedbackOrderIsIndependent) {
  FeedbackFixture f;
  // Four shards over one shared (hence trivially identical) replica,
  // guarded independently so each shard owns its adaptive state.
  std::vector<std::unique_ptr<GuardedEstimator>> guards;
  std::vector<const GuardedEstimator*> shard_guards;
  HistogramEstimator replica(f.base.table);
  for (int i = 0; i < 4; ++i) {
    guards.push_back(std::make_unique<GuardedEstimator>(replica, f.base.table));
    shard_guards.push_back(guards.back().get());
  }

  auto run = [&](bool grouped_by_shard) {
    ServeFrontEnd front(shard_guards, f.scp, f.num_rows,
                        f.FeedbackOptions());
    front.WarmupFeedback(f.base.workload);
    std::vector<Served> served;
    for (int round = 0; round < 3; ++round) {
      // Serve the whole round first (estimates only depend on frozen
      // models), then feed truths back in the chosen global order.
      for (const LabeledQuery& lq : f.base.workload) {
        served.push_back(Serve(&front, lq.query));
      }
      if (grouped_by_shard) {
        for (int shard = 0; shard < front.num_shards(); ++shard) {
          for (const LabeledQuery& lq : f.base.workload) {
            if (front.ShardFor(lq.query) != shard) continue;
            EXPECT_TRUE(front.Observe(lq.query, lq.cardinality));
          }
        }
      } else {
        for (const LabeledQuery& lq : f.base.workload) {
          EXPECT_TRUE(front.Observe(lq.query, lq.cardinality));
        }
      }
      // Quiesce: one served request per shard forces every worker
      // through a batch boundary, applying the queued feedback before
      // the next round's responses.
      for (const LabeledQuery& lq : f.base.workload) Serve(&front, lq.query);
    }
    front.Stop();
    return served;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(ServeFeedbackTest, ThreadCountDoesNotChangeTrajectory) {
  FeedbackFixture f;
  auto run = [&f](int threads) {
    SetThreads(threads);
    ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, f.FeedbackOptions());
    front.WarmupFeedback(f.base.workload);
    std::vector<Served> s = RunLockstep(&front, f.base.workload, 3);
    front.Stop();
    return s;
  };
  const std::vector<Served> one = run(1);
  const std::vector<Served> four = run(4);
  SetThreads(0);  // restore the hardware default
  EXPECT_EQ(one, four);
}

// Feedback on and no warmup: the recalibrator starts empty, and at
// alpha 0.1 its quantile stays infinite until it holds 9 scores, so the
// first 9 answers must fall back to the frozen S-CP delta rather than
// serve infinite or inverted intervals.
TEST(ServeFeedbackTest, UnwarmedRecalibratorFallsBackToFrozenDelta) {
  FeedbackFixture f;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, f.FeedbackOptions());
  const std::vector<Served> served = RunLockstep(&front, f.base.workload, 2);
  front.Stop();
  for (const Served& s : served) {
    EXPECT_LE(s.lo, s.hi);
    EXPECT_GE(s.lo, 0.0);
    EXPECT_FALSE(std::isinf(s.hi));
  }
  for (size_t i = 0; i < 9; ++i) {
    const Interval frozen =
        ClipToCardinality(f.scp.Predict(served[i].estimate), f.num_rows);
    EXPECT_EQ(served[i].lo, frozen.lo) << i;
    EXPECT_EQ(served[i].hi, frozen.hi) << i;
  }
}

// Every primary estimate NaN-faulted: the guard serves the entire
// stream from the fallback chain (all-degraded window) and the feedback
// loop keeps recalibrating on fallback scores instead of wedging.
TEST(ServeFeedbackTest, AllDegradedWindowKeepsAdapting) {
  Base base = MakeBase();
  LwnnEstimator::Options lo;
  lo.histogram_buckets = 6;
  lo.hidden1 = 8;
  lo.hidden2 = 4;
  lo.epochs = 4;
  LwnnEstimator primary(lo);
  ASSERT_TRUE(primary.Train(base.table, base.workload).ok());
  GuardedEstimator guard(primary, base.table);
  SplitConformal scp(MakeScoring(ScoreKind::kQError), 0.1);
  std::vector<double> estimates;
  std::vector<double> truths;
  for (const LabeledQuery& lq : base.workload) {
    estimates.push_back(primary.EstimateCardinality(lq.query));
    truths.push_back(lq.cardinality);
  }
  ASSERT_TRUE(scp.Calibrate(estimates, truths).ok());

  ASSERT_TRUE(fault::Registry::Instance()
                  .ConfigureFromString("lwnn.forward:nan@1")
                  .ok());
  ServeFrontEnd::Options o;
  o.feedback = true;
  o.flush_timeout_us = 0;
  ServeFrontEnd front({&guard}, scp,
                      static_cast<double>(base.table.num_rows()), o);
  front.WarmupFeedback(base.workload);
  const std::vector<Served> served = RunLockstep(&front, base.workload, 3);
  front.Stop();
  fault::Registry::Instance().Clear();
  for (const Served& s : served) {
    EXPECT_TRUE(s.degraded);
    EXPECT_NE(s.source, 0);
    EXPECT_LE(s.lo, s.hi);
  }
}

// Truths pinned at N push the ladder as far as it goes. It tops out at
// kInflate, every answer stays on the primary, and the front-end never
// touches the guard's breaker (guards outlive front-ends and other
// callers may share them).
TEST(ServeFeedbackTest, PinnedTruthsTopOutAtInflateOnThePrimary) {
  FeedbackFixture f;
  ServeFrontEnd front({&f.guard}, f.scp, f.num_rows, f.FeedbackOptions());
  front.WarmupFeedback(f.base.workload);
  int breaker_open = 0;
  // Runs once per response, so it also samples the breaker mid-run.
  const auto pinned_at_n = [&f, &breaker_open](int, size_t) {
    breaker_open += f.guard.breaker_open() ? 1 : 0;
    return f.num_rows;
  };
  const std::vector<Served> served =
      RunLockstep(&front, f.base.workload, 8, pinned_at_n);
  front.Stop();
  int max_stage = 0;
  int off_primary = 0;
  for (const Served& s : served) {
    max_stage = std::max(max_stage, s.stage);
    if (s.source != 0 || s.degraded) ++off_primary;
  }
  EXPECT_EQ(max_stage, static_cast<int>(DriftStage::kInflate));
  EXPECT_EQ(off_primary, 0);
  EXPECT_EQ(breaker_open, 0);
  EXPECT_FALSE(f.guard.breaker_open());
}

// Golden ladder trajectory at 1 and 4 shards (the four share one guard).
// In rounds 2-7 every fourth query's truth is scaled by 10 (plus 1),
// which dips rolling coverage past inflate_dip; then the truths are
// exact again and every shard steps back down to kHealthy. The hashes,
// FNV-1a over the bits of every response's estimate, lo, hi, degraded,
// source and stage, were recorded with the five-stage ladder, which this
// stream never takes past kInflate.
TEST(ServeFeedbackTest, DriftAndRecoverTrajectoryMatchesGolden) {
  FeedbackFixture f;
  const auto drift_then_recover = [&f](int round, size_t i) {
    const double truth = f.base.workload[i].cardinality;
    return round >= 2 && round < 8 && i % 4 == 0 ? truth * 10.0 + 1.0 : truth;
  };
  for (const auto& [shards, golden] : {std::pair{1, 0x342873b1373ff615ull},
                                       std::pair{4, 0x434f58f61f2302b6ull}}) {
    SCOPED_TRACE(shards);
    ServeFrontEnd front(std::vector<const GuardedEstimator*>(shards, &f.guard),
                        f.scp, f.num_rows, f.FeedbackOptions());
    front.WarmupFeedback(f.base.workload);
    const std::vector<Served> served =
        RunLockstep(&front, f.base.workload, 32, drift_then_recover);
    for (int s = 0; s < shards; ++s) {
      EXPECT_EQ(front.ShardStage(s), DriftStage::kHealthy);
    }
    front.Stop();
    int max_stage = 0;
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const Served& s : served) {
      max_stage = std::max(max_stage, s.stage);
      for (const uint64_t v :
           {std::bit_cast<uint64_t>(s.estimate), std::bit_cast<uint64_t>(s.lo),
            std::bit_cast<uint64_t>(s.hi), static_cast<uint64_t>(s.degraded),
            static_cast<uint64_t>(s.source), static_cast<uint64_t>(s.stage)}) {
        for (int shift = 0; shift < 64; shift += 8) {
          hash ^= (v >> shift) & 0xFFull;
          hash *= 0x100000001b3ull;
        }
      }
    }
    EXPECT_EQ(max_stage, static_cast<int>(DriftStage::kInflate));
    EXPECT_EQ(hash, golden) << std::hex << "0x" << hash << "ull";
  }
}

// The ladder reads prequential coverage alone. The queries the frozen
// S-CP already misses report truths 100x further out; their scores
// explode, but they keep missing and the rest keep hitting, so coverage
// stays nominal and no stage is entered. Checked on a feedback shard's
// recalibrator feeding its detector, without the residual corrector: a
// corrector moves the served estimates, and so which queries are hit.
TEST(ServeFeedbackTest, HeavierTailBeyondTheQuantileStaysHealthy) {
  FeedbackFixture f;
  std::vector<double> estimates;
  std::vector<bool> missed;
  for (const LabeledQuery& lq : f.base.workload) {
    estimates.push_back(f.primary.EstimateCardinality(lq.query));
    missed.push_back(!f.scp.Predict(estimates.back()).Contains(lq.cardinality));
  }
  ASSERT_GT(std::count(missed.begin(), missed.end(), true), 0);
  OnlineConformal::Options ro;
  ro.alpha = f.scp.alpha();
  ro.window = ServeFrontEnd::kRecalWindow;
  ro.publish_metrics = false;
  OnlineConformal recal(f.scp.scoring_ptr(), ro);
  DriftDetector detector(1.0 - f.scp.alpha());
  int unhealthy = 0;
  // Round -1 is the warmup pass.
  for (int round = -1; round < 40; ++round) {
    for (size_t i = 0; i < f.base.workload.size(); ++i) {
      const double truth = f.base.workload[i].cardinality;
      recal.Observe(estimates[i],
                    round >= 30 && missed[i] ? truth * 100.0 + 1.0 : truth);
      const DriftStage stage = detector.Update(recal.rolling_coverage(),
                                               recal.rolling_observations());
      if (stage != DriftStage::kHealthy) ++unhealthy;
    }
  }
  EXPECT_EQ(unhealthy, 0);
}

// Satellite: shed responses leave a "shed":true record in the JSONL
// event stream so load-shedding is auditable offline.
TEST(ServeFeedbackTest, ShedResponsesEmitJsonlRecords) {
  FeedbackFixture f;
  const std::string path = ::testing::TempDir() + "/shed_events.jsonl";
  ASSERT_TRUE(obs::EventLog::Instance().OpenForTest(path).ok());
  {
    ServeFrontEnd front({&f.guard}, f.scp, f.num_rows);
    front.Stop();  // stopped front: every Submit is shed
    Request r;
    r.query = f.base.workload[0].query;
    EXPECT_EQ(front.Submit(&r), Admit::kRejectedStopped);
    EXPECT_TRUE(r.response.shed);
  }
  obs::EventLog::Instance().CloseForTest();
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string contents = ss.str();
  EXPECT_NE(contents.find("\"shed\":true"), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"type\":\"serve\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace serve
}  // namespace confcard
