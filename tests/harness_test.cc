// Harness plumbing tests with cheap estimators: result fields populated,
// coverage sane, all four PI methods runnable end to end on a small
// single-table setup, plus the join harness, and golden rows pinning
// the bits of every runner's intervals.
#include "harness/single_table.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <ios>
#include <limits>

#include "ce/guarded.h"
#include "ce/histogram.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "common/parallel.h"
#include "conformal/interval.h"
#include "conformal/split.h"
#include "data/generators.h"
#include "harness/join_harness.h"
#include "query/join_workload.h"
#include "query/validate.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload train, calib, test;
};

Fixture MakeFixture() {
  TableSpec spec;
  spec.name = "t";
  spec.num_rows = 6000;
  spec.seed = 101;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 6;
  a.zipf_skew = 0.8;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 50.0;
  ColumnSpec c;
  c.name = "c";
  c.domain_size = 5;
  c.parent = 0;
  c.correlation = 0.7;
  spec.columns = {a, b, c};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = 400;
  wc.seed = 1;
  Workload train = GenerateWorkload(table, wc).value();
  wc.seed = 2;
  Workload calib = GenerateWorkload(table, wc).value();
  wc.seed = 3;
  wc.num_queries = 300;
  Workload test = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(train), std::move(calib),
          std::move(test)};
}

// A runner's golden rows: the first row's interval (hexfloat: exact
// bits) and an FNV-1a hash over the bits of every row's estimate, lo and
// hi.
struct GoldenRows {
  double lo0;
  double hi0;
  uint64_t hash;
};

uint64_t RowBitsHash(const MethodResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const PiRow& row : r.rows) {
    for (const double v : {row.estimate, row.lo, row.hi}) {
      const uint64_t bits = std::bit_cast<uint64_t>(v);
      for (int shift = 0; shift < 64; shift += 8) {
        h ^= (bits >> shift) & 0xFFull;
        h *= 0x100000001b3ull;
      }
    }
  }
  return h;
}

void ExpectGoldenRows(const MethodResult& r, const GoldenRows& golden) {
  SCOPED_TRACE(r.model + " " + r.method);
  ASSERT_FALSE(r.rows.empty());
  EXPECT_EQ(r.rows[0].lo, golden.lo0) << std::hexfloat << r.rows[0].lo;
  EXPECT_EQ(r.rows[0].hi, golden.hi0) << std::hexfloat << r.rows[0].hi;
  EXPECT_EQ(RowBitsHash(r), golden.hash)
      << std::hex << "0x" << RowBitsHash(r) << "ull";
}

TEST(SingleTableHarnessTest, ScpWithHistogramModel) {
  Fixture f = MakeFixture();
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  HistogramEstimator hist(f.table);
  MethodResult r = h.RunScp(hist);
  EXPECT_EQ(r.model, "histogram-avi");
  EXPECT_EQ(r.method, "s-cp");
  EXPECT_EQ(r.rows.size(), f.test.size());
  EXPECT_GE(r.coverage, 0.85);
  EXPECT_GT(r.mean_width_sel, 0.0);
  EXPECT_LE(r.mean_width_sel, 1.0);
  // Intervals are clipped to [0, N].
  for (const PiRow& row : r.rows) {
    EXPECT_GE(row.lo, 0.0);
    EXPECT_LE(row.hi, static_cast<double>(f.table.num_rows()));
  }
}

TEST(SingleTableHarnessTest, LwScpAdaptsWidths) {
  Fixture f = MakeFixture();
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  HistogramEstimator hist(f.table);
  MethodResult r = h.RunLwScp(hist);
  EXPECT_EQ(r.method, "lw-s-cp");
  EXPECT_GE(r.coverage, 0.82);
  // Widths should vary across queries (adaptive, not constant).
  double mn = 1e18, mx = -1.0;
  for (const PiRow& row : r.rows) {
    mn = std::min(mn, row.width());
    mx = std::max(mx, row.width());
  }
  EXPECT_GT(mx, 1.5 * std::max(mn, 1.0));
}

TEST(SingleTableHarnessTest, PerturbationDifficulty) {
  Fixture f = MakeFixture();
  SingleTableHarness::Options opts;
  opts.perturbations = 4;
  SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);
  HistogramEstimator hist(f.table);
  MethodResult r =
      h.RunLwScp(hist, DifficultySource::kPerturbation, nullptr);
  EXPECT_EQ(r.method, "lw-s-cp(pert)");
  EXPECT_GE(r.coverage, 0.80);
}

TEST(SingleTableHarnessTest, CqrWithLwnn) {
  Fixture f = MakeFixture();
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  LwnnEstimator::Options lo;
  lo.epochs = 20;
  lo.hidden1 = 24;
  lo.hidden2 = 12;
  LwnnEstimator proto(lo);
  MethodResult r = h.RunCqr(proto);
  EXPECT_EQ(r.method, "cqr");
  EXPECT_GE(r.coverage, 0.82);
  EXPECT_GT(r.prep_millis, 0.0);
}

TEST(SingleTableHarnessTest, JkCvWithLwnn) {
  Fixture f = MakeFixture();
  SingleTableHarness::Options opts;
  opts.jk_folds = 4;
  SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);
  LwnnEstimator::Options lo;
  lo.epochs = 15;
  lo.hidden1 = 24;
  lo.hidden2 = 12;
  LwnnEstimator proto(lo);
  ASSERT_TRUE(proto.Train(f.table, f.train).ok());
  MethodResult full = h.RunJkCv(proto, proto, /*simplified=*/false);
  EXPECT_EQ(full.method, "jk-cv+");
  EXPECT_GE(full.coverage, 0.85);  // CV+ floor is 1-2a; usually ~1-a
  MethodResult simp = h.RunJkCv(proto, proto, /*simplified=*/true);
  EXPECT_EQ(simp.method, "jk-cv+(s)");
  EXPECT_GE(simp.coverage, 0.80);
}

TEST(SingleTableHarnessTest, JkCvFixedModelForDataDriven) {
  Fixture f = MakeFixture();
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  HistogramEstimator hist(f.table);
  MethodResult r = h.RunJkCvFixedModel(hist);
  EXPECT_EQ(r.method, "jk-cv+");
  EXPECT_GE(r.coverage, 0.85);
}

TEST(SingleTableHarnessTest, QErrorScoringGivesMultiplicativeIntervals) {
  Fixture f = MakeFixture();
  SingleTableHarness::Options opts;
  opts.score = ScoreKind::kQError;
  SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);
  HistogramEstimator hist(f.table);
  MethodResult r = h.RunScp(hist);
  EXPECT_GE(r.coverage, 0.85);
  // Width should scale with the estimate under multiplicative scores:
  // compare small- vs large-estimate queries.
  double small_w = 0.0, large_w = 0.0;
  int small_n = 0, large_n = 0;
  for (const PiRow& row : r.rows) {
    if (row.estimate < 50.0 && row.hi < f.table.num_rows()) {
      small_w += row.width();
      ++small_n;
    } else if (row.estimate > 500.0 && row.hi < f.table.num_rows()) {
      large_w += row.width();
      ++large_n;
    }
  }
  if (small_n > 5 && large_n > 5) {
    EXPECT_LT(small_w / small_n, large_w / large_n);
  }
}

// Every single-table runner reproduces rows recorded before the
// single-table and join runners shared one implementation, at 1 and 4
// threads. Each thread count gets a fresh harness, so no row comes from
// the estimate cache.
TEST(SingleTableHarnessTest, RunnersReproduceGoldenRowsAtOneAndFourThreads) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();
  HistogramEstimator hist(f.table);
  GuardedEstimator guard(hist, f.table);
  LwnnEstimator::Options lo;
  lo.epochs = 15;
  lo.hidden1 = 24;
  lo.hidden2 = 12;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(f.table, f.train).ok());
  SingleTableHarness::Options opts;
  opts.jk_folds = 3;
  opts.ensemble_size = 2;
  opts.perturbations = 4;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreads(threads);
    SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);
    ExpectGoldenRows(h.RunScp(hist),
                     {0x0p+0, 0x1.1db42091f4002p+6, 0x76c123238a2f56feull});
    ExpectGoldenRows(h.RunScpGuarded(guard),
                     {0x0p+0, 0x1.1db42091f4002p+6, 0x76c123238a2f56feull});
    ExpectGoldenRows(h.RunLwScp(lwnn), {0x1.c3e002bcdf0bap+4,
                                        0x1.6f50caf769eb8p+6,
                                        0xdc55572cc87c9c75ull});
    ExpectGoldenRows(h.RunLwScp(lwnn, DifficultySource::kEnsemble, &lwnn),
                     {0x0p+0, 0x1.38cdccb5997ecp+7, 0xd93984637ad39f43ull});
    ExpectGoldenRows(h.RunLwScp(hist, DifficultySource::kPerturbation),
                     {0x0p+0, 0x1.5d39e58eff4bdp+5, 0xb7db7313420a1e8dull});
    ExpectGoldenRows(h.RunCqr(lwnn), {0x1.aaf9906d4d45p+0, 0x1.96b694eebda2ep+9,
                                      0x694341c897340198ull});
    ExpectGoldenRows(h.RunJkCv(lwnn, lwnn, /*simplified=*/false),
                     {0x0p+0, 0x1.468964ed16988p+9, 0xec9dee5e05f403e2ull});
    ExpectGoldenRows(h.RunJkCv(lwnn, lwnn, /*simplified=*/true),
                     {0x0p+0, 0x1.4a2f42fb48aa1p+9, 0x8ce73561b935314dull});
    ExpectGoldenRows(h.RunJkCvFixedModel(hist),
                     {0x0p+0, 0x1.26bd5f1100302p+6, 0xa18141742d3b1224ull});
  }
  SetThreads(saved_threads);
}

// Histogram estimates, except NaN for queries with an odd content key:
// the guard answers those from its histogram fallback, degraded.
class HalfFailingEstimator : public CardinalityEstimator {
 public:
  explicit HalfFailingEstimator(const Table& table) : hist_(table) {}
  std::string name() const override { return "half-failing"; }
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override {
    hist_.EstimateBatch(queries, n, out);
    for (size_t i = 0; i < n; ++i) {
      if (QueryContentKey(queries[i]) % 2 == 1) {
        out[i] = std::numeric_limits<double>::quiet_NaN();
      }
    }
  }

 private:
  HistogramEstimator hist_;
};

// A degraded RunScpGuarded row is inverted at the healthy-calibrated
// delta times kDegradedInflation, the constant the serving front-end
// also reads, then clipped to [0, N].
TEST(SingleTableHarnessTest, GuardedScpInflatesDegradedRowsBySharedConstant) {
  Fixture f = MakeFixture();
  HalfFailingEstimator primary(f.table);
  GuardOptions gopts;
  gopts.max_retries = 0;
  gopts.breaker_threshold = 0;  // healthy queries always reach the primary
  GuardedEstimator guard(primary, f.table, gopts);
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  const MethodResult r = h.RunScpGuarded(guard);

  // The harness calibrates on the healthy calibration answers only.
  std::vector<double> est, truth;
  for (const LabeledQuery& lq : f.calib) {
    const GuardedEstimate g = guard.EstimateGuarded(lq.query);
    if (g.degraded) continue;
    est.push_back(g.value);
    truth.push_back(lq.cardinality);
  }
  SplitConformal scp(MakeScoring(ScoreKind::kResidual), h.options().alpha);
  ASSERT_TRUE(scp.Calibrate(est, truth).ok());

  const double n = static_cast<double>(f.table.num_rows());
  size_t degraded = 0;
  size_t unclipped = 0;
  for (const PiRow& row : r.rows) {
    if (!row.degraded) continue;
    ++degraded;
    const Interval want = ClipToCardinality(
        scp.scoring().Invert(row.estimate, scp.delta() * kDegradedInflation),
        n);
    EXPECT_EQ(row.lo, want.lo);
    EXPECT_EQ(row.hi, want.hi);
    if (want.lo > 0.0 && want.hi < n) ++unclipped;
  }
  EXPECT_GT(degraded, 0u);
  // Neither bound of these rows is clipped, so they show the factor.
  EXPECT_GT(unclipped, 0u);
}

TEST(EstimatorInstanceIdTest, UniqueAcrossReusedStorage) {
  // Regression test for the estimate-cache bug: models re-created at
  // the same address must not alias. instance_id must be fresh even
  // when the object occupies the same storage as a destroyed one.
  Fixture f = MakeFixture();
  SingleTableHarness h(f.table, f.train, f.calib, f.test, {});
  uint64_t first_id = 0;
  double first_width = 0.0;
  for (int buckets : {4, 64}) {
    HistogramEstimator hist(f.table, buckets);
    if (first_id == 0) {
      first_id = hist.instance_id();
      first_width = h.RunScp(hist).mean_width_sel;
    } else {
      EXPECT_NE(hist.instance_id(), first_id);
      // Different statistics resolution -> different estimates ->
      // different widths. A stale cache would repeat first_width.
      EXPECT_NE(h.RunScp(hist).mean_width_sel, first_width);
    }
  }
}

// The validating factory: user-supplied configs must come back as
// InvalidArgument, not a CONFCARD_CHECK abort deep in split.cc.
TEST(SingleTableHarnessTest, MakeRejectsInvalidConfigs) {
  Fixture f = MakeFixture();
  SingleTableHarness::Options opts;

  auto make = [&](SingleTableHarness::Options o, Workload calib,
                  Workload test) {
    return SingleTableHarness::Make(f.table, f.train, std::move(calib),
                                    std::move(test), o);
  };

  opts.alpha = 0.0;
  EXPECT_EQ(make(opts, f.calib, f.test).status().code(),
            StatusCode::kInvalidArgument);
  opts.alpha = 1.5;
  EXPECT_EQ(make(opts, f.calib, f.test).status().code(),
            StatusCode::kInvalidArgument);

  opts = {};
  opts.jk_folds = 1;
  EXPECT_EQ(make(opts, f.calib, f.test).status().code(),
            StatusCode::kInvalidArgument);

  opts = {};
  EXPECT_EQ(make(opts, Workload{}, f.test).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(make(opts, f.calib, Workload{}).status().code(),
            StatusCode::kInvalidArgument);

  // A query referencing a column the table does not have.
  Workload bad_test = f.test;
  bad_test[0].query.predicates.push_back(Predicate::Between(42, 0.0, 1.0));
  EXPECT_EQ(make(opts, f.calib, bad_test).status().code(),
            StatusCode::kInvalidArgument);

  // The well-formed config builds and runs.
  auto h = make(opts, f.calib, f.test);
  ASSERT_TRUE(h.ok());
  HistogramEstimator hist(f.table);
  MethodResult r = h->RunScp(hist);
  EXPECT_EQ(r.rows.size(), f.test.size());
}

TEST(JoinHarnessTest, MakeRejectsInvalidConfigs) {
  Database db = MakeDsbLike(1500, 35).value();
  JoinWorkloadConfig jc;
  jc.queries_per_template = 4;
  auto tpls = DsbTemplates();
  tpls.resize(2);
  jc.seed = 7;
  JoinWorkload calib = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 8;
  JoinWorkload test = GenerateJoinWorkload(db, tpls, jc).value();

  JoinHarness::Options opts;
  opts.alpha = -0.1;
  EXPECT_EQ(JoinHarness::Make(db, {}, calib, test, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = {};
  opts.jk_folds = 0;
  EXPECT_EQ(JoinHarness::Make(db, {}, calib, test, opts).status().code(),
            StatusCode::kInvalidArgument);
  opts = {};
  EXPECT_EQ(JoinHarness::Make(db, {}, {}, test, opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JoinHarness::Make(db, {}, calib, {}, opts).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(JoinHarness::Make(db, {}, calib, test, opts).ok());
}

TEST(FinalizeMethodResultTest, AggregatesCorrectly) {
  MethodResult r;
  r.rows = {{100.0, 90.0, 80.0, 120.0},   // covered, width 40
            {100.0, 90.0, 110.0, 120.0},  // not covered, width 10
            {50.0, 50.0, 40.0, 60.0}};    // covered, width 20
  FinalizeMethodResult(&r, 1000.0);
  EXPECT_NEAR(r.coverage, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(r.mean_width_sel, (0.04 + 0.01 + 0.02) / 3.0, 1e-12);
  EXPECT_NEAR(r.median_width_sel, 0.02, 1e-12);
}

// Degraded (fallback-answered) rows must not pollute the headline
// aggregates: coverage/width come from healthy rows only, and the
// degraded slice is reported on the side.
TEST(FinalizeMethodResultTest, DegradedRowsAggregateSeparately) {
  MethodResult r;
  r.rows = {{100.0, 90.0, 80.0, 120.0},            // healthy, covered
            {100.0, 90.0, 110.0, 120.0},           // healthy, not covered
            {50.0, 50.0, 10.0, 90.0, 0.0, true},   // degraded, covered
            {50.0, 50.0, 60.0, 90.0, 0.0, true}};  // degraded, not covered
  FinalizeMethodResult(&r, 1000.0);
  EXPECT_EQ(r.num_degraded, 2u);
  EXPECT_NEAR(r.coverage, 0.5, 1e-12);
  EXPECT_NEAR(r.coverage_degraded, 0.5, 1e-12);
  EXPECT_NEAR(r.mean_width_sel, (0.04 + 0.01) / 2.0, 1e-12);
}

TEST(JoinHarnessTest, ScpOverDsbWorkload) {
  Database db = MakeDsbLike(4000, 31).value();
  JoinWorkloadConfig jc;
  jc.queries_per_template = 12;
  auto tpls = DsbTemplates();
  tpls.resize(5);
  jc.seed = 1;
  JoinWorkload train = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 2;
  JoinWorkload calib = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 3;
  JoinWorkload test = GenerateJoinWorkload(db, tpls, jc).value();

  MscnConfig mc;
  mc.epochs = 15;
  MscnJoinEstimator mscn(mc);
  ASSERT_TRUE(mscn.Train(db, train).ok());

  JoinHarness h(db, train, calib, test, {});
  MethodResult r = h.RunScp(mscn);
  EXPECT_EQ(r.rows.size(), test.size());
  EXPECT_GE(r.coverage, 0.80);
  MethodResult lw = h.RunLwScp(mscn);
  EXPECT_GE(lw.coverage, 0.78);
}

TEST(JoinHarnessTest, CqrAndJkOverDsbWorkload) {
  Database db = MakeDsbLike(4000, 33).value();
  JoinWorkloadConfig jc;
  jc.queries_per_template = 15;
  auto tpls = DsbTemplates();
  tpls.resize(4);
  jc.seed = 4;
  JoinWorkload train = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 5;
  JoinWorkload calib = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 6;
  JoinWorkload test = GenerateJoinWorkload(db, tpls, jc).value();

  MscnConfig mc;
  mc.epochs = 12;
  MscnJoinEstimator mscn(mc);
  ASSERT_TRUE(mscn.Train(db, train).ok());

  JoinHarness::Options opts;
  opts.jk_folds = 3;
  JoinHarness h(db, train, calib, test, opts);
  MethodResult cqr = h.RunCqr(mscn);
  EXPECT_EQ(cqr.method, "cqr");
  EXPECT_GE(cqr.coverage, 0.78);
  MethodResult jk = h.RunJkCv(mscn, mscn);
  EXPECT_EQ(jk.method, "jk-cv+");
  EXPECT_GE(jk.coverage, 0.78);  // CV+ floor 1 - 2*alpha = 0.8
}

// The join runners reproduce rows recorded before they shared one
// implementation with the single-table runners, at 1 and 4 threads.
TEST(JoinHarnessTest, RunnersReproduceGoldenRowsAtOneAndFourThreads) {
  const int saved_threads = CurrentThreads();
  Database db = MakeDsbLike(3000, 37).value();
  JoinWorkloadConfig jc;
  jc.queries_per_template = 10;
  auto tpls = DsbTemplates();
  tpls.resize(4);
  jc.seed = 21;
  JoinWorkload train = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 22;
  JoinWorkload calib = GenerateJoinWorkload(db, tpls, jc).value();
  jc.seed = 23;
  JoinWorkload test = GenerateJoinWorkload(db, tpls, jc).value();

  MscnConfig mc;
  mc.epochs = 8;
  MscnJoinEstimator mscn(mc);
  ASSERT_TRUE(mscn.Train(db, train).ok());
  JoinHarness::Options opts;
  opts.jk_folds = 3;

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreads(threads);
    JoinHarness h(db, train, calib, test, opts);
    ExpectGoldenRows(h.RunScp(mscn),
                     {0x0p+0, 0x1.94e1b0c66ced5p+9, 0x309e59b52a70a5d0ull});
    ExpectGoldenRows(h.RunLwScp(mscn),
                     {0x0p+0, 0x1.84c9d343caa51p+9, 0x398a5c20b7fe1915ull});
    ExpectGoldenRows(h.RunCqr(mscn),
                     {0x0p+0, 0x1.94afcd9e52834p+9, 0xcf0b1c3b33372a02ull});
    ExpectGoldenRows(h.RunJkCv(mscn, mscn),
                     {0x0p+0, 0x1.94895b4ffedf9p+9, 0xc2fe75f1399ea891ull});
  }
  SetThreads(saved_threads);
}

}  // namespace
}  // namespace confcard
