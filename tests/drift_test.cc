// The drift-robustness primitives: CONFCARD_DRIFT grammar parsing and
// replayable stream generation, OnlineConformal sliding-window edge
// cases the serving feedback path leans on (window size 1, reset,
// alloc-free steady state), the AQO-style residual corrector, and the
// staged drift-detector ladder.
#include <cmath>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "ce/residual.h"
#include "conformal/online.h"
#include "conformal/scoring.h"
#include "data/drift.h"
#include "obs/profiler.h"
#include "query/predicate.h"
#include "serve/drift_detector.h"

namespace confcard {
namespace {

// ------------------------------------------------------------------
// CONFCARD_DRIFT grammar.
// ------------------------------------------------------------------

TEST(DriftSpecTest, ParsesEveryKind) {
  const auto specs =
      drift::ParseDriftSpecs(
          "append:0.2@0.3;update:0.5@0.4;delete:0.1@0.5;zipf:0.9@0.6;"
          "corr:1@0.7;template:0.25@0.8")
          .value();
  ASSERT_EQ(specs.size(), 6u);
  EXPECT_EQ(specs[0].kind, drift::DriftKind::kAppend);
  EXPECT_EQ(specs[3].kind, drift::DriftKind::kZipf);
  EXPECT_EQ(specs[4].kind, drift::DriftKind::kCorrelation);
  EXPECT_EQ(specs[5].kind, drift::DriftKind::kTemplate);
  EXPECT_DOUBLE_EQ(specs[1].magnitude, 0.5);
  EXPECT_DOUBLE_EQ(specs[1].onset, 0.4);
}

TEST(DriftSpecTest, RequiresExplicitOnsetAndAllowsEmptyInput) {
  // The grammar is strict: every arm names its onset.
  EXPECT_FALSE(drift::ParseDriftSpecs("zipf:0.5").ok());
  EXPECT_TRUE(drift::ParseDriftSpecs("").value().empty());
  EXPECT_TRUE(drift::ParseDriftSpecs("  ").value().empty());
}

TEST(DriftSpecTest, RejectsMalformedEntries) {
  EXPECT_FALSE(drift::ParseDriftSpecs("wobble:0.5").ok());
  EXPECT_FALSE(drift::ParseDriftSpecs("zipf").ok());
  EXPECT_FALSE(drift::ParseDriftSpecs("zipf:1.5").ok());    // magnitude > 1
  EXPECT_FALSE(drift::ParseDriftSpecs("zipf:0.5@1").ok());  // onset >= 1
  EXPECT_FALSE(drift::ParseDriftSpecs("zipf:abc@0.5").ok());
}

TEST(DriftSpecTest, RenderRoundTrips) {
  const char* text = "update:0.5@0.4;zipf:0.9@0.6;template:0.25@0.8";
  const auto specs = drift::ParseDriftSpecs(text).value();
  EXPECT_EQ(drift::RenderDriftSpecs(specs), text);
}

// ------------------------------------------------------------------
// Stream generation: determinism and per-kind semantics.
// ------------------------------------------------------------------

TableSpec SmallSpec() {
  TableSpec spec;
  spec.name = "drift_t";
  spec.num_rows = 2000;
  spec.seed = 11;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 20;
  a.zipf_skew = 0.5;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 100.0;
  spec.columns = {a, b};
  return spec;
}

drift::DriftStreamOptions SmallStream(size_t n = 200) {
  drift::DriftStreamOptions so;
  so.num_queries = n;
  so.seed = 3;
  return so;
}

TEST(DriftStreamTest, RegenerationIsBitIdentical) {
  const auto specs = drift::ParseDriftSpecs("update:0.6@0.4;zipf:0.6@0.4")
                         .value();
  const drift::DriftStream s1 =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), specs).value();
  const drift::DriftStream s2 =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), specs).value();
  ASSERT_EQ(s1.stream.size(), s2.stream.size());
  EXPECT_EQ(s1.onset_index, s2.onset_index);
  for (size_t i = 0; i < s1.stream.size(); ++i) {
    EXPECT_EQ(s1.stream[i].query, s2.stream[i].query) << "i=" << i;
    EXPECT_DOUBLE_EQ(s1.stream[i].cardinality, s2.stream[i].cardinality)
        << "i=" << i;
  }
}

TEST(DriftStreamTest, OnsetSplitsTruthSources) {
  const auto specs = drift::ParseDriftSpecs("update:0.8@0.5").value();
  const drift::DriftStream s =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), specs).value();
  EXPECT_EQ(s.onset_index, 100u);
  EXPECT_EQ(s.data_onset_index, 100u);
  // Pre-onset truths are exact under the pre table; post-onset under the
  // post table (spot-check via the labeled cardinalities being
  // consistent with *some* change: the tables differ).
  EXPECT_EQ(s.pre_table.num_rows(), s.post_table.num_rows());
}

TEST(DriftStreamTest, AppendAndDeleteChangeRowCount) {
  const auto append = drift::ParseDriftSpecs("append:0.5@0.25").value();
  const drift::DriftStream sa =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), append).value();
  EXPECT_EQ(sa.post_table.num_rows(), 3000u);

  // Deletion selects rows by a deterministic per-row hash at the arm's
  // rate, so the surviving count is rate-accurate, not exact.
  const auto del = drift::ParseDriftSpecs("delete:0.25@0.25").value();
  const drift::DriftStream sd =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), del).value();
  EXPECT_NEAR(static_cast<double>(sd.post_table.num_rows()), 1500.0, 100.0);
  const drift::DriftStream sd2 =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), del).value();
  EXPECT_EQ(sd.post_table.num_rows(), sd2.post_table.num_rows());
}

TEST(DriftStreamTest, NoSpecsMeansNoDrift) {
  const drift::DriftStream s =
      drift::GenerateDriftStream(SmallSpec(), SmallStream(), {}).value();
  EXPECT_EQ(s.onset_index, s.stream.size());
  EXPECT_EQ(s.pre_table.num_rows(), s.post_table.num_rows());
}

TEST(DriftStreamTest, ShiftedSpecMovesZipfAndCorrelation) {
  TableSpec base = SmallSpec();
  ColumnSpec child;
  child.name = "c";
  child.domain_size = 10;
  child.parent = 0;  // correlation shifts only apply to correlated columns
  child.correlation = 0.2;
  base.columns.push_back(child);
  const auto specs = drift::ParseDriftSpecs("zipf:1@0.5;corr:1@0.5").value();
  const TableSpec shifted = drift::ShiftedTableSpec(base, specs);
  EXPECT_DOUBLE_EQ(shifted.columns[0].zipf_skew,
                   0.5 + drift::kZipfSkewSpan);
  // corr at magnitude 1: c' = c + 1 * (1 - 2c) = 1 - c.
  EXPECT_DOUBLE_EQ(shifted.columns[2].correlation, 0.8);
}

// ------------------------------------------------------------------
// OnlineConformal edge cases under feedback.
// ------------------------------------------------------------------

OnlineConformal::Options WindowedOpts(size_t window, double alpha = 0.5) {
  OnlineConformal::Options o;
  o.alpha = alpha;
  o.window = window;
  o.publish_metrics = false;
  return o;
}

TEST(OnlineWindowTest, WindowSizeOneTracksNewestScore) {
  // alpha = 0.5 needs ceil(1/alpha) - 1 = 1 score for a finite delta,
  // so a size-1 window is the smallest functional recalibrator: delta
  // is always the single newest score.
  OnlineConformal oc(MakeScoring(ScoreKind::kResidual), WindowedOpts(1));
  oc.Observe(10.0, 14.0);  // score 4
  EXPECT_EQ(oc.size(), 1u);
  EXPECT_DOUBLE_EQ(oc.delta(), 4.0);
  oc.Observe(10.0, 11.0);  // score 1 evicts score 4
  EXPECT_EQ(oc.size(), 1u);
  EXPECT_DOUBLE_EQ(oc.delta(), 1.0);
  EXPECT_EQ(oc.observed(), 2u);
}

TEST(OnlineWindowTest, ResetWindowToKeepsNewestScores) {
  OnlineConformal oc(MakeScoring(ScoreKind::kResidual), WindowedOpts(8));
  for (int i = 1; i <= 8; ++i) {
    oc.Observe(0.0, static_cast<double>(i));  // scores 1..8, oldest first
  }
  oc.ResetWindowTo(2);  // keep scores 7, 8
  EXPECT_EQ(oc.size(), 2u);
  // alpha 0.5 over {7, 8}: conformal rank quantile is the largest score.
  EXPECT_DOUBLE_EQ(oc.delta(), 8.0);
  oc.Observe(0.0, 1.0);
  EXPECT_EQ(oc.size(), 3u);
  oc.ResetWindowTo(0);
  EXPECT_EQ(oc.size(), 0u);
  EXPECT_TRUE(std::isinf(oc.delta()));
}

// Only the windowed recalibrator keeps arrival order; the unbounded one
// has nothing to reset to.
TEST(OnlineWindowDeathTest, ResetWindowToNeedsAWindow) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  OnlineConformal oc(MakeScoring(ScoreKind::kResidual), WindowedOpts(0));
  oc.Observe(0.0, 1.0);
  EXPECT_DEATH(oc.ResetWindowTo(1), "windowed OnlineConformal");
}

TEST(OnlineWindowTest, WindowedObserveIsAllocationFree) {
  OnlineConformal oc(MakeScoring(ScoreKind::kQError), WindowedOpts(32, 0.1));
  for (int i = 0; i < 64; ++i) {
    oc.Observe(10.0 + i, 12.0 + i);  // fill and start evicting
  }
  const uint64_t before = obs::prof::ThreadAllocCount();
  for (int i = 0; i < 256; ++i) {
    oc.Observe(5.0 + (i % 7), 9.0 + (i % 13));
    (void)oc.delta();
  }
  oc.ResetWindowTo(8);
  EXPECT_EQ(obs::prof::ThreadAllocCount() - before, 0u);
}

TEST(OnlineWindowTest, RollingMonitorsSurviveDegenerateStreams) {
  // An "all-degraded window": every estimate is the same fallback
  // sentinel and every truth misses the interval. Monitors must stay
  // finite and the detector-facing accessors well-defined.
  OnlineConformal oc(MakeScoring(ScoreKind::kQError), WindowedOpts(4, 0.1));
  for (int i = 0; i < 32; ++i) {
    oc.Observe(0.0, 5000.0);
  }
  EXPECT_EQ(oc.size(), 4u);
  EXPECT_GE(oc.rolling_coverage(), 0.0);
  EXPECT_LE(oc.rolling_coverage(), 1.0);
  EXPECT_EQ(oc.rolling_observations(), 32u);
}

// ------------------------------------------------------------------
// Residual corrector (AQO-style executed-query feedback).
// ------------------------------------------------------------------

Query TwoColQuery(double a_lit, double b_lo, double b_hi) {
  Query q;
  q.predicates.push_back(Predicate::Eq(0, a_lit));
  q.predicates.push_back(Predicate::Between(1, b_lo, b_hi));
  return q;
}

TEST(ResidualCorrectorTest, SubspaceHashIgnoresLiterals) {
  const uint64_t h1 = ResidualCorrector::SubspaceHash(TwoColQuery(1, 0, 9));
  const uint64_t h2 = ResidualCorrector::SubspaceHash(TwoColQuery(7, 3, 5));
  EXPECT_EQ(h1, h2);
  // Different op on the same column -> different subspace.
  Query q3;
  q3.predicates.push_back(Predicate::Between(0, 1.0, 2.0));
  q3.predicates.push_back(Predicate::Between(1, 0.0, 9.0));
  EXPECT_NE(ResidualCorrector::SubspaceHash(q3), h1);
  // Predicate order must not matter (sorted before hashing).
  Query q4;
  q4.predicates.push_back(Predicate::Between(1, 0.0, 9.0));
  q4.predicates.push_back(Predicate::Eq(0, 3.0));
  EXPECT_EQ(ResidualCorrector::SubspaceHash(q4), h1);
}

TEST(ResidualCorrectorTest, IdentityBelowMinObservations) {
  ResidualCorrector rc;
  const uint64_t fss = 42;
  for (uint64_t i = 0; i + 1 < ResidualCorrector::kMinObservations; ++i) {
    EXPECT_DOUBLE_EQ(rc.Correct(fss, 10.0), 10.0);
    rc.Observe(fss, 10.0, 100.0);
  }
  // One short of kMinObservations: still the identity.
  EXPECT_DOUBLE_EQ(rc.Correct(fss, 10.0), 10.0);
  rc.Observe(fss, 10.0, 100.0);
  EXPECT_GT(rc.Correct(fss, 10.0), 10.0);  // bias now applied
}

TEST(ResidualCorrectorTest, ConvergesTowardObservedBias) {
  ResidualCorrector rc;
  const uint64_t fss = 7;
  for (int i = 0; i < 64; ++i) {
    rc.Observe(fss, 10.0, 110.0);  // persistent ~10x underestimate
  }
  const double corrected = rc.Correct(fss, 10.0);
  EXPECT_GT(corrected, 80.0);
  EXPECT_LT(corrected, 140.0);
}

TEST(ResidualCorrectorTest, CorrectionIsClamped) {
  ResidualCorrector rc;
  const uint64_t fss = 9;
  for (int i = 0; i < 64; ++i) {
    rc.Observe(fss, 1.0, 100000.0);
  }
  // (est + 1) * factor - 1 with factor clamped at kMaxCorrection.
  EXPECT_LE(rc.Correct(fss, 1.0),
            2.0 * ResidualCorrector::kMaxCorrection - 1.0 + 1e-9);
}

TEST(ResidualCorrectorTest, EvictsLowestCountWhenFull) {
  ResidualCorrector rc;
  // Four times as many subspaces as slots.
  for (uint64_t k = 0; k < 4 * ResidualCorrector::kCapacity; ++k) {
    rc.Observe(k * 0x9E3779B97F4A7C15ULL + 1, 10.0, 20.0);
  }
  EXPECT_LE(rc.entries(), ResidualCorrector::kCapacity);
  EXPECT_GT(rc.evictions(), 0u);
  rc.Reset();
  EXPECT_EQ(rc.entries(), 0u);
}

// ------------------------------------------------------------------
// Drift-detector ladder.
// ------------------------------------------------------------------

using serve::DriftDetector;

TEST(DriftDetectorTest, SilentBelowMinObservations) {
  DriftDetector d(0.9);
  EXPECT_EQ(d.Update(0.0, DriftDetector::kMinObservations - 1),
            serve::DriftStage::kHealthy);
  EXPECT_EQ(d.stage(), serve::DriftStage::kHealthy);
}

TEST(DriftDetectorTest, EscalatesImmediatelyToMatchingStage) {
  DriftDetector d(0.9);
  // Coverage dip of 0.1 >= kInflateDip (0.08): jump straight to
  // kInflate without passing through kRecalibrate.
  EXPECT_EQ(d.Update(0.8, 100), serve::DriftStage::kInflate);
  // kInflate is the top: a total collapse escalates no further.
  EXPECT_EQ(d.Update(0.0, 100), serve::DriftStage::kInflate);
}

TEST(DriftDetectorTest, DeescalatesOneStageAfterRecoveryHold) {
  DriftDetector d(0.9);
  ASSERT_EQ(d.Update(0.5, 100), serve::DriftStage::kInflate);
  // kRecoveryHold healthy observations step down exactly one stage.
  for (size_t i = 0; i + 1 < DriftDetector::kRecoveryHold; ++i) {
    ASSERT_EQ(d.Update(0.91, 100), serve::DriftStage::kInflate) << i;
  }
  EXPECT_EQ(d.Update(0.91, 100), serve::DriftStage::kRecalibrate);
  // An unhealthy observation resets the streak.
  for (size_t i = 0; i + 1 < DriftDetector::kRecoveryHold; ++i) {
    ASSERT_EQ(d.Update(0.91, 100), serve::DriftStage::kRecalibrate) << i;
  }
  EXPECT_EQ(d.Update(0.88, 100), serve::DriftStage::kRecalibrate);
  for (size_t i = 0; i + 1 < DriftDetector::kRecoveryHold; ++i) {
    ASSERT_EQ(d.Update(0.91, 100), serve::DriftStage::kRecalibrate) << i;
  }
  EXPECT_EQ(d.Update(0.91, 100), serve::DriftStage::kHealthy);
}

TEST(DriftDetectorTest, StageNamesRender) {
  EXPECT_STREQ(serve::DriftStageToString(serve::DriftStage::kHealthy),
               "healthy");
  EXPECT_STREQ(serve::DriftStageToString(serve::DriftStage::kRecalibrate),
               "recalibrate");
  EXPECT_STREQ(serve::DriftStageToString(serve::DriftStage::kInflate),
               "inflate");
}

}  // namespace
}  // namespace confcard
