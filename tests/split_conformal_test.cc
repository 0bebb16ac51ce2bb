// Split conformal prediction: finite-sample coverage under
// exchangeability, delta semantics, and behaviour across scoring
// functions — the statistical core of the paper.
#include "conformal/split.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"

namespace confcard {
namespace {

// Synthetic exchangeable regression stream: truth = signal + noise,
// model predicts the signal only. Calibration and test sets are i.i.d.
struct Stream {
  std::vector<double> estimates;
  std::vector<double> truths;
};

Stream MakeStream(size_t n, uint64_t seed, double noise_scale = 50.0) {
  Rng rng(seed);
  Stream s;
  for (size_t i = 0; i < n; ++i) {
    double signal = 100.0 + 900.0 * rng.NextDouble();
    double noise = noise_scale * rng.NextGaussian();
    s.estimates.push_back(signal);
    s.truths.push_back(std::max(0.0, signal + noise));
  }
  return s;
}

TEST(SplitConformalTest, DeltaIsConformalQuantileOfScores) {
  auto scoring = MakeScoring(ScoreKind::kResidual);
  SplitConformal scp(scoring, 0.2);
  std::vector<double> est = {10, 10, 10, 10, 10, 10, 10, 10, 10};
  std::vector<double> truth = {11, 12, 13, 14, 15, 16, 17, 18, 19};
  ASSERT_TRUE(scp.Calibrate(est, truth).ok());
  // Scores 1..9, rank = ceil(10*0.8) = 8 -> delta = 8.
  EXPECT_DOUBLE_EQ(scp.delta(), 8.0);
  Interval iv = scp.Predict(100.0);
  EXPECT_DOUBLE_EQ(iv.lo, 92.0);
  EXPECT_DOUBLE_EQ(iv.hi, 108.0);
}

TEST(SplitConformalTest, RejectsBadInputs) {
  SplitConformal scp(MakeScoring(ScoreKind::kResidual), 0.1);
  EXPECT_FALSE(scp.Calibrate({1.0}, {1.0, 2.0}).ok());
  EXPECT_FALSE(scp.Calibrate({}, {}).ok());
  EXPECT_FALSE(scp.calibrated());
}

TEST(SplitConformalTest, TinyCalibrationSetGivesInfiniteInterval) {
  SplitConformal scp(MakeScoring(ScoreKind::kResidual), 0.1);
  ASSERT_TRUE(scp.Calibrate({10.0, 10.0}, {11.0, 12.0}).ok());
  EXPECT_TRUE(std::isinf(scp.delta()));
  EXPECT_TRUE(std::isinf(scp.Predict(10.0).hi));
}

TEST(SplitConformalTest, DeltaMonotoneInCoverage) {
  Stream cal = MakeStream(2000, 71);
  double prev = 0.0;
  for (double alpha : {0.5, 0.2, 0.1, 0.05, 0.01}) {
    SplitConformal scp(MakeScoring(ScoreKind::kResidual), alpha);
    ASSERT_TRUE(scp.Calibrate(cal.estimates, cal.truths).ok());
    EXPECT_GE(scp.delta(), prev);
    prev = scp.delta();
  }
}

// The central theorem: coverage >= 1 - alpha in finite samples, for any
// scoring function, when calibration and test are exchangeable. Averaged
// over repetitions to keep the test deterministic and tight.
class ScpCoverageProperty
    : public ::testing::TestWithParam<std::tuple<ScoreKind, double>> {};

TEST_P(ScpCoverageProperty, CoverageAtLeastNominal) {
  const auto [kind, alpha] = GetParam();
  auto scoring = MakeScoring(kind);
  double covered = 0.0, total = 0.0;
  for (uint64_t rep = 0; rep < 10; ++rep) {
    Stream cal = MakeStream(800, 100 + rep);
    Stream test = MakeStream(800, 200 + rep);
    SplitConformal scp(scoring, alpha);
    ASSERT_TRUE(scp.Calibrate(cal.estimates, cal.truths).ok());
    for (size_t i = 0; i < test.truths.size(); ++i) {
      Interval iv = scp.Predict(test.estimates[i]);
      covered += iv.Contains(test.truths[i]) ? 1.0 : 0.0;
      total += 1.0;
    }
  }
  double coverage = covered / total;
  // Allow ~3 standard errors of slack below nominal.
  double slack = 3.0 * std::sqrt(alpha * (1 - alpha) / total);
  EXPECT_GE(coverage, 1.0 - alpha - slack);
  // And the intervals should not be trivially wide: coverage should not
  // be 1.0 across thousands of queries for moderate alpha.
  if (alpha >= 0.1) {
    EXPECT_LT(coverage, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ScpCoverageProperty,
    ::testing::Combine(::testing::Values(ScoreKind::kResidual,
                                         ScoreKind::kQError,
                                         ScoreKind::kRelative),
                       ::testing::Values(0.05, 0.1, 0.2)));

// Sharpness: with residual scoring on homoscedastic noise, the PI width
// should approximate the 2 * (1-alpha) noise quantile, not blow up.
TEST(SplitConformalTest, WidthTracksNoiseScale) {
  auto scoring = MakeScoring(ScoreKind::kResidual);
  Stream narrow = MakeStream(2000, 301, /*noise_scale=*/10.0);
  Stream wide = MakeStream(2000, 302, /*noise_scale=*/100.0);
  SplitConformal scp_n(scoring, 0.1), scp_w(scoring, 0.1);
  ASSERT_TRUE(scp_n.Calibrate(narrow.estimates, narrow.truths).ok());
  ASSERT_TRUE(scp_w.Calibrate(wide.estimates, wide.truths).ok());
  EXPECT_GT(scp_w.delta(), 5.0 * scp_n.delta());
  // Residual delta ~ 1.645 * sigma for alpha=0.1 Gaussian noise.
  EXPECT_NEAR(scp_n.delta(), 16.45, 5.0);
}

}  // namespace
}  // namespace confcard
