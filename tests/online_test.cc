// Online conformal prediction: the Figure 8 mechanism (growing
// calibration set) and the sliding-window variant.
#include "conformal/online.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace confcard {
namespace {

OnlineConformal Make(double alpha = 0.1, size_t window = 0) {
  OnlineConformal::Options opts;
  opts.alpha = alpha;
  opts.window = window;
  return OnlineConformal(MakeScoring(ScoreKind::kResidual), opts);
}

TEST(OnlineConformalTest, InfiniteUntilEnoughScores) {
  OnlineConformal oc = Make(0.1);
  EXPECT_TRUE(std::isinf(oc.delta()));
  for (int i = 0; i < 8; ++i) oc.Observe(10.0, 10.0 + i);
  // n=8 < ceil(9/0.9): still infinite at alpha=0.1.
  EXPECT_TRUE(std::isinf(oc.delta()));
  oc.Observe(10.0, 19.0);
  EXPECT_FALSE(std::isinf(oc.delta()));
}

TEST(OnlineConformalTest, DeltaMatchesBatchQuantile) {
  OnlineConformal oc = Make(0.2);
  Rng rng(1);
  std::vector<double> scores;
  for (int i = 0; i < 500; ++i) {
    double est = 100.0, truth = 100.0 + 30.0 * rng.NextGaussian();
    oc.Observe(est, truth);
    scores.push_back(std::fabs(truth - est));
  }
  EXPECT_DOUBLE_EQ(oc.delta(), ConformalQuantile(scores, 0.2));
}

TEST(OnlineConformalTest, WarmupEquivalentToObserveLoop) {
  OnlineConformal a = Make(0.1), b = Make(0.1);
  std::vector<double> est, truth;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    est.push_back(50.0);
    truth.push_back(50.0 + 10.0 * rng.NextGaussian());
  }
  ASSERT_TRUE(a.Warmup(est, truth).ok());
  for (size_t i = 0; i < est.size(); ++i) b.Observe(est[i], truth[i]);
  EXPECT_DOUBLE_EQ(a.delta(), b.delta());
  EXPECT_EQ(a.size(), 100u);
}

TEST(OnlineConformalTest, WarmupRejectsSizeMismatch) {
  OnlineConformal oc = Make();
  EXPECT_FALSE(oc.Warmup({1.0}, {1.0, 2.0}).ok());
}

TEST(OnlineConformalTest, WindowEvictsOldScores) {
  OnlineConformal oc = Make(0.2, /*window=*/50);
  // First 50 observations: huge residuals. Next 50: tiny residuals.
  for (int i = 0; i < 50; ++i) oc.Observe(0.0, 1000.0);
  double big_delta = oc.delta();
  for (int i = 0; i < 50; ++i) oc.Observe(0.0, 1.0);
  EXPECT_EQ(oc.size(), 50u);
  EXPECT_LT(oc.delta(), big_delta / 100.0);
}

TEST(OnlineConformalTest, IntervalsTightenAsCalibrationGrows) {
  // The Figure 8 effect: with a small initial calibration set the
  // conformal quantile is noisy/conservative; it settles as data
  // accumulates.
  OnlineConformal oc = Make(0.1);
  Rng rng(3);
  auto observe_n = [&](int n) {
    for (int i = 0; i < n; ++i) {
      oc.Observe(100.0, 100.0 + 20.0 * rng.NextGaussian());
    }
  };
  observe_n(10);
  double early = oc.Predict(100.0).width();
  observe_n(2000);
  double late = oc.Predict(100.0).width();
  EXPECT_LT(late, early);
  // Settles near 2 * 1.645 * sigma.
  EXPECT_NEAR(late, 2.0 * 1.645 * 20.0, 12.0);
}

TEST(OnlineConformalTest, RollingMonitorsTrackPrequentialStream) {
  OnlineConformal::Options opts;
  opts.alpha = 0.2;
  OnlineConformal oc(MakeScoring(ScoreKind::kResidual), opts);
  EXPECT_EQ(oc.observed(), 0u);
  EXPECT_EQ(oc.rolling_coverage(), 0.0);
  EXPECT_EQ(oc.rolling_width(), 0.0);

  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    oc.Observe(0.0, 30.0 * rng.NextGaussian());
  }
  EXPECT_EQ(oc.observed(), 500u);
  EXPECT_EQ(oc.rolling_observations(), OnlineConformal::kMonitorWindow);
  // Prequential coverage over the last kMonitorWindow (256) observations
  // hovers near 1 - alpha; 256 samples of a Bernoulli(0.8) stay well
  // within 0.2.
  EXPECT_NEAR(oc.rolling_coverage(), 0.8, 0.2);
  EXPECT_GT(oc.rolling_width(), 0.0);
}

TEST(OnlineConformalTest, PublishesOccupancyAndEvictionMetrics) {
  obs::Metrics().ResetForTest();
  OnlineConformal oc = Make(0.2, /*window=*/50);
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    oc.Observe(0.0, 10.0 * rng.NextGaussian());
  }
  EXPECT_EQ(obs::Metrics().GetCounter("conformal.online.observations")
                .value(),
            120u);
  EXPECT_EQ(obs::Metrics().GetCounter("conformal.online.evictions").value(),
            70u);
  EXPECT_DOUBLE_EQ(
      obs::Metrics().GetGauge("conformal.online.window_occupancy").value(),
      50.0);
  const double cov =
      obs::Metrics().GetGauge("conformal.online.rolling_coverage").value();
  EXPECT_EQ(cov, oc.rolling_coverage());
}

TEST(OnlineConformalTest, CoverageOnStream) {
  // Prequential evaluation: predict, then observe. Coverage over the
  // stream should be ~ 1 - alpha once warmed up.
  OnlineConformal oc = Make(0.1);
  Rng rng(4);
  // Warm up with 100 points.
  for (int i = 0; i < 100; ++i) {
    oc.Observe(0.0, 40.0 * rng.NextGaussian());
  }
  double covered = 0.0, total = 0.0;
  for (int i = 0; i < 3000; ++i) {
    double truth = 40.0 * rng.NextGaussian();
    Interval iv = oc.Predict(0.0);
    covered += iv.Contains(truth) ? 1.0 : 0.0;
    total += 1.0;
    oc.Observe(0.0, truth);
  }
  EXPECT_NEAR(covered / total, 0.9, 0.025);
}

}  // namespace
}  // namespace confcard
