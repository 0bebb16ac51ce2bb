#include "harness/report.h"

#include <filesystem>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "harness/scale.h"

namespace confcard {
namespace {

MethodResult MakeResult() {
  MethodResult r{.model = "m",
                 .method = "s-cp",
                 .rows = {{100.0, 90.0, 50.0, 150.0},
                          {10.0, 12.0, 5.0, 20.0},
                          {500.0, 450.0, 300.0, 460.0}}};
  FinalizeMethodResult(&r, 1000.0);
  return r;
}

TEST(WinklerScoreTest, PenalizesMissesProperly) {
  // Covered row: score = width. Missed row: width + (2/alpha) * miss
  // distance. alpha = 0.1 -> penalty factor 20.
  MethodResult r;
  r.alpha = 0.1;
  r.rows = {{100.0, 100.0, 90.0, 110.0},   // covered, width 20
            {200.0, 150.0, 100.0, 180.0}}; // missed by 20, width 80
  FinalizeMethodResult(&r, 1000.0);
  const double expected =
      ((110.0 - 90.0) + (180.0 - 100.0 + 20.0 * (200.0 - 180.0))) / 2.0 /
      1000.0;
  EXPECT_NEAR(r.winkler_sel, expected, 1e-12);
}

TEST(WinklerScoreTest, PerfectCoverageEqualsMeanWidth) {
  MethodResult r;
  r.alpha = 0.2;
  r.rows = {{50.0, 50.0, 40.0, 60.0}, {70.0, 70.0, 50.0, 90.0}};
  FinalizeMethodResult(&r, 100.0);
  EXPECT_NEAR(r.winkler_sel, r.mean_width_sel, 1e-12);
}

TEST(ReportTest, MethodTablePrintsEveryRow) {
  ::testing::internal::CaptureStdout();
  PrintExperimentHeader("Test", "title");
  PrintMethodTable({MakeResult(), MakeResult()});
  std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("Test — title"), std::string::npos);
  EXPECT_NE(out.find("coverage"), std::string::npos);
  // Two data rows with the model name.
  size_t first = out.find("m          s-cp");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(out.find("m          s-cp", first + 1), std::string::npos);
}

TEST(ReportTest, SeriesSortedByTruthAndNormalized) {
  ::testing::internal::CaptureStdout();
  PrintSeries(MakeResult(), 1000.0, 10);
  std::string out = ::testing::internal::GetCapturedStdout();
  // Truths 10, 100, 500 normalized to 0.01, 0.1, 0.5 in that order.
  size_t p1 = out.find("0.010000");
  size_t p2 = out.find("0.100000");
  size_t p3 = out.find("0.500000");
  ASSERT_NE(p1, std::string::npos);
  ASSERT_NE(p2, std::string::npos);
  ASSERT_NE(p3, std::string::npos);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  // The uncovered row is flagged.
  EXPECT_NE(out.find("NO"), std::string::npos);
}

TEST(ReportTest, SeriesSubsamplesToMaxPoints) {
  MethodResult r{.model = "m", .method = "x", .rows = {}};
  for (int i = 0; i < 100; ++i) {
    double v = static_cast<double>(i);
    r.rows.push_back({v, v, v - 1, v + 1});
  }
  FinalizeMethodResult(&r, 100.0);
  ::testing::internal::CaptureStdout();
  PrintSeries(r, 100.0, 5);
  std::string out = ::testing::internal::GetCapturedStdout();
  // Header + column names + 5 data lines.
  size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u + 5u);
}

TEST(ReportTest, WriteSeriesCsvRoundtrips) {
  const auto path = std::filesystem::temp_directory_path() /
                    "confcard_report_test.csv";
  ::testing::internal::CaptureStdout();
  Status st = WriteSeriesCsv(path.string(), MakeResult());
  (void)::testing::internal::GetCapturedStdout();
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto rows = ReadCsv(path.string(), true);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ((*rows)[0].size(), 5u);
  std::filesystem::remove(path);
}

TEST(ReportTest, WriteSeriesCsvPropagatesOpenFailure) {
  // Directory component that cannot exist: the open fails and the error
  // must surface as a non-OK Status instead of a printf.
  Status st = WriteSeriesCsv("/nonexistent-dir/x/series.csv", MakeResult());
  EXPECT_FALSE(st.ok());
}

TEST(ScaleTest, ScaledAppliesFloorAndFactor) {
  // CONFCARD_SCALE is unset (or numeric) in the test environment; the
  // floor must hold regardless.
  EXPECT_GE(bench::Scaled(100, 64), 64u);
  EXPECT_GE(bench::BenchScale(), 0.01);
  EXPECT_LE(bench::BenchScale(), 1000.0);
}

}  // namespace
}  // namespace confcard
