#include "exec/scan.h"

#include <limits>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace confcard {
namespace {

Table TinyTable() {
  std::vector<Column> cols;
  cols.push_back(Column::Categorical("a", 3, {0, 1, 2, 1, 0, 2}));
  cols.push_back(Column::Numeric("b", {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}));
  return Table::Make("t", std::move(cols)).value();
}

TEST(ScanTest, NoPredicatesCountsAll) {
  Table t = TinyTable();
  EXPECT_EQ(CountMatches(t, Query{}), 6u);
  EXPECT_EQ(FilterIndices(t, Query{}).size(), 6u);
}

TEST(ScanTest, SingleEquality) {
  Table t = TinyTable();
  Query q;
  q.predicates = {Predicate::Eq(0, 1.0)};
  EXPECT_EQ(CountMatches(t, q), 2u);
  auto idx = FilterIndices(t, q);
  ASSERT_EQ(idx.size(), 2u);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 3u);
}

TEST(ScanTest, RangePredicate) {
  Table t = TinyTable();
  Query q;
  q.predicates = {Predicate::Between(1, 2.0, 4.0)};
  EXPECT_EQ(CountMatches(t, q), 3u);
}

TEST(ScanTest, Conjunction) {
  Table t = TinyTable();
  Query q;
  q.predicates = {Predicate::Between(1, 2.0, 6.0), Predicate::Eq(0, 2.0)};
  EXPECT_EQ(CountMatches(t, q), 2u);  // rows 2 and 5
}

TEST(ScanTest, EmptyResult) {
  Table t = TinyTable();
  Query q;
  q.predicates = {Predicate::Eq(1, 100.0)};
  EXPECT_EQ(CountMatches(t, q), 0u);
  EXPECT_TRUE(FilterIndices(t, q).empty());
}

// Property test: the 64-row word scan must agree with a naive
// row-at-a-time evaluator, for CountMatches and for FilterIndices (in
// ascending order). Row counts sit around multiples of 64, so the partial
// last word and its shifts are covered. Column b holds NaN, -0.0 and +0.0
// cells; its bounds include +-inf, +-0.0 and NaN, and about half of its
// ranges have lo > hi. Queries may hold no predicate or two on one column.
class ScanPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Table PropertyTable(size_t rows, Rng& rng) {
  std::vector<double> a(rows), b(rows), c(rows);
  for (size_t r = 0; r < rows; ++r) {
    a[r] = static_cast<double>(rng.NextUint64(8));
    switch (rng.NextUint64(8)) {
      case 0:
        b[r] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        b[r] = -0.0;
        break;
      case 2:
        b[r] = 0.0;
        break;
      case 3:
        b[r] = static_cast<double>(rng.NextInt64(-10, 10));
        break;
      default:
        b[r] = rng.NextDouble(-10, 10);
    }
    c[r] = static_cast<double>(rng.NextUint64(3));
  }
  std::vector<Column> cols;
  cols.push_back(Column::Categorical("a", 8, std::move(a)));
  cols.push_back(Column::Numeric("b", std::move(b)));
  cols.push_back(Column::Categorical("c", 3, std::move(c)));
  return Table::Make("p", std::move(cols)).value();
}

double PropertyBound(Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  switch (rng.NextUint64(8)) {
    case 0:
      return -inf;
    case 1:
      return inf;
    case 2:
      return -0.0;
    case 3:
      return 0.0;
    case 4:
      return std::numeric_limits<double>::quiet_NaN();
    case 5:
      return static_cast<double>(rng.NextInt64(-10, 10));
    default:
      return rng.NextDouble(-12, 12);
  }
}

Predicate PropertyPredicate(int col, Rng& rng) {
  if (col == 1) {
    if (rng.NextBool(0.2)) return Predicate::Eq(col, PropertyBound(rng));
    const double lo = PropertyBound(rng);
    return Predicate::Between(col, lo, PropertyBound(rng));
  }
  return Predicate::Eq(
      col, static_cast<double>(rng.NextUint64(col == 0 ? 8 : 3)));
}

std::vector<uint32_t> NaiveFilter(const Table& t, const Query& q) {
  std::vector<uint32_t> rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    bool match = true;
    for (const Predicate& p : q.predicates) {
      if (!p.Matches(t.At(r, static_cast<size_t>(p.column)))) {
        match = false;
        break;
      }
    }
    if (match) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

TEST_P(ScanPropertyTest, MatchesNaiveEvaluator) {
  const uint64_t seed = GetParam();
  for (size_t rows : {1, 63, 64, 65, 127, 128, 700, 4097}) {
    Rng rng(seed ^ 0xABCD ^ (rows << 8));
    const Table t = PropertyTable(rows, rng);
    for (int trial = 0; trial < 40; ++trial) {
      Query q;
      if (trial == 0) {
        q.predicates = {Predicate::Between(1, -5.0, 5.0),
                        Predicate::Between(1, -0.0, 10.0)};
      } else {
        const int k = static_cast<int>(rng.NextInt64(0, 4));
        for (int i = 0; i < k; ++i) {
          const int col = static_cast<int>(rng.NextUint64(3));
          q.predicates.push_back(PropertyPredicate(col, rng));
        }
      }
      const std::vector<uint32_t> naive = NaiveFilter(t, q);
      EXPECT_EQ(CountMatches(t, q), naive.size())
          << rows << " rows: " << ToString(q);
      EXPECT_EQ(FilterIndices(t, q), naive)
          << rows << " rows: " << ToString(q);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScanPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace confcard
