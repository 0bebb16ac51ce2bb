#include "query/predicate.h"

#include <limits>

#include <gtest/gtest.h>

namespace confcard {
namespace {

TEST(PredicateTest, EqMatches) {
  Predicate p = Predicate::Eq(2, 5.0);
  EXPECT_EQ(p.op, PredOp::kEq);
  EXPECT_TRUE(p.Matches(5.0));
  EXPECT_FALSE(p.Matches(4.999));
  EXPECT_FALSE(p.Matches(5.001));
}

TEST(PredicateTest, BetweenMatchesInclusive) {
  Predicate p = Predicate::Between(0, 1.0, 3.0);
  EXPECT_TRUE(p.Matches(1.0));
  EXPECT_TRUE(p.Matches(2.0));
  EXPECT_TRUE(p.Matches(3.0));
  EXPECT_FALSE(p.Matches(0.999));
  EXPECT_FALSE(p.Matches(3.001));
}

TEST(PredicateTest, Equality) {
  EXPECT_EQ(Predicate::Eq(1, 2.0), Predicate::Eq(1, 2.0));
  EXPECT_FALSE(Predicate::Eq(1, 2.0) == Predicate::Eq(1, 3.0));
  EXPECT_FALSE(Predicate::Eq(1, 2.0) == Predicate::Between(1, 2.0, 2.0));
}

// Literals render as the default `operator<<` does (printf's "%g" with 6
// significant digits): the workload generator's dedup key depends on it.
TEST(PredicateTest, ToStringForms) {
  EXPECT_EQ(ToString(Predicate::Eq(3, 5.0)), "c3=5");
  EXPECT_EQ(ToString(Predicate::Between(7, 1.0, 9.0)), "1<=c7<=9");
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(ToString(Predicate::Eq(0, 123456.5)), "c0=123456");
  EXPECT_EQ(ToString(Predicate::Eq(0, 1234567.0)), "c0=1.23457e+06");
  EXPECT_EQ(ToString(Predicate::Eq(12, 1e-7)), "c12=1e-07");
  EXPECT_EQ(ToString(Predicate::Eq(1, -0.0)), "c1=-0");
  EXPECT_EQ(ToString(Predicate::Between(2, -inf, inf)), "-inf<=c2<=inf");
  EXPECT_EQ(ToString(Predicate::Between(4, 0.1, 2.5e-5)), "0.1<=c4<=2.5e-05");
  EXPECT_EQ(ToString(Predicate::Eq(-3, -12.25)), "c-3=-12.25");
}

TEST(QueryTest, ToStringJoinsWithAnd) {
  Query q;
  q.predicates = {Predicate::Eq(0, 1.0), Predicate::Between(2, 0.0, 4.0)};
  EXPECT_EQ(ToString(q), "c0=1 AND 0<=c2<=4");
}

TEST(QueryTest, EmptyQueryToString) {
  Query q;
  EXPECT_EQ(ToString(q), "");
}

TEST(LabeledQueryTest, Selectivity) {
  LabeledQuery lq;
  lq.cardinality = 25.0;
  lq.num_rows = 100.0;
  EXPECT_DOUBLE_EQ(lq.selectivity(), 0.25);
}

}  // namespace
}  // namespace confcard
