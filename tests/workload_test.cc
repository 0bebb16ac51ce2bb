#include "query/workload.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/datasets.h"
#include "data/generators.h"
#include "exec/scan.h"

namespace confcard {
namespace {

Table SmallTable() {
  TableSpec spec;
  spec.name = "t";
  spec.num_rows = 3000;
  spec.seed = 21;
  ColumnSpec a;
  a.name = "a";
  a.kind = ColumnKind::kCategorical;
  a.domain_size = 6;
  a.zipf_skew = 1.0;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 100.0;
  ColumnSpec c;
  c.name = "c";
  c.kind = ColumnKind::kCategorical;
  c.domain_size = 20;
  c.zipf_skew = 0.5;
  spec.columns = {a, b, c};
  return GenerateTable(spec).value();
}

TEST(WorkloadTest, ProducesRequestedCount) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 200;
  auto wl = GenerateWorkload(t, cfg);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->size(), 200u);
}

TEST(WorkloadTest, LabelsAreExact) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.seed = 3;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    EXPECT_DOUBLE_EQ(lq.cardinality,
                     static_cast<double>(CountMatches(t, lq.query)));
    EXPECT_DOUBLE_EQ(lq.num_rows, 3000.0);
  }
}

TEST(WorkloadTest, PredicateCountWithinBounds) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 150;
  cfg.min_predicates = 2;
  cfg.max_predicates = 3;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    EXPECT_GE(lq.query.predicates.size(), 2u);
    EXPECT_LE(lq.query.predicates.size(), 3u);
  }
}

TEST(WorkloadTest, DedupProducesDistinctQueries) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 300;
  cfg.dedup = true;
  auto wl = GenerateWorkload(t, cfg).value();
  std::set<std::string> keys;
  for (const LabeledQuery& lq : wl) keys.insert(ToString(lq.query));
  EXPECT_EQ(keys.size(), wl.size());
}

TEST(WorkloadTest, SelectivityWindowHonored) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.min_selectivity = 0.01;
  cfg.max_selectivity = 0.2;
  auto wl = GenerateWorkload(t, cfg).value();
  EXPECT_FALSE(wl.empty());
  for (const LabeledQuery& lq : wl) {
    EXPECT_GE(lq.selectivity(), 0.01);
    EXPECT_LE(lq.selectivity(), 0.2);
  }
}

TEST(WorkloadTest, AllowedColumnsRestricted) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.allowed_columns = {0, 2};
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      EXPECT_TRUE(p.column == 0 || p.column == 2);
    }
  }
}

TEST(WorkloadTest, CategoricalAlwaysEquality) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 200;
  cfg.range_prob = 1.0;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      if (t.column(static_cast<size_t>(p.column)).is_categorical()) {
        EXPECT_EQ(p.op, PredOp::kEq);
      }
    }
  }
}

TEST(WorkloadTest, RangeProbZeroMeansAllPoints) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 100;
  cfg.range_prob = 0.0;
  auto wl = GenerateWorkload(t, cfg).value();
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      EXPECT_EQ(p.op, PredOp::kEq);
    }
  }
}

TEST(WorkloadTest, DataCenteredQueriesMostlyNonEmpty) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 300;
  cfg.center_mode = CenterMode::kDataCentered;
  auto wl = GenerateWorkload(t, cfg).value();
  size_t nonempty = 0;
  for (const LabeledQuery& lq : wl) nonempty += lq.cardinality > 0 ? 1 : 0;
  EXPECT_GT(nonempty, wl.size() * 9 / 10);
}

TEST(WorkloadTest, UniformModeShiftsSelectivityDown) {
  Table t = SmallTable();
  WorkloadConfig data_cfg, uni_cfg;
  data_cfg.num_queries = uni_cfg.num_queries = 300;
  data_cfg.min_predicates = uni_cfg.min_predicates = 2;
  data_cfg.max_predicates = uni_cfg.max_predicates = 3;
  uni_cfg.center_mode = CenterMode::kUniform;
  auto dw = GenerateWorkload(t, data_cfg).value();
  auto uw = GenerateWorkload(t, uni_cfg).value();
  double ds = 0, us = 0;
  for (const auto& q : dw) ds += q.selectivity();
  for (const auto& q : uw) us += q.selectivity();
  EXPECT_LT(us / static_cast<double>(uw.size()),
            ds / static_cast<double>(dw.size()));
}

TEST(WorkloadTest, DeterministicBySeed) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.num_queries = 50;
  cfg.seed = 77;
  auto a = GenerateWorkload(t, cfg).value();
  auto b = GenerateWorkload(t, cfg).value();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].query, b[i].query);
  }
}

// FNV-1a over each query's (column, op, lo bits, hi bits) and its
// cardinality, in workload order.
uint64_t WorkloadHash(const Workload& wl) {
  uint64_t h = 14695981039346656037ULL;
  auto mix = [&h](const void* data, size_t n) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const LabeledQuery& lq : wl) {
    for (const Predicate& p : lq.query.predicates) {
      const int32_t column = p.column;
      const uint8_t op = static_cast<uint8_t>(p.op);
      mix(&column, sizeof(column));
      mix(&op, sizeof(op));
      mix(&p.lo, sizeof(p.lo));
      mix(&p.hi, sizeof(p.hi));
    }
    mix(&lq.cardinality, sizeof(lq.cardinality));
  }
  return h;
}

Workload Split(const Table& table, size_t n, uint64_t seed) {
  WorkloadConfig cfg;
  cfg.num_queries = n;
  cfg.max_selectivity = 0.2;
  cfg.seed = seed;
  return GenerateWorkload(table, cfg).value();
}

// The labeled splits of perfbench's two workloads, recorded before the
// 64-row word scan and the stream-free dedup key: every query, literal
// and label keeps its bits.
TEST(WorkloadTest, PiOfflineSplitsMatchGolden) {
  const Table table = MakeDmv(5000, 7).value();
  const Workload train = Split(table, 100, 1);
  const Workload calib = Split(table, 100, 2);
  const Workload test = Split(table, 300, 3);
  ASSERT_EQ(train.size(), 100u);
  ASSERT_EQ(calib.size(), 100u);
  ASSERT_EQ(test.size(), 300u);
  EXPECT_EQ(WorkloadHash(train), 0xbe39146ddc568ca6ULL);
  EXPECT_EQ(WorkloadHash(calib), 0xba9e19e9833a7fe6ULL);
  EXPECT_EQ(WorkloadHash(test), 0x0443ec197a6c424aULL);
}

TEST(WorkloadTest, ServeOpenTestSplitMatchesGolden) {
  const Table table = MakeDmv(40000, 7).value();
  const Workload test = Split(table, 800, 3);
  ASSERT_EQ(test.size(), 800u);
  EXPECT_EQ(WorkloadHash(test), 0xdccb84444deae2a5ULL);
}

TEST(WorkloadValidationTest, RejectsBadConfigs) {
  Table t = SmallTable();
  WorkloadConfig cfg;
  cfg.min_predicates = 0;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.range_prob = 1.5;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.max_range_frac = 0.0;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.min_selectivity = 0.5;
  cfg.max_selectivity = 0.1;
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());

  cfg = {};
  cfg.allowed_columns = {99};
  EXPECT_FALSE(GenerateWorkload(t, cfg).ok());
}

}  // namespace
}  // namespace confcard
