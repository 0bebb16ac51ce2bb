// Regression coverage for the batched inference engine: (1) golden
// fixed-seed values for Naru progressive sampling, MSCN and LW-NN,
// recorded from the per-query reference paths these estimators used to
// carry and asserted bit-exact at several batch sizes and through the
// harness at 1 and 4 threads — any change to a forward shows up here
// first; (2) batches that mix trivial (no-predicate, empty-range)
// queries with Naru engine queries against batches of one; (3) the
// column-restricted forward of a masked Dense layer against Apply.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "ce/estimator.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "data/datasets.h"
#include "data/generators.h"
#include "harness/single_table.h"
#include "nn/layers.h"
#include "query/workload.h"

namespace confcard {
namespace {

struct Fixture {
  Table table;
  Workload workload;
};

// Must stay in sync with build-time golden generation: the literals
// below were recorded from this exact fixture and these model configs.
Fixture MakeFixture() {
  TableSpec spec;
  spec.name = "g";
  spec.num_rows = 2000;
  spec.seed = 31;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 5;
  a.zipf_skew = 0.7;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 40.0;
  ColumnSpec c;
  c.name = "c";
  c.domain_size = 4;
  spec.columns = {a, b, c};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = 12;
  wc.seed = 21;
  Workload wl = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(wl)};
}

NaruConfig SmallNaruConfig() {
  NaruConfig nc;
  nc.hidden = 16;
  nc.hidden_layers = 1;
  nc.epochs = 2;
  nc.num_samples = 8;
  return nc;
}

MscnEstimator::Options SmallMscnOptions() {
  MscnEstimator::Options mo;
  mo.model.epochs = 4;
  mo.model.set_hidden = 16;
  mo.model.final_hidden = 16;
  return mo;
}

LwnnEstimator::Options SmallLwnnOptions() {
  LwnnEstimator::Options lo;
  lo.epochs = 60;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  lo.lr = 1e-2;
  return lo;
}

// Fixed-seed progressive-sampling selectivities of the fixture's 12
// workload queries, recorded from the dense reference sampler
// (hexfloat: exact bits). The engine must reproduce them bit for bit —
// "bit-identical" is its contract, not an approximation target.
constexpr double kGoldenSelectivity[] = {
    0x1.da79b79efce9fp-10,
    0x1.90640fa3c92dep-5,
    0x1.2f8ef4d8fd55p-5,
    0x1.f1abff074a41ep-3,
    0x1.b001c2d1622b8p-5,
    0x1.459b471c6aa9cp-5,
    0x1.d08e571ea78dcp-7,
    0x1.6a5e5a04e642fp-8,
    0x1.345a617862f7p-8,
    0x1.8b4c08p-3,
    0x1.1bbc3ce467317p-4,
    0x1.8724f4839279ep-3,
};

// The same queries against a Naru with no hidden layer: one masked
// layer maps the one-hot input straight to the logits, so every column
// step of the sampler is a single column-restricted product. Recorded
// from the sampler that gathered first-layer weight rows per one-hot
// index (hexfloat: exact bits).
constexpr double kGoldenSelectivityNoHidden[] = {
    0x1.7aab6190fd944p-10,
    0x1.0fe20448c146bp-4,
    0x1.1fcf0832c9d6p-5,
    0x1.154b7767410a9p-2,
    0x1.0c5892ebbe22ep-4,
    0x1.4975b05967bcp-5,
    0x1.106451475e552p-6,
    0x1.208b91f30c2f9p-8,
    0x1.24c2912aea7a6p-8,
    0x1.8bd3dp-3,
    0x1.1bfe682520734p-4,
    0x1.73595ad329a93p-3,
};

// Cardinality estimates of GoldenQueries() (the empty query, then the
// 12 workload queries), recorded from the per-query unpacked forwards
// of MSCN and LW-NN trained with the Small*Options above.
constexpr double kGoldenMscn[] = {
    0x1.0f002f7d56531p+1, 0x1.411446872ee58p+0, 0x1.0ec980ce6acdfp+1,
    0x1.a2a02cd8437dep+0, 0x1.a517679ea4fa4p+1, 0x1.e9c0558438bp-1,
    0x1.31461b60db8d6p+0, 0x1.d3c3f57ac6522p+0, 0x1.c0a0df1ddeef2p+0,
    0x1.01bdbba58433ap+0, 0x1.80f4fea44006ap-1, 0x1.c8925085d6296p-1,
    0x1.e7d26c3979834p-2,
};
constexpr double kGoldenLwnn[] = {
    0x1.7e1ab4b2b6d83p+10, 0x1.42143a0e67e78p+2, 0x1.ef5f0a82b6a1bp+6,
    0x1.9068e38d62abcp+6,  0x1.4fe53b9854a36p+9, 0x1.bc2b8548c65d1p+6,
    0x1.7903722ee0525p+5,  0x1.c439f73169adap+4, 0x1.e22f30c14d4a2p+3,
    0x1.8ef6ab6f62a1bp+2,  0x1.76db29b67fe84p+8, 0x1.2652795faf92ap+7,
    0x1.80f3809c8fe55p+8,
};

std::vector<Query> GoldenQueries(const Fixture& f) {
  std::vector<Query> queries;
  queries.push_back(Query{});  // empty-set / all-defaults featurization
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  return queries;
}

// EstimateBatch over `queries` cut into consecutive batches of `size`.
std::vector<double> EstimateInBatchesOf(const CardinalityEstimator& model,
                                        const std::vector<Query>& queries,
                                        size_t size) {
  std::vector<double> out(queries.size());
  for (size_t b = 0; b < queries.size(); b += size) {
    model.EstimateBatch(queries.data() + b,
                        std::min(size, queries.size() - b), out.data() + b);
  }
  return out;
}

TEST(InferenceBatchTest, GoldenProgressiveSampleBitExact) {
  Fixture f = MakeFixture();
  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());
  ASSERT_EQ(f.workload.size(), std::size(kGoldenSelectivity));

  for (size_t i = 0; i < f.workload.size(); ++i) {
    ASSERT_EQ(naru.EstimateSelectivity(f.workload[i].query),
              kGoldenSelectivity[i])
        << "query " << i;
  }
}

TEST(InferenceBatchTest, GoldenProgressiveSampleWithoutHiddenLayersBitExact) {
  Fixture f = MakeFixture();
  NaruConfig nc = SmallNaruConfig();
  nc.hidden_layers = 0;
  NaruEstimator naru(nc);
  ASSERT_TRUE(naru.Train(f.table).ok());
  ASSERT_EQ(f.workload.size(), std::size(kGoldenSelectivityNoHidden));

  std::vector<Query> queries;
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  std::vector<double> batched(queries.size());
  naru.EstimateBatch(queries.data(), queries.size(), batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(naru.EstimateSelectivity(queries[i]),
              kGoldenSelectivityNoHidden[i])
        << "query " << i;
    ASSERT_EQ(batched[i], kGoldenSelectivityNoHidden[i] * 2000.0)
        << "query " << i;
  }
}

// Batches mixing trivial queries (no predicates; empty bin range) with
// engine queries must agree with batches of one on every slot.
TEST(InferenceBatchTest, NaruBatchWithTrivialQueriesMatchesLoop) {
  Fixture f = MakeFixture();
  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());

  std::vector<Query> queries;
  queries.push_back(Query{});  // no predicates -> N
  for (const LabeledQuery& lq : f.workload) queries.push_back(lq.query);
  // Empty bin range on the numeric column (interval below the domain).
  queries.insert(queries.begin() + 3,
                 Query{{Predicate::Between(1, -10.0, -5.0)}});

  std::vector<double> loop;
  for (const Query& q : queries) loop.push_back(naru.EstimateCardinality(q));

  std::vector<double> batched(queries.size());
  naru.EstimateBatch(queries.data(), queries.size(), batched.data());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batched[i], loop[i]) << "query " << i;
  }

  // n == 0 is a no-op.
  naru.EstimateBatch(nullptr, 0, nullptr);
}

// MSCN and LW-NN reproduce their golden estimates at batch sizes 1, 5
// and n.
TEST(InferenceBatchTest, MscnAndLwnnBatchMatchesLoop) {
  Fixture f = MakeFixture();
  MscnEstimator mscn(SmallMscnOptions());
  ASSERT_TRUE(mscn.Train(f.table, f.workload).ok());
  LwnnEstimator lwnn(SmallLwnnOptions());
  ASSERT_TRUE(lwnn.Train(f.table, f.workload).ok());

  const std::vector<Query> queries = GoldenQueries(f);
  ASSERT_EQ(queries.size(), std::size(kGoldenMscn));
  ASSERT_EQ(queries.size(), std::size(kGoldenLwnn));
  for (size_t size : {size_t{1}, size_t{5}, queries.size()}) {
    SCOPED_TRACE("batch size " + std::to_string(size));
    const std::vector<double> m = EstimateInBatchesOf(mscn, queries, size);
    const std::vector<double> l = EstimateInBatchesOf(lwnn, queries, size);
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(m[i], kGoldenMscn[i]) << "mscn query " << i;
      ASSERT_EQ(l[i], kGoldenLwnn[i]) << "lw-nn query " << i;
    }
  }
}

// The harness's pooled inference sweep reproduces the goldens too, at
// 1 and 4 threads (each run gets a fresh harness, so nothing is served
// from its estimate cache).
TEST(InferenceBatchTest, HarnessEstimatesReproduceGoldenAtOneAndFourThreads) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();
  MscnEstimator mscn(SmallMscnOptions());
  ASSERT_TRUE(mscn.Train(f.table, f.workload).ok());
  LwnnEstimator lwnn(SmallLwnnOptions());
  ASSERT_TRUE(lwnn.Train(f.table, f.workload).ok());
  NaruEstimator naru(SmallNaruConfig());
  ASSERT_TRUE(naru.Train(f.table).ok());

  Workload test;
  for (const Query& q : GoldenQueries(f)) test.push_back({q, 0.0, 2000.0});
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreads(threads);
    SingleTableHarness h(f.table, f.workload, f.workload, test, {});
    const std::vector<double>& m = h.Estimates(mscn, h.test());
    const std::vector<double>& l = h.Estimates(lwnn, h.test());
    const std::vector<double>& n = h.Estimates(naru, h.test());
    ASSERT_EQ(n[0], 2000.0);  // no predicates: N
    for (size_t i = 0; i < test.size(); ++i) {
      ASSERT_EQ(m[i], kGoldenMscn[i]) << "mscn query " << i;
      ASSERT_EQ(l[i], kGoldenLwnn[i]) << "lw-nn query " << i;
      if (i > 0) {
        ASSERT_EQ(n[i], kGoldenSelectivity[i - 1] * 2000.0)
            << "naru query " << i;
      }
    }
  }
  SetThreads(saved_threads);
}

// Kernel-level contract: the column-restricted forward reproduces
// Apply's bits exactly on block one-hot rows (the sampler's input), at
// single rows, part blocks and many blocks, for column ranges that start
// and end inside a vector.
TEST(InferenceBatchTest, MaskedDenseApplyColsMatchesApplyOnOneHotRows) {
  const size_t in_dim = 37, out_dim = 23;
  Rng rng(123);
  nn::Tensor mask(in_dim, out_dim);
  for (size_t i = 0; i < mask.size(); ++i) {
    mask.data()[i] = rng.NextDouble() < 0.7 ? 1.0f : 0.0f;
  }
  // A weight masked as Naru's MADE layers are (BuildMade).
  nn::Dense layer(in_dim, out_dim, rng);
  nn::Tensor& weight = layer.weight().value;
  for (size_t i = 0; i < weight.size(); ++i) {
    weight.data()[i] *= mask.data()[i];
  }

  for (size_t rows : {1, 2, 3, 4, 5, 9, 64}) {
    SCOPED_TRACE(::testing::Message() << "rows " << rows);
    // Random block one-hot rows (including an all-zero row).
    nn::Tensor dense(rows, in_dim);
    for (size_t r = 0; r < rows; ++r) {
      const size_t nnz = r == 4 ? 0 : 1 + rng.NextUint64(4);
      uint32_t pos = 0;
      for (size_t t = 0; t < nnz; ++t) {
        // Strictly ascending positions across the row.
        pos += static_cast<uint32_t>(rng.NextUint64(in_dim / 5)) + 1;
        if (pos >= in_dim) break;
        dense.At(r, pos) = 1.0f;
      }
    }

    const nn::Tensor want = layer.Apply(dense);
    for (const auto& [c0, c1] : {std::pair<size_t, size_t>{5, 17},
                                 {1, out_dim - 1},
                                 {9, out_dim},
                                 {0, out_dim}}) {
      const nn::Tensor got_cols = layer.ApplyCols(dense, c0, c1);
      ASSERT_EQ(got_cols.rows(), rows);
      ASSERT_EQ(got_cols.cols(), c1 - c0);
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = c0; c < c1; ++c) {
          ASSERT_EQ(got_cols.At(r, c - c0), want.At(r, c));
        }
      }
    }
  }
}

// FNV-1a over the bits of every estimate, in order.
uint64_t EstimateBitsHash(const std::vector<double>& estimates) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (double e : estimates) {
    uint64_t bits;
    std::memcpy(&bits, &e, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// Training golden at the shapes of perfbench's pi_offline workload: a
// 5,000-row DMV-like table, 100 training and 300 test queries of
// selectivity at most 0.2, MSCN at hidden width 96 for 60 epochs, Naru
// at hidden width 64 for 6 epochs with 32 sample paths, LW-NN at 32/16.
// The hashes were recorded before the register-tiled GEMM kernels, the
// vector Adam step and the parameter-only first-layer backward: every
// weight these models train must keep its bits through any kernel
// change, so every estimate does too.
TEST(InferenceBatchTest, TrainedEstimatesAtPiOfflineShapesReproduceGolden) {
  auto table = MakeDmv(5000, 7);
  ASSERT_TRUE(table.ok());
  auto label = [&](size_t n, uint64_t seed) {
    WorkloadConfig wc;
    wc.max_selectivity = 0.2;
    wc.num_queries = n;
    wc.seed = seed;
    return GenerateWorkload(table.value(), wc).value();
  };
  const Workload train = label(100, 1);
  const Workload test = label(300, 3);
  std::vector<Query> queries;
  for (const LabeledQuery& lq : test) queries.push_back(lq.query);
  auto estimate = [&](const CardinalityEstimator& model) {
    std::vector<double> out(queries.size());
    model.EstimateBatch(queries.data(), queries.size(), out.data());
    return out;
  };

  MscnEstimator::Options mo;
  mo.model.epochs = 60;
  mo.model.set_hidden = 96;
  mo.model.final_hidden = 96;
  MscnEstimator mscn(mo);
  ASSERT_TRUE(mscn.Train(table.value(), train).ok());
  EXPECT_EQ(EstimateBitsHash(estimate(mscn)), 0x7b2e3813cddc307cull);

  NaruConfig nc;
  nc.hidden = 64;
  nc.epochs = 6;
  nc.num_samples = 32;
  nc.max_train_rows = 5000;
  NaruEstimator naru(nc);
  ASSERT_TRUE(naru.Train(table.value()).ok());
  EXPECT_EQ(EstimateBitsHash(estimate(naru)), 0xa23be86d0015be63ull);

  LwnnEstimator::Options lo;
  lo.histogram_buckets = 12;
  lo.hidden1 = 32;
  lo.hidden2 = 16;
  lo.epochs = 30;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(table.value(), train).ok());
  EXPECT_EQ(EstimateBitsHash(estimate(lwnn)), 0x27db467e67aa4ed3ull);
}

}  // namespace
}  // namespace confcard
