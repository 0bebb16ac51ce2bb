// The determinism contract of the parallel harness: running the same
// tiny single-table experiment at CONFCARD_THREADS=1 and =4 must produce
// bit-identical intervals, identical coverage gauges, and byte-identical
// event-log payloads (after stripping the wall-clock latency field and
// the process-global run ordinal, the only legitimately timing-dependent
// values).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ce/guarded.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/parallel.h"
#include "data/generators.h"
#include "harness/single_table.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
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
  spec.num_rows = 3000;
  spec.seed = 77;
  ColumnSpec a;
  a.name = "a";
  a.domain_size = 6;
  a.zipf_skew = 0.8;
  ColumnSpec b;
  b.name = "b";
  b.kind = ColumnKind::kNumeric;
  b.num_min = 0.0;
  b.num_max = 50.0;
  spec.columns = {a, b};
  Table table = GenerateTable(spec).value();

  WorkloadConfig wc;
  wc.num_queries = 150;
  wc.seed = 11;
  Workload train = GenerateWorkload(table, wc).value();
  wc.seed = 12;
  Workload calib = GenerateWorkload(table, wc).value();
  wc.seed = 13;
  wc.num_queries = 100;
  Workload test = GenerateWorkload(table, wc).value();
  return {std::move(table), std::move(train), std::move(calib),
          std::move(test)};
}

struct RunOutput {
  std::vector<MethodResult> results;
  std::vector<double> coverage_gauges;
  std::string normalized_events;
};

// Drops the two timing-dependent fields from each event line: "lat_us"
// (wall clock) and "run" (a process-global ordinal that differs between
// the two runs inside this test, not between two processes).
std::string NormalizeEvents(const std::string& text) {
  std::istringstream in(text);
  std::string out, line;
  while (std::getline(in, line)) {
    const size_t run = line.find("\"run\":");
    if (run != std::string::npos) {
      const size_t comma = line.find(',', run);
      if (comma != std::string::npos) line.erase(run, comma - run + 1);
    }
    const size_t lat = line.find("\"lat_us\":");
    if (lat != std::string::npos) {
      size_t end = lat;
      while (end < line.size() && line[end] != ',' && line[end] != '}') {
        ++end;
      }
      line.erase(lat, end - lat);
    }
    out += line;
    out += '\n';
  }
  return out;
}

RunOutput RunExperiment(const Fixture& f, int threads,
                        const std::string& event_path) {
  SetThreads(threads);
  obs::EventLog& elog = obs::EventLog::Instance();
  EXPECT_TRUE(elog.OpenForTest(event_path).ok());

  SingleTableHarness::Options opts;
  opts.jk_folds = 3;
  SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);

  LwnnEstimator::Options lo;
  lo.epochs = 8;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  LwnnEstimator proto(lo);
  EXPECT_TRUE(proto.Train(f.table, f.train).ok());

  NaruConfig nc;
  nc.hidden = 16;
  nc.hidden_layers = 1;
  nc.epochs = 2;
  nc.num_samples = 8;
  NaruEstimator naru(nc);
  EXPECT_TRUE(naru.Train(f.table).ok());

  RunOutput out;
  out.results.push_back(h.RunJkCv(proto, proto, /*simplified=*/false));
  out.results.push_back(h.RunCqr(proto));
  out.results.push_back(h.RunScp(naru));
  elog.CloseForTest();

  for (const MethodResult& r : out.results) {
    const std::string name = "harness.coverage." + std::to_string(r.run_seq) +
                             "." + r.model + "." + r.method;
    out.coverage_gauges.push_back(obs::Metrics().GetGauge(name).value());
  }

  std::ifstream in(event_path, std::ios::binary);
  EXPECT_TRUE(in.is_open());
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  out.normalized_events = NormalizeEvents(text);
  return out;
}

TEST(DeterminismTest, OneThreadAndFourThreadsProduceIdenticalRuns) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();
  const std::string dir = ::testing::TempDir();
  RunOutput serial = RunExperiment(f, 1, dir + "determinism_t1.jsonl");
  RunOutput pooled = RunExperiment(f, 4, dir + "determinism_t4.jsonl");
  SetThreads(saved_threads);

  ASSERT_EQ(serial.results.size(), pooled.results.size());
  for (size_t m = 0; m < serial.results.size(); ++m) {
    const MethodResult& a = serial.results[m];
    const MethodResult& b = pooled.results[m];
    SCOPED_TRACE(a.model + "/" + a.method);
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.method, b.method);
    ASSERT_EQ(a.rows.size(), b.rows.size());
    for (size_t i = 0; i < a.rows.size(); ++i) {
      // Bit-identical, not approximately equal: the whole point of the
      // determinism contract.
      ASSERT_EQ(a.rows[i].truth, b.rows[i].truth) << "query " << i;
      ASSERT_EQ(a.rows[i].estimate, b.rows[i].estimate) << "query " << i;
      ASSERT_EQ(a.rows[i].lo, b.rows[i].lo) << "query " << i;
      ASSERT_EQ(a.rows[i].hi, b.rows[i].hi) << "query " << i;
    }
    EXPECT_EQ(a.coverage, b.coverage);
    EXPECT_EQ(a.mean_width_sel, b.mean_width_sel);
    EXPECT_EQ(serial.coverage_gauges[m], pooled.coverage_gauges[m]);
  }

  EXPECT_FALSE(serial.normalized_events.empty());
  EXPECT_EQ(serial.normalized_events, pooled.normalized_events);
}

// The batched-inference contract: one batch of n gives every query the
// bits of its batch of one, for all three estimators, at 1 and 4
// threads.
TEST(DeterminismTest, OneBatchOfNMatchesBatchesOfOne) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();

  LwnnEstimator::Options lo;
  lo.epochs = 8;
  lo.hidden1 = 16;
  lo.hidden2 = 8;
  LwnnEstimator lwnn(lo);
  ASSERT_TRUE(lwnn.Train(f.table, f.train).ok());

  MscnEstimator::Options mo;
  mo.model.epochs = 4;
  mo.model.set_hidden = 16;
  mo.model.final_hidden = 16;
  MscnEstimator mscn(mo);
  ASSERT_TRUE(mscn.Train(f.table, f.train).ok());

  NaruConfig nc;
  nc.hidden = 16;
  nc.hidden_layers = 1;
  nc.epochs = 2;
  nc.num_samples = 8;
  NaruEstimator naru(nc);
  ASSERT_TRUE(naru.Train(f.table).ok());

  std::vector<Query> queries;
  queries.reserve(f.test.size());
  for (const LabeledQuery& lq : f.test) queries.push_back(lq.query);

  // Batches of one, computed once at 1 thread.
  SetThreads(1);
  std::vector<double> lwnn_ref, mscn_ref, naru_ref;
  for (const Query& q : queries) {
    lwnn_ref.push_back(lwnn.EstimateCardinality(q));
    mscn_ref.push_back(mscn.EstimateCardinality(q));
    naru_ref.push_back(naru.EstimateCardinality(q));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreads(threads);

    std::vector<double> got(queries.size());
    lwnn.EstimateBatch(queries.data(), queries.size(), got.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], lwnn_ref[i]) << "lw-nn query " << i;
    }
    mscn.EstimateBatch(queries.data(), queries.size(), got.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], mscn_ref[i]) << "mscn query " << i;
    }
    naru.EstimateBatch(queries.data(), queries.size(), got.data());
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(got[i], naru_ref[i]) << "naru query " << i;
    }
  }
  SetThreads(saved_threads);
}

// The guarded-path contract: with CONFCARD_FAULTS unset and no latency
// budget, wrapping an estimator in GuardedEstimator must not change a
// single bit — neither per query nor through the harness — at 1 and 4
// threads, and must flag zero rows degraded.
TEST(DeterminismTest, GuardedPathBitIdenticalToUnguardedWhenFaultsOff) {
  const int saved_threads = CurrentThreads();
  Fixture f = MakeFixture();

  NaruConfig nc;
  nc.hidden = 16;
  nc.hidden_layers = 1;
  nc.epochs = 2;
  nc.num_samples = 8;
  NaruEstimator naru(nc);
  ASSERT_TRUE(naru.Train(f.table).ok());
  GuardedEstimator guard(naru, f.table);

  SingleTableHarness::Options opts;
  opts.jk_folds = 3;
  SingleTableHarness h(f.table, f.train, f.calib, f.test, opts);

  SetThreads(1);
  const MethodResult ref = h.RunScp(naru);
  std::vector<double> raw;
  raw.reserve(f.test.size());
  for (const LabeledQuery& lq : f.test) {
    raw.push_back(naru.EstimateCardinality(lq.query));
  }

  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SetThreads(threads);

    for (size_t i = 0; i < f.test.size(); ++i) {
      const GuardedEstimate g = guard.EstimateGuarded(f.test[i].query);
      ASSERT_EQ(g.value, raw[i]) << "query " << i;
      ASSERT_FALSE(g.degraded) << "query " << i;
    }

    const MethodResult got = h.RunScpGuarded(guard);
    EXPECT_EQ(got.num_degraded, 0u);
    ASSERT_EQ(got.rows.size(), ref.rows.size());
    for (size_t i = 0; i < ref.rows.size(); ++i) {
      ASSERT_EQ(got.rows[i].truth, ref.rows[i].truth) << "query " << i;
      ASSERT_EQ(got.rows[i].estimate, ref.rows[i].estimate) << "query " << i;
      ASSERT_EQ(got.rows[i].lo, ref.rows[i].lo) << "query " << i;
      ASSERT_EQ(got.rows[i].hi, ref.rows[i].hi) << "query " << i;
      ASSERT_FALSE(got.rows[i].degraded) << "query " << i;
    }
    EXPECT_EQ(got.coverage, ref.coverage);
    EXPECT_EQ(got.mean_width_sel, ref.mean_width_sel);
  }
  SetThreads(saved_threads);
}

}  // namespace
}  // namespace confcard
