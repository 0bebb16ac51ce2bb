// pi_offline: the paper's Fig. 1 pipeline on a DMV-like table. Each pass
// trains MSCN, Naru and LW-NN, runs S-CP, JK-CV+ and LW-S-CP on each
// model and CQR on the two supervised ones, and evaluates every interval
// on the test split. Passes repeat until the run's time is used; the
// serving layer is never touched.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "ce/featurizer.h"
#include "ce/lwnn.h"
#include "ce/mscn.h"
#include "ce/naru.h"
#include "common/check.h"
#include "common/parallel.h"
#include "data/datasets.h"
#include "gbdt/gbdt.h"
#include "harness/single_table.h"
#include "measure.h"
#include "nn/layers.h"
#include "nn/tensor.h"
#include "query/workload.h"
#include "trace.h"

namespace perfbench {
namespace {

using confcard::CardinalityEstimator;
using confcard::MethodResult;
using confcard::SingleTableHarness;
using confcard::Table;
using confcard::Workload;

confcard::MscnEstimator::Options MscnOptions() {
  confcard::MscnEstimator::Options o;
  o.model.epochs = 60;
  o.model.set_hidden = 96;
  o.model.final_hidden = 96;
  return o;
}

confcard::NaruConfig NaruOptions(size_t rows) {
  confcard::NaruConfig c;
  c.hidden = 64;
  c.epochs = 6;
  c.num_samples = 32;
  c.max_train_rows = rows;
  return c;
}

struct Inputs {
  std::unique_ptr<Table> table;
  Workload train, calib, test;
  double table_s = 0.0;
  double label_s = 0.0;
};

Inputs MakeInputs(const Settings& st) {
  Inputs in;
  Clock::time_point t = Clock::now();
  auto table = confcard::MakeDmv(st.pi_rows, 7);
  CONFCARD_CHECK_MSG(table.ok(), "table generation failed");
  in.table = std::make_unique<Table>(std::move(table).value());
  in.table_s = Seconds(t, Clock::now());
  t = Clock::now();
  in.train = Label(*in.table, st.pi_train, 1);
  in.calib = Label(*in.table, st.pi_calib, 2);
  in.test = Label(*in.table, st.pi_test, 3);
  // The inputs are fixed so that coverage and width are exact; the seed
  // only orders the test split, which changes no result.
  confcard::Rng(SubSeed(st.seed, 5)).Shuffle(in.test);
  in.label_s = Seconds(t, Clock::now());
  return in;
}

// One pass of the pipeline and what it measured. Times are process CPU
// time (all threads) unless named wall.
struct Pass {
  std::vector<MethodResult> results;
  std::vector<double> pair_s;   // CPU time of each Run* call
  std::vector<double> stage_s;  // each Train and Run* call, in order
  double pipeline_s = 0.0;
  double pipeline_wall_s = 0.0;
  double mscn_train_s = 0.0;
  uint64_t mscn_adam_steps = 0;
  double mscn_estimate_us = 0.0;
  double naru_estimate_us = 0.0;
  double lwnn_estimate_us = 0.0;
  double gbdt_fit_ms = 0.0;
};

double EstimateUsPerQuery(const CardinalityEstimator& model,
                          const Workload& test, Tracer* tracer,
                          const char* span) {
  std::vector<confcard::Query> q;
  for (const auto& lq : test) q.push_back(lq.query);
  std::vector<double> out(q.size());
  const Clock::time_point t = Clock::now();
  {
    ScopedSpan s(tracer, span);
    model.EstimateBatch(q.data(), q.size(), out.data());
  }
  return Seconds(t, Clock::now()) * 1e6 / static_cast<double>(q.size());
}

// GbdtRegressor::Fit on the LW-S-CP difficulty inputs of `model`: flat
// features of the training split against absolute residuals.
double GbdtFitMs(const SingleTableHarness& h, const CardinalityEstimator& model,
                 Tracer* tracer) {
  confcard::FlatQueryFeaturizer feat(h.table());
  std::vector<float> x;
  std::vector<double> y;
  const std::vector<double>& est = h.Estimates(model, h.train());
  for (size_t i = 0; i < h.train().size(); ++i) {
    const std::vector<float> f = feat.Featurize(h.train()[i].query);
    x.insert(x.end(), f.begin(), f.end());
    y.push_back(std::fabs(h.train()[i].cardinality - est[i]));
  }
  confcard::gbdt::GbdtRegressor gbdt(h.options().gbdt);
  const Clock::time_point t = Clock::now();
  {
    ScopedSpan s(tracer, "gbdt.fit");
    CONFCARD_CHECK(gbdt.Fit(x, feat.dim(), y).ok());
  }
  return Seconds(t, Clock::now()) * 1e3;
}

Pass RunPass(const Settings& st, const Inputs& in, Tracer* tracer) {
  SingleTableHarness::Options ho;
  ho.alpha = st.alpha;
  ho.jk_folds = st.jk_folds;
  SingleTableHarness h(*in.table, in.train, in.calib, in.test, ho);
  Pass p;
  auto cpu_s = [] {
    return static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID)) / 1e9;
  };
  auto run = [&](const char* span, auto&& fn) {
    const double c = cpu_s();
    ScopedSpan s(tracer, span);
    p.results.push_back(fn());
    p.pair_s.push_back(cpu_s() - c);
    p.stage_s.push_back(p.pair_s.back());
  };

  const Clock::time_point start = Clock::now();
  const double start_cpu = cpu_s();
  double train_cpu = start_cpu;
  confcard::MscnEstimator mscn(MscnOptions());
  {
    const uint64_t steps0 = CounterValue("nn.adam.steps");
    const Clock::time_point t = Clock::now();
    ScopedSpan s(tracer, "ce.mscn.train");
    CONFCARD_CHECK(mscn.Train(*in.table, in.train).ok());
    p.mscn_train_s = Seconds(t, Clock::now());
    p.mscn_adam_steps = CounterValue("nn.adam.steps") - steps0;
    p.stage_s.push_back(cpu_s() - train_cpu);
  }
  run("harness.scp", [&] { return h.RunScp(mscn); });
  run("harness.jkcv", [&] { return h.RunJkCv(mscn, mscn); });
  run("harness.lwscp", [&] { return h.RunLwScp(mscn); });
  run("harness.cqr", [&] { return h.RunCqr(mscn); });

  confcard::NaruEstimator naru(NaruOptions(st.pi_rows));
  train_cpu = cpu_s();
  {
    ScopedSpan s(tracer, "ce.naru.train");
    CONFCARD_CHECK(naru.Train(*in.table).ok());
  }
  p.stage_s.push_back(cpu_s() - train_cpu);
  run("harness.scp", [&] { return h.RunScp(naru); });
  run("harness.jkcv", [&] { return h.RunJkCvFixedModel(naru); });
  run("harness.lwscp", [&] { return h.RunLwScp(naru); });

  confcard::LwnnEstimator lwnn(LwnnOptions());
  train_cpu = cpu_s();
  {
    ScopedSpan s(tracer, "ce.lwnn.train");
    CONFCARD_CHECK(lwnn.Train(*in.table, in.train).ok());
  }
  p.stage_s.push_back(cpu_s() - train_cpu);
  run("harness.scp", [&] { return h.RunScp(lwnn); });
  run("harness.jkcv", [&] { return h.RunJkCv(lwnn, lwnn); });
  run("harness.lwscp", [&] { return h.RunLwScp(lwnn); });
  run("harness.cqr", [&] { return h.RunCqr(lwnn); });
  p.pipeline_s = cpu_s() - start_cpu;
  p.pipeline_wall_s = Seconds(start, Clock::now());

  if (tracer != nullptr) {
    // Direct calls after the timed pipeline, so they do not count in it.
    p.mscn_estimate_us =
        EstimateUsPerQuery(mscn, in.test, tracer, "ce.mscn.estimate_batch");
    p.naru_estimate_us =
        EstimateUsPerQuery(naru, in.test, tracer, "ce.naru.estimate_batch");
    p.lwnn_estimate_us =
        EstimateUsPerQuery(lwnn, in.test, tracer, "ce.lwnn.estimate_batch");
    p.gbdt_fit_ms = (GbdtFitMs(h, mscn, tracer) + GbdtFitMs(h, naru, tracer) +
                     GbdtFitMs(h, lwnn, tracer)) /
                    3.0;
  }
  return p;
}

// GFLOP/s of one kernel at a fixed shape; flops per call are 2*n*k*m.
template <typename Fn>
double Gflops(double flops_per_call, const Fn& fn) {
  int calls = 0;
  const Clock::time_point t = Clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.2) {
    for (int i = 0; i < 50; ++i) fn();
    calls += 50;
    elapsed = Seconds(t, Clock::now());
  }
  return flops_per_call * calls / elapsed / 1e9;
}

// The three dense kernels at the MSCN training shape: a batch of 64
// queries through the final layer (3 * 96 inputs -> 96 outputs).
void KernelMetrics(Result* result) {
  constexpr size_t n = 64;
  constexpr size_t k = 3 * 96;
  constexpr size_t m = 96;
  confcard::Rng rng(99);
  const confcard::nn::Tensor a = confcard::nn::Tensor::Randn(n, k, 1.0f, rng);
  const confcard::nn::Tensor b = confcard::nn::Tensor::Randn(k, m, 1.0f, rng);
  const confcard::nn::Tensor g = confcard::nn::Tensor::Randn(n, m, 1.0f, rng);
  const confcard::nn::Dense dense(k, m, rng);
  const double flops = 2.0 * n * k * m;
  float sink = 0.0f;
  result->metrics["nn.matmul.gflops"] = Gflops(flops, [&] {
    sink += confcard::nn::MatMul(a, b).At(0, 0);
  });
  // Input gradient of the backward pass: (n, m) x (k, m)^T -> (n, k).
  result->metrics["nn.matmul_tb.gflops"] = Gflops(flops, [&] {
    sink += confcard::nn::MatMulTransB(g, b).At(0, 0);
  });
  result->metrics["nn.dense_fused.gflops"] = Gflops(flops, [&] {
    sink += dense.ApplyActivated(a, /*relu=*/true).At(0, 0);
  });
  result->Check(std::isfinite(sink), "kernel outputs are not finite");
}

// Test rows of a pass whose interval is finite and ordered.
uint64_t ValidRows(const Pass& p) {
  uint64_t n = 0;
  for (const MethodResult& r : p.results) {
    for (const confcard::PiRow& row : r.rows) {
      if (std::isfinite(row.lo) && std::isfinite(row.hi) && row.lo <= row.hi) {
        ++n;
      }
    }
  }
  return n;
}

double MeanOf(const std::vector<MethodResult>& rs,
              double MethodResult::*field) {
  double sum = 0.0;
  for (const MethodResult& r : rs) sum += r.*field;
  return sum / static_cast<double>(rs.size());
}

void CheckPass(const Settings& st, const Pass& p, const Pass& first,
               Result* result) {
  for (size_t i = 0; i < p.results.size(); ++i) {
    const MethodResult& r = p.results[i];
    // JK-CV+ guarantees 1 - 2 alpha; the split methods 1 - alpha. Allow
    // three binomial standard errors over the test split.
    const bool jk = r.method.rfind("jk", 0) == 0;
    const double g = jk ? 1.0 - 2.0 * st.alpha : 1.0 - st.alpha;
    const double tol =
        3.0 * std::sqrt(g * (1.0 - g) / static_cast<double>(st.pi_test));
    result->Check(r.coverage >= g - tol,
                  r.model + "/" + r.method + " coverage " +
                      std::to_string(r.coverage) + " below " +
                      std::to_string(g - tol));
    result->Check(std::isfinite(r.mean_width_sel) && r.mean_width_sel > 0.0,
                  r.model + "/" + r.method + " has no finite width");
    // The pipeline is deterministic: every pass gives the same intervals.
    result->Check(r.coverage == first.results[i].coverage &&
                      r.mean_width_sel == first.results[i].mean_width_sel,
                  r.model + "/" + r.method + " differs between passes");
  }
}

}  // namespace

void RunPiOffline(const Settings& st, Result* result) {
  confcard::SetThreads(st.pi_threads);
  // Set-up runs pi_setup_repeats times first and then again before every
  // pass, so that its median samples the whole run. The inputs are the
  // same every time.
  std::vector<double> setup_times;
  Inputs in;
  auto set_up = [&] {
    const int64_t cpu0 = CpuNs(CLOCK_PROCESS_CPUTIME_ID);
    in = MakeInputs(st);
    setup_times.push_back(
        static_cast<double>(CpuNs(CLOCK_PROCESS_CPUTIME_ID) - cpu0) / 1e9);
  };
  for (int rep = 0; rep < st.pi_setup_repeats; ++rep) set_up();

  // Each pass is checked against the first as it finishes; later passes
  // keep only their timings, so memory does not grow with their number.
  std::vector<Pass> passes;
  uint64_t attempted = 0;
  uint64_t valid = 0;
  auto add_pass = [&](Pass p) {
    attempted += p.results.size() * in.test.size();
    valid += ValidRows(p);
    CheckPass(st, p, passes.empty() ? p : passes[0], result);
    if (!passes.empty()) p.results = {};
    passes.push_back(std::move(p));
  };
  auto& m = result->metrics;
  if (!st.trace) {
    const Clock::time_point start = Clock::now();
    do {
      set_up();
      add_pass(RunPass(st, in, nullptr));
    } while (Seconds(start, Clock::now()) + passes.back().pipeline_wall_s <
             st.seconds);
    std::vector<double> pipeline_wall;
    for (const Pass& p : passes) pipeline_wall.push_back(p.pipeline_wall_s);
    // Each stage's fastest pass: a pair's CPU time is its minimum over
    // passes, and the pipeline's the sum of every stage's minimum.
    auto fastest = [&](std::vector<double> Pass::*field, size_t i) {
      std::vector<double> runs;
      for (const Pass& p : passes) runs.push_back((p.*field)[i]);
      return QuantileOf(runs, 0.0);
    };
    std::vector<double> pair_s;
    for (size_t i = 0; i < passes[0].pair_s.size(); ++i) {
      pair_s.push_back(fastest(&Pass::pair_s, i));
    }
    double pipeline_s = 0.0;
    for (size_t i = 0; i < passes[0].stage_s.size(); ++i) {
      pipeline_s += fastest(&Pass::stage_s, i);
    }
    const double intervals = static_cast<double>(passes[0].results.size()) *
                             static_cast<double>(in.test.size());
    m["p50_us"] = Median(pair_s) * 1e6;
    m["capacity_qps"] = intervals / pipeline_s;
    result->diagnostics["pipeline_wall_s"] = Median(pipeline_wall);
    result->diagnostics["passes"] = static_cast<double>(passes.size());
    m["answered_frac"] =
        static_cast<double>(ValidRows(passes[0])) / intervals;
    m["coverage"] = MeanOf(passes[0].results, &MethodResult::coverage);
    m["width"] = MeanOf(passes[0].results, &MethodResult::mean_width_sel);
  } else {
    // Untraced and traced passes alternate while the time allows; the
    // overhead compares their medians, and the per-layer figures come
    // from the last traced pass.
    std::vector<double> untraced_s, traced_s;
    std::unique_ptr<Tracer> tracer;
    uint64_t hits = 0, misses = 0, busy_us = 0, tasks = 0;
    const Clock::time_point start = Clock::now();
    do {
      set_up();
      add_pass(RunPass(st, in, nullptr));
      untraced_s.push_back(passes.back().pipeline_s);
      tracer = std::make_unique<Tracer>(100000);
      const uint64_t hits0 = CounterValue("ce.infer.cache_hits");
      const uint64_t misses0 = CounterValue("ce.infer.cache_misses");
      const uint64_t busy0 = CounterValue("pool.busy_us");
      const uint64_t tasks0 = CounterValue("pool.tasks_executed");
      add_pass(RunPass(st, in, tracer.get()));
      traced_s.push_back(passes.back().pipeline_s);
      hits = CounterValue("ce.infer.cache_hits") - hits0;
      misses = CounterValue("ce.infer.cache_misses") - misses0;
      busy_us = CounterValue("pool.busy_us") - busy0;
      tasks = CounterValue("pool.tasks_executed") - tasks0;
    } while (Seconds(start, Clock::now()) +
                 2.0 * passes.back().pipeline_wall_s <
             st.seconds);
    const Pass& p = passes.back();
    const auto self = tracer->SelfByName();
    auto span_s = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0
                              : static_cast<double>(it->second.second) / 1e9;
    };
    m["obs.trace_overhead_frac"] = Median(traced_s) / Median(untraced_s) - 1.0;
    m["ce.mscn.train_s"] = span_s("ce.mscn.train");
    m["ce.naru.train_s"] = span_s("ce.naru.train");
    m["ce.lwnn.train_s"] = span_s("ce.lwnn.train");
    m["ce.mscn.estimate_us_per_query"] = p.mscn_estimate_us;
    m["ce.naru.estimate_us_per_query"] = p.naru_estimate_us;
    m["ce.lwnn.estimate_us_per_query"] = p.lwnn_estimate_us;
    m["nn.step_us.mscn"] =
        p.mscn_adam_steps == 0
            ? 0.0
            : p.mscn_train_s * 1e6 / static_cast<double>(p.mscn_adam_steps);
    m["harness.scp_s"] = span_s("harness.scp");
    m["harness.jkcv_s"] = span_s("harness.jkcv");
    m["harness.lwscp_s"] = span_s("harness.lwscp");
    m["harness.cqr_s"] = span_s("harness.cqr");
    m["harness.cache_hit_frac"] =
        hits + misses == 0 ? 0.0
                           : static_cast<double>(hits) /
                                 static_cast<double>(hits + misses);
    m["gbdt.fit_ms"] = p.gbdt_fit_ms;
    m["common.pool.busy_frac"] =
        static_cast<double>(busy_us) /
        (static_cast<double>(st.pi_threads) * p.pipeline_wall_s * 1e6);
    m["common.pool.tasks"] = static_cast<double>(tasks);
    KernelMetrics(result);
    result->Check(tracer->dropped() == 0, "the span store overflowed");
    if (!tracer->Write(st.trace_path)) {
      std::fprintf(stderr, "trace file %s not written\n", st.trace_path.c_str());
    }
  }

  m["setup_s"] = Median(setup_times);
  m["data.table_s"] = in.table_s;
  m["query.label_s"] = in.label_s;
  m["peak_rss_mb"] = PeakRssMb();
  result->attempted = attempted;
  result->failed = attempted - valid;
}

}  // namespace perfbench
