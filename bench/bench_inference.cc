// Inference-engine bench: for MSCN and LW-NN, the latency of a batch of
// one (the per-query entry point, EstimateCardinality) against one
// batch of the whole test workload, plus scalar-vs-SIMD kernels on the
// batched paths and on MSCN training — each pair measured in the same
// run on the same trained weights, at 1 thread so the numbers isolate
// the algorithmic effect from pool parallelism. Naru's EstimateBatch
// runs its sampler once per query, so its batch of n and n batches of
// one run the same code: they are compared for bit identity only, not
// timed. Emits BENCH_inference.json and CONFCARD_CHECKs that every
// compared pair of results is bit-identical (the engine's contract);
// speedups are reported, not asserted, because they depend on the
// host.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "nn/simd.h"

namespace confcard {
namespace {

// Each side is warmed up once (untimed) and then timed rep by rep,
// keeping the fastest rep per side. The two sides run interleaved:
// scheduler noise on shared hosts arrives in bursts longer than one rep,
// so interleaving exposes both sides to the same quiet windows instead
// of letting a burst land entirely on one. The reps go on until each
// side has run kReps times and spent kMinTimedMillis in timed reps: a
// short side (LW-NN's batch of one takes under 1 ms) would otherwise
// finish all its reps inside one slow spell of the host, and 250 ms
// still let one of three full runs read MSCN's batch of one 40% slow.
// The minimum scales with CONFCARD_SCALE, as the workload does, so the
// perf-smoke run stays short.
constexpr int kReps = 7;
constexpr double kMinTimedMillis = 1000.0;

struct Comparison {
  double baseline_millis = 0.0;
  double optimized_millis = 0.0;
  int reps = 0;  // timed reps per side
  bool identical = true;

  double speedup() const { return baseline_millis / optimized_millis; }
};

template <typename BaseFn, typename OptFn>
void TimeInterleaved(const BaseFn& base, const OptFn& opt, Comparison* cmp) {
  base();  // warmup, untimed
  opt();
  const double min_millis = kMinTimedMillis * bench::BenchScale();
  double base_total = 0.0;
  double opt_total = 0.0;
  while (cmp->reps < kReps || base_total < min_millis ||
         opt_total < min_millis) {
    Stopwatch base_watch;
    base();
    const double base_ms = base_watch.ElapsedMillis();
    Stopwatch opt_watch;
    opt();
    const double opt_ms = opt_watch.ElapsedMillis();
    if (cmp->reps == 0 || base_ms < cmp->baseline_millis) {
      cmp->baseline_millis = base_ms;
    }
    if (cmp->reps == 0 || opt_ms < cmp->optimized_millis) {
      cmp->optimized_millis = opt_ms;
    }
    base_total += base_ms;
    opt_total += opt_ms;
    ++cmp->reps;
  }
}

// Whether one batch of n returns the bits of n batches of one. Every
// estimator reseeds or recomputes per call, so repetitions reproduce
// the same bits.
bool BatchOfOneIdentical(const CardinalityEstimator& model,
                         const std::vector<Query>& queries) {
  std::vector<double> single(queries.size());
  std::vector<double> batched(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    model.EstimateBatch(&queries[i], 1, &single[i]);
  }
  model.EstimateBatch(queries.data(), queries.size(), batched.data());
  return single == batched;
}

// n batches of one (what a per-query caller pays) vs one batch of n.
Comparison BenchBatchOfOne(const char* label,
                           const CardinalityEstimator& model,
                           const std::vector<Query>& queries) {
  Comparison cmp;
  std::vector<double> single(queries.size());
  std::vector<double> batched(queries.size());
  TimeInterleaved(
      [&] {
        for (size_t i = 0; i < queries.size(); ++i) {
          model.EstimateBatch(&queries[i], 1, &single[i]);
        }
      },
      [&] {
        model.EstimateBatch(queries.data(), queries.size(), batched.data());
      },
      &cmp);
  const double to_us = 1e3 / static_cast<double>(queries.size());
  std::printf("%-7s batches of one    %8.2f us/query (%zu queries)\n", label,
              cmp.baseline_millis * to_us, queries.size());
  std::printf("%-7s one batch of n    %8.2f us/query  (%.2fx)\n", label,
              cmp.optimized_millis * to_us, cmp.speedup());

  for (size_t i = 0; i < queries.size(); ++i) {
    if (batched[i] != single[i]) cmp.identical = false;
  }
  return cmp;
}

// Scalar vs SIMD kernels on an already-optimized engine path: the same
// batched estimator run with the vector kernels disabled and enabled.
// Both settings are bit-identical by the simd.h contract, so the
// comparison doubles as an end-to-end identity check through a full
// model forward.
template <typename Fn>
Comparison BenchSimdToggle(const char* label, const std::vector<Query>& queries,
                           const Fn& run) {
  Comparison cmp;
  std::vector<double> scalar(queries.size());
  std::vector<double> simd(queries.size());
  TimeInterleaved(
      [&] {
        nn::SetSimdEnabled(false);
        run(scalar.data());
      },
      [&] {
        nn::SetSimdEnabled(true);
        run(simd.data());
      },
      &cmp);
  nn::SetSimdEnabled(true);
  std::printf("%-7s scalar kernels    %8.1f ms (%zu queries)\n", label,
              cmp.baseline_millis, queries.size());
  std::printf("%-7s %s kernels      %8.1f ms  (%.2fx)\n", label,
              nn::SimdIsaName(), cmp.optimized_millis, cmp.speedup());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (simd[i] != scalar[i]) cmp.identical = false;
  }
  return cmp;
}

// Training-step SIMD toggle. The batched inference paths above are
// dominated by broadcast-row GEMMs whose scalar loops the compiler
// already auto-vectorizes (independent output lanes), so the runtime
// toggle shows ~1x there. Fold training is different: its profiled
// hotspot (48.6% self, docs/PERFORMANCE.md) is the MatMulTransB
// dot-product reduction, which auto-vectorization CANNOT touch without
// reassociating the p-sum — only the transpose-tile vector kernel
// speeds it up while preserving bit identity. Trained weights are
// deterministic, so the post-training estimates double as an
// end-to-end identity check over thousands of vectorized GEMMs.
Comparison BenchMscnTrainSimd(const Table& table, const bench::Splits& splits,
                              const std::vector<Query>& queries) {
  Comparison cmp;
  MscnEstimator::Options opts = bench::MscnDefaults();
  opts.model.epochs = 6;  // the ratio is epoch-invariant; keep reps quick
  std::vector<double> scalar(queries.size());
  std::vector<double> simd(queries.size());
  auto train_and_estimate = [&](double* out) {
    MscnEstimator est(opts);
    CONFCARD_CHECK(est.Train(table, splits.train).ok());
    est.EstimateBatch(queries.data(), queries.size(), out);
  };
  TimeInterleaved(
      [&] {
        nn::SetSimdEnabled(false);
        train_and_estimate(scalar.data());
      },
      [&] {
        nn::SetSimdEnabled(true);
        train_and_estimate(simd.data());
      },
      &cmp);
  nn::SetSimdEnabled(true);
  std::printf("mscn-tr scalar kernels    %8.1f ms (%d epochs)\n",
              cmp.baseline_millis, opts.model.epochs);
  std::printf("mscn-tr %s kernels      %8.1f ms  (%.2fx)\n", nn::SimdIsaName(),
              cmp.optimized_millis, cmp.speedup());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (simd[i] != scalar[i]) cmp.identical = false;
  }
  return cmp;
}

// `queries` > 0 adds both sides' latency in microseconds per query.
void WriteComparison(obs::JsonWriter* w, const char* name,
                     const char* baseline, const char* optimized,
                     const Comparison& cmp, size_t queries = 0) {
  w->Key(name).BeginObject();
  w->Key("baseline").String(baseline);
  w->Key("optimized").String(optimized);
  w->Key("baseline_millis").Number(cmp.baseline_millis);
  w->Key("optimized_millis").Number(cmp.optimized_millis);
  if (queries > 0) {
    const double to_us = 1e3 / static_cast<double>(queries);
    w->Key("baseline_us_per_query").Number(cmp.baseline_millis * to_us);
    w->Key("optimized_us_per_query").Number(cmp.optimized_millis * to_us);
  }
  w->Key("speedup").Number(cmp.speedup());
  w->Key("reps").Int(static_cast<uint64_t>(cmp.reps));
  w->Key("bit_identical").Bool(cmp.identical);
  w->EndObject();
}

int Main() {
  bench::PrintScaleNote();
  const int saved_threads = CurrentThreads();
  SetThreads(1);  // isolate the algorithmic speedup from the pool

  // DMV: 11 columns, so the MADE input/output space is many one-hot
  // blocks wide, and the sampler's inputs are mostly zeros.
  Table table = MakeDmv(bench::DefaultRows(), 3).value();
  bench::Splits splits = bench::MakeSplits(table);
  std::vector<Query> queries;
  queries.reserve(splits.test.size());
  for (const LabeledQuery& lq : splits.test) queries.push_back(lq.query);

  MscnEstimator mscn(bench::MscnDefaults());
  CONFCARD_CHECK(mscn.Train(table, splits.train).ok());
  Comparison mscn_cmp = BenchBatchOfOne("mscn", mscn, queries);

  LwnnEstimator lwnn(bench::LwnnDefaults());
  CONFCARD_CHECK(lwnn.Train(table, splits.train).ok());
  Comparison lwnn_cmp = BenchBatchOfOne("lw-nn", lwnn, queries);

  NaruEstimator naru(bench::NaruDefaults());
  CONFCARD_CHECK(naru.Train(table).ok());
  const bool naru_identical = BatchOfOneIdentical(naru, queries);
  std::printf("naru    one batch of n: %s n batches of one (not timed: the "
              "same per-query sampler)\n",
              naru_identical ? "bit-identical to" : "DIFFERS from");

  // SIMD off/on at 1 thread on the two kernel-bound engine paths.
  Comparison naru_simd = BenchSimdToggle("naru", queries, [&](double* out) {
    naru.EstimateBatch(queries.data(), queries.size(), out);
  });
  Comparison mscn_simd = BenchSimdToggle("mscn", queries, [&](double* out) {
    mscn.EstimateBatch(queries.data(), queries.size(), out);
  });
  Comparison train_simd = BenchMscnTrainSimd(table, splits, queries);

  SetThreads(saved_threads);

  obs::JsonWriter w;
  w.BeginObject();
  w.Key("bench").String("inference");
  w.Key("scale").Number(bench::BenchScale());
  w.Key("threads").Int(1);
  w.Key("queries").Int(static_cast<uint64_t>(queries.size()));
  w.Key("simd_isa").String(nn::SimdIsaName());
  WriteComparison(&w, "mscn_batch_of_one", "n batches of one",
                  "one batch of n", mscn_cmp, queries.size());
  WriteComparison(&w, "lwnn_batch_of_one", "n batches of one",
                  "one batch of n", lwnn_cmp, queries.size());
  w.Key("naru_batch_of_one").BeginObject();
  w.Key("bit_identical").Bool(naru_identical);
  w.EndObject();
  WriteComparison(&w, "naru_batched_simd", "scalar kernels", "simd kernels",
                  naru_simd);
  WriteComparison(&w, "mscn_batched_simd", "scalar kernels", "simd kernels",
                  mscn_simd);
  WriteComparison(&w, "mscn_train_simd", "scalar kernels", "simd kernels",
                  train_simd);
  w.EndObject();

  const char* path = "BENCH_inference.json";
  std::ofstream out(path, std::ios::binary);
  CONFCARD_CHECK_MSG(out.is_open(), "cannot write BENCH_inference.json");
  out << w.str() << "\n";
  std::printf("wrote %s\n", path);
  CONFCARD_CHECK_MSG(
      mscn_cmp.identical && lwnn_cmp.identical && naru_identical,
      "one batch of n differs from n batches of one");
  CONFCARD_CHECK_MSG(
      naru_simd.identical && mscn_simd.identical && train_simd.identical,
      "SIMD kernels produced non-identical estimates");
  // The vector kernels must buy a real single-thread win on at least
  // one kernel-bound path (trivially inapplicable in scalar-only
  // builds, where both sides run the same code).
  if (nn::SimdCompiledIn()) {
    CONFCARD_CHECK_MSG(naru_simd.speedup() >= 1.5 ||
                           mscn_simd.speedup() >= 1.5 ||
                           train_simd.speedup() >= 1.5,
                       "SIMD kernels under 1.5x on every kernel-bound path");
  }
  return 0;
}

}  // namespace
}  // namespace confcard

int main() { return confcard::Main(); }
