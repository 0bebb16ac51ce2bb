#include "harness/pi_harness.h"

#include <optional>

#include "ce/estimator.h"
#include "ce/mscn.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "conformal/cqr.h"
#include "conformal/jackknife.h"
#include "conformal/locally_weighted.h"
#include "conformal/split.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace confcard {

template <typename D, typename M, typename T, typename L>
const std::vector<double>& PiHarness<D, M, T, L>::Estimates(
    const M& model, const Split& workload) const {
  // Harness-owned splits are identified by member (slot 0-2); any other
  // workload by content hash, so the key never depends on a caller's
  // buffer address.
  int slot = 3;
  uint64_t content_hash = 0;
  if (&workload == &train_) {
    slot = 0;
  } else if (&workload == &calib_) {
    slot = 1;
  } else if (&workload == &test_) {
    slot = 2;
  } else {
    content_hash = kind_.hash(workload);
  }
  const auto key = std::make_tuple(model.instance_id(), slot, content_hash);
  static obs::Counter& hits =
      obs::Metrics().GetCounter("ce.infer.cache_hits");
  static obs::Counter& misses =
      obs::Metrics().GetCounter("ce.infer.cache_misses");
  auto it = estimate_cache_.find(key);
  if (it != estimate_cache_.end()) {
    hits.Increment();
    return it->second;
  }
  misses.Increment();
  // Chunks of queries fan out across the pool and each chunk runs one
  // batched forward (inference paths are const and cache-free); each
  // slot is written exactly once, keeping output order
  // scheduling-independent, and EstimateBatch gives each query the same
  // bits in any chunk.
  std::vector<QueryType> queries(workload.size());
  for (size_t i = 0; i < workload.size(); ++i) {
    queries[i] = workload[i].query;
  }
  std::vector<double> out(workload.size());
  Stopwatch watch;
  // Detail-only: when a Chrome trace export or the sampling profiler is
  // armed, the batched sweep gets its own span (and each worker chunk a
  // per-thread child) so inference scheduling is visually inspectable
  // and CPU samples attribute to the sweep. Gated to keep the artifact
  // span tree unchanged on plain runs.
  std::optional<obs::TraceSpan> sweep_span;
  if (obs::DetailSpansEnabled()) {
    sweep_span.emplace("infer.batch");
    sweep_span->SetAttr("queries", static_cast<double>(workload.size()));
  }
  ParallelFor(workload.size(), 0, [&](size_t begin, size_t end) {
    std::optional<obs::TraceSpan> chunk_span;
    if (obs::DetailSpansEnabled()) {
      chunk_span.emplace("infer.batch.chunk");
      chunk_span->SetAttr("begin", static_cast<double>(begin));
      chunk_span->SetAttr("n", static_cast<double>(end - begin));
    }
    model.EstimateBatch(queries.data() + begin, end - begin,
                        out.data() + begin);
  });
  const double elapsed_us = watch.ElapsedMicros();
  if (elapsed_us > 0.0 && !workload.empty()) {
    obs::Metrics()
        .GetGauge("ce.infer.batch_queries_per_sec")
        .Set(static_cast<double>(workload.size()) * 1e6 / elapsed_us);
  }
  return estimate_cache_.emplace(key, std::move(out)).first->second;
}

template <typename D, typename M, typename T, typename L>
std::vector<std::vector<float>> PiHarness<D, M, T, L>::Features(
    const M& model, const Split& workload) const {
  std::vector<std::vector<float>> out(workload.size());
  ParallelFor(workload.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = kind_.flat_features(model, workload[i].query);
    }
  });
  return out;
}

template <typename D, typename M, typename T, typename L>
std::vector<double> PiHarness<D, M, T, L>::Truths(
    const Split& workload) const {
  std::vector<double> out;
  out.reserve(workload.size());
  for (const L& lq : workload) out.push_back(lq.cardinality);
  return out;
}

template <typename D, typename M, typename T, typename L>
MethodResult PiHarness<D, M, T, L>::MakeResult(
    const std::string& model, const std::string& method) const {
  MethodResult r;
  r.model = model;
  r.method = method;
  r.alpha = alpha_;
  return r;
}

template <typename D, typename M, typename T, typename L>
MethodResult PiHarness<D, M, T, L>::RunScp(const M& model) const {
  MethodResult result = MakeResult(model.name(), "s-cp");
  obs::TraceSpan span(kind_.span_prefix + result.method);
  SplitConformal scp(scoring_, alpha_);
  {
    PrepTimer prep(&result);
    std::vector<double> calib_est = Estimates(model, calib_);
    CONFCARD_CHECK(scp.Calibrate(calib_est, Truths(calib_)).ok());
  }

  std::vector<double> test_est = Estimates(model, test_);
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      Interval iv = clip.Clip(scp.Predict(test_est[i]), kind_.clip_bound);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

template <typename D, typename M, typename T, typename L>
MethodResult PiHarness<D, M, T, L>::RunLwScp(const M& model) const {
  MethodResult result = MakeResult(model.name(), "lw-s-cp");
  std::vector<double> train_est = Estimates(model, train_);
  std::vector<double> calib_est = Estimates(model, calib_);
  std::vector<double> test_est = Estimates(model, test_);
  CONFCARD_CHECK_MSG(!train_.empty(), "lw-s-cp(gbdt) needs a training split");
  obs::TraceSpan span(kind_.span_prefix + result.method);
  LocallyWeightedConformal::Options opts;
  opts.alpha = alpha_;
  opts.gbdt = gbdt_;
  LocallyWeightedConformal lw(opts);
  {
    PrepTimer prep(&result);
    CONFCARD_CHECK(lw.FitDifficulty(Features(model, train_), train_est,
                                    Truths(train_))
                       .ok());
    CONFCARD_CHECK(
        lw.Calibrate(Features(model, calib_), calib_est, Truths(calib_))
            .ok());
  }

  std::vector<std::vector<float>> test_feat = Features(model, test_);
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      Interval iv = clip.Clip(lw.Predict(test_est[i], test_feat[i]),
                              kind_.clip_bound);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

template <typename D, typename M, typename T, typename L>
MethodResult PiHarness<D, M, T, L>::RunCqr(const T& prototype) const {
  MethodResult result = MakeResult(prototype.name(), "cqr");
  obs::TraceSpan span(kind_.span_prefix + result.method);

  ConformalizedQuantileRegression cqr(alpha_);
  std::unique_ptr<T> lo_model, hi_model;
  {
    PrepTimer prep(&result);
    lo_model = prototype.CloneArchitecture(2101);
    lo_model->SetLoss(LossSpec::Pinball(cqr.lower_tau()));
    hi_model = prototype.CloneArchitecture(2203);
    hi_model->SetLoss(LossSpec::Pinball(cqr.upper_tau()));
    // The two quantile heads train concurrently; a serial run trains the
    // upper head last, so its telemetry is republished after the join.
    T* heads[2] = {lo_model.get(), hi_model.get()};
    ParallelFor(2, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        CONFCARD_CHECK(heads[i]->Train(*data_, train_).ok());
      }
    });
    hi_model->RepublishTrainingTelemetry();

    std::vector<double> lo_calib = Estimates(*lo_model, calib_);
    std::vector<double> hi_calib = Estimates(*hi_model, calib_);
    CONFCARD_CHECK(cqr.Calibrate(lo_calib, hi_calib, Truths(calib_)).ok());
  }

  std::vector<double> lo_test = Estimates(*lo_model, test_);
  std::vector<double> hi_test = Estimates(*hi_model, test_);
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      Interval iv =
          clip.Clip(cqr.Predict(lo_test[i], hi_test[i]), kind_.clip_bound);
      const double center = 0.5 * (lo_test[i] + hi_test[i]);
      result.rows.push_back({test_[i].cardinality, center, iv.lo, iv.hi,
                             clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

template <typename D, typename M, typename T, typename L>
MethodResult PiHarness<D, M, T, L>::RunJkCv(const T& prototype,
                                            const M& full_model,
                                            bool simplified) const {
  MethodResult result =
      MakeResult(full_model.name(), simplified ? "jk-cv+(s)" : "jk-cv+");
  // JK-CV+ consumes the whole labeled dataset; no separate calibration
  // split is needed (Algorithm 1).
  Split all = train_;
  all.insert(all.end(), calib_.begin(), calib_.end());
  const int k = jk_folds_;
  obs::TraceSpan span(kind_.span_prefix + result.method);

  std::vector<std::unique_ptr<T>> fold_models;
  JackknifeCvPlus jk(scoring_, alpha_,
                     simplified ? JackknifeCvPlus::Mode::kSimplified
                                : JackknifeCvPlus::Mode::kFull);
  {
    PrepTimer prep(&result);
    std::vector<int> fold_of = AssignFolds(all.size(), k, seed_);
    // The K fold models are the dominant cost of JK-CV+ (the paper's
    // headline finding); they train concurrently. Clones are created
    // serially so instance ids stay deterministic, and each fold's
    // weights depend only on its own seed (3000 + f) and sub-workload,
    // so results are bit-identical at any thread count.
    fold_models.reserve(static_cast<size_t>(k));
    for (int f = 0; f < k; ++f) {
      fold_models.push_back(
          prototype.CloneArchitecture(3000 + static_cast<uint64_t>(f)));
    }
    ParallelFor(static_cast<size_t>(k), 1, [&](size_t begin, size_t end) {
      for (size_t f = begin; f < end; ++f) {
        // Detail-only per-fold span: shows which worker trained which
        // fold and nests the model's own training spans beneath it.
        std::optional<obs::TraceSpan> fold_span;
        if (obs::DetailSpansEnabled()) {
          fold_span.emplace("fold.train");
          fold_span->SetAttr("fold", static_cast<double>(f));
        }
        Split fold_train;
        fold_train.reserve(all.size());
        for (size_t i = 0; i < all.size(); ++i) {
          if (fold_of[i] != static_cast<int>(f)) fold_train.push_back(all[i]);
        }
        CONFCARD_CHECK(fold_models[f]->Train(*data_, fold_train).ok());
      }
    });
    // A serial run trains fold k-1 last; restore its telemetry.
    fold_models.back()->RepublishTrainingTelemetry();
    std::vector<double> oof(all.size());
    std::vector<double> truths(all.size());
    ParallelFor(all.size(), 0, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        oof[i] = fold_models[static_cast<size_t>(fold_of[i])]
                     ->EstimateCardinality(all[i].query);
        truths[i] = all[i].cardinality;
      }
    });
    CONFCARD_CHECK(jk.Calibrate(oof, truths, fold_of, k).ok());
  }

  std::vector<double> full_est = Estimates(full_model, test_);
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    // In full mode each test query runs all K fold models, the most
    // expensive per-query loop in the harness; queries fan out with one
    // scratch fold_est per chunk, writing rows into pre-sized slots.
    result.rows.resize(test_.size());
    ParallelFor(test_.size(), 0, [&](size_t begin, size_t end) {
      std::vector<double> fold_est(static_cast<size_t>(k));
      for (size_t i = begin; i < end; ++i) {
        const double t0 = clock.NowUs();
        if (!simplified) {
          for (int f = 0; f < k; ++f) {
            fold_est[static_cast<size_t>(f)] =
                fold_models[static_cast<size_t>(f)]->EstimateCardinality(
                    test_[i].query);
          }
        }
        Interval iv =
            clip.Clip(jk.Predict(fold_est, full_est[i]), kind_.clip_bound);
        result.rows[i] = {test_[i].cardinality, full_est[i], iv.lo, iv.hi,
                          clock.NowUs() - t0};
      }
    });
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

template class PiHarness<Table, CardinalityEstimator, SupervisedEstimator,
                         LabeledQuery>;
template class PiHarness<Database, MscnJoinEstimator, MscnJoinEstimator,
                         LabeledJoinQuery>;

}  // namespace confcard
