#include "harness/single_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "conformal/cqr.h"
#include "conformal/jackknife.h"
#include "conformal/locally_weighted.h"
#include "conformal/split.h"
#include "conformal/validate.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/validate.h"

namespace confcard {
namespace {

// Variance-based difficulty floored away from zero.
double StdDev(const std::vector<double>& values) {
  return std::sqrt(Variance(values));
}

// FNV-1a over the workload content (predicates + labels): the cache
// identity for workloads the harness does not own.
uint64_t HashWorkload(const Workload& workload) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  mix(workload.size());
  for (const LabeledQuery& lq : workload) {
    mix(lq.query.predicates.size());
    for (const Predicate& p : lq.query.predicates) {
      mix(static_cast<uint64_t>(static_cast<int64_t>(p.column)));
      mix(static_cast<uint64_t>(p.op));
      mix(std::bit_cast<uint64_t>(p.lo));
      mix(std::bit_cast<uint64_t>(p.hi));
    }
    mix(std::bit_cast<uint64_t>(lq.cardinality));
  }
  return h;
}

}  // namespace

SingleTableHarness::SingleTableHarness(const Table& table, Workload train,
                                       Workload calib, Workload test,
                                       Options options)
    : table_(&table),
      train_(std::move(train)),
      calib_(std::move(calib)),
      test_(std::move(test)),
      options_(options),
      scoring_(MakeScoring(options.score)),
      featurizer_(std::make_unique<FlatQueryFeaturizer>(table)),
      num_rows_(static_cast<double>(table.num_rows())) {
  CONFCARD_CHECK(!calib_.empty());
  CONFCARD_CHECK(!test_.empty());
}

Result<SingleTableHarness> SingleTableHarness::Make(const Table& table,
                                                    Workload train,
                                                    Workload calib,
                                                    Workload test,
                                                    Options options) {
  CONFCARD_RETURN_NOT_OK(ValidateAlpha(options.alpha));
  CONFCARD_RETURN_NOT_OK(ValidateFolds(options.jk_folds));
  if (!(options.degraded_inflation >= 1.0)) {
    return Status::InvalidArgument(
        "degraded_inflation must be >= 1 (intervals only widen)");
  }
  if (calib.empty()) {
    return Status::InvalidArgument("calibration split is empty");
  }
  if (test.empty()) {
    return Status::InvalidArgument("test split is empty");
  }
  const size_t cols = table.num_columns();
  CONFCARD_RETURN_NOT_OK(ValidateWorkload(train, cols));
  CONFCARD_RETURN_NOT_OK(ValidateWorkload(calib, cols));
  CONFCARD_RETURN_NOT_OK(ValidateWorkload(test, cols));
  return SingleTableHarness(table, std::move(train), std::move(calib),
                            std::move(test), options);
}

const std::vector<double>& SingleTableHarness::Estimates(
    const CardinalityEstimator& model, const Workload& workload) const {
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
    content_hash = HashWorkload(workload);
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
  std::vector<Query> queries(workload.size());
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

std::vector<std::vector<float>> SingleTableHarness::Features(
    const Workload& workload) const {
  std::vector<std::vector<float>> out(workload.size());
  ParallelFor(workload.size(), 0, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      out[i] = featurizer_->Featurize(workload[i].query);
    }
  });
  return out;
}

std::vector<double> SingleTableHarness::Truths(
    const Workload& workload) const {
  std::vector<double> out;
  out.reserve(workload.size());
  for (const LabeledQuery& lq : workload) out.push_back(lq.cardinality);
  return out;
}

MethodResult SingleTableHarness::MakeResult(
    const CardinalityEstimator& model, const std::string& method) const {
  MethodResult r;
  r.model = model.name();
  r.method = method;
  r.alpha = options_.alpha;
  return r;
}

MethodResult SingleTableHarness::RunScp(
    const CardinalityEstimator& model) const {
  MethodResult result = MakeResult(model, "s-cp");
  obs::TraceSpan span("harness.s-cp");
  SplitConformal scp(scoring_, options_.alpha);
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
      Interval iv = clip.Clip(scp.Predict(test_est[i]), num_rows_);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

MethodResult SingleTableHarness::RunScpGuarded(
    const GuardedEstimator& guard) const {
  MethodResult result = MakeResult(guard, "s-cp");
  obs::TraceSpan span("harness.s-cp");
  SplitConformal scp(scoring_, options_.alpha);

  // Guarded estimates carry per-query degradation flags, so they bypass
  // the plain Estimates() cache. The chunking matches Estimates() so the
  // primary sees identical batches (bit-identity with RunScp when no
  // faults are armed).
  auto guarded_estimates = [&](const Workload& wl) {
    std::vector<Query> queries(wl.size());
    for (size_t i = 0; i < wl.size(); ++i) queries[i] = wl[i].query;
    std::vector<GuardedEstimate> out(wl.size());
    // One ordering window per sweep, allocated at this serial point:
    // guard records staged by concurrent chunks merge into the event log
    // keyed by query index, so the log order is identical at any thread
    // count.
    const uint64_t sweep = obs::EventLog::Instance().NextOrderWindow();
    ParallelFor(wl.size(), 0, [&](size_t begin, size_t end) {
      guard.EstimateBatchGuarded(queries.data() + begin, end - begin,
                                 out.data() + begin,
                                 obs::EventLog::OrderKey(sweep, begin));
    });
    return out;
  };

  std::vector<GuardedEstimate> calib_g, test_g;
  {
    PrepTimer prep(&result);
    calib_g = guarded_estimates(calib_);
    // Calibrate on healthy answers only: a fallback's residuals say
    // nothing about the primary's error distribution, and folding them
    // in would distort delta for every healthy query.
    std::vector<double> est, truth;
    est.reserve(calib_.size());
    truth.reserve(calib_.size());
    for (size_t i = 0; i < calib_.size(); ++i) {
      if (calib_g[i].degraded) continue;
      est.push_back(calib_g[i].value);
      truth.push_back(calib_[i].cardinality);
    }
    CONFCARD_CHECK_MSG(!est.empty(),
                       "guarded s-cp: no healthy calibration answers");
    CONFCARD_CHECK(scp.Calibrate(est, truth).ok());
  }

  test_g = guarded_estimates(test_);
  const double inflated_delta = scp.delta() * options_.degraded_inflation;
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      const double est = test_g[i].value;
      Interval iv = test_g[i].degraded
                        ? scoring_->Invert(est, inflated_delta)
                        : scp.Predict(est);
      iv = clip.Clip(iv, num_rows_);
      result.rows.push_back({test_[i].cardinality, est, iv.lo, iv.hi,
                             clock.NowUs() - t0, test_g[i].degraded});
    }
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

MethodResult SingleTableHarness::RunLwScp(
    const CardinalityEstimator& model, DifficultySource source,
    const SupervisedEstimator* prototype) const {
  MethodResult result = MakeResult(model, "lw-s-cp");
  std::vector<double> train_est = Estimates(model, train_);
  std::vector<double> calib_est = Estimates(model, calib_);
  std::vector<double> test_est = Estimates(model, test_);
  const std::vector<double> calib_truth = Truths(calib_);

  if (source == DifficultySource::kGbdtMad) {
    CONFCARD_CHECK_MSG(!train_.empty(),
                       "lw-s-cp(gbdt) needs a training split");
    obs::TraceSpan span("harness.lw-s-cp");
    LocallyWeightedConformal::Options opts;
    opts.alpha = options_.alpha;
    opts.gbdt = options_.gbdt;
    LocallyWeightedConformal lw(opts);
    {
      PrepTimer prep(&result);
      CONFCARD_CHECK(
          lw.FitDifficulty(Features(train_), train_est, Truths(train_))
              .ok());
      CONFCARD_CHECK(lw.Calibrate(Features(calib_), calib_est, calib_truth)
                         .ok());
    }

    std::vector<std::vector<float>> test_feat = Features(test_);
    ClipCounter clip(result.method);
    {
      InferTimer infer(&result, test_.size());
      EventClock clock;
      for (size_t i = 0; i < test_.size(); ++i) {
        const double t0 = clock.NowUs();
        Interval iv =
            clip.Clip(lw.Predict(test_est[i], test_feat[i]), num_rows_);
        result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                               iv.hi, clock.NowUs() - t0});
      }
    }
    FinalizeMethodResult(&result, num_rows_);
    return result;
  }

  // Ensemble / perturbation difficulty: U per query, computed here.
  result.method = source == DifficultySource::kEnsemble
                      ? "lw-s-cp(ens)"
                      : "lw-s-cp(pert)";
  obs::TraceSpan span("harness." + result.method);
  auto prep = std::make_unique<PrepTimer>(&result);
  std::vector<double> u_calib(calib_.size()), u_test(test_.size());
  if (source == DifficultySource::kEnsemble) {
    CONFCARD_CHECK_MSG(prototype != nullptr,
                       "ensemble difficulty needs a prototype");
    // Clones are created serially (instance ids stay deterministic) and
    // trained concurrently; each member's weights depend only on its own
    // seed, so the ensemble is identical at any thread count.
    std::vector<std::unique_ptr<SupervisedEstimator>> ensemble;
    ensemble.reserve(static_cast<size_t>(options_.ensemble_size));
    for (int m = 0; m < options_.ensemble_size; ++m) {
      ensemble.push_back(
          prototype->CloneArchitecture(1000 + static_cast<uint64_t>(m)));
    }
    ParallelFor(ensemble.size(), 1, [&](size_t begin, size_t end) {
      for (size_t m = begin; m < end; ++m) {
        CONFCARD_CHECK(ensemble[m]->Train(*table_, train_).ok());
      }
    });
    // A serial run leaves the last member's training telemetry in the
    // registry; restore that state after the concurrent phase.
    ensemble.back()->RepublishTrainingTelemetry();
    auto difficulty = [&](const Workload& wl, std::vector<double>* out) {
      ParallelFor(wl.size(), 0, [&](size_t begin, size_t end) {
        std::vector<double> preds;
        for (size_t i = begin; i < end; ++i) {
          preds.clear();
          preds.reserve(ensemble.size());
          for (const auto& m : ensemble) {
            preds.push_back(m->EstimateCardinality(wl[i].query));
          }
          (*out)[i] = std::max(1.0, StdDev(preds));
        }
      });
    };
    difficulty(calib_, &u_calib);
    difficulty(test_, &u_test);
  } else {
    // Perturbation: jitter each predicate's bounds by up to 2% of the
    // column span and measure the estimate's sensitivity. One Rng stream
    // is shared sequentially across queries, so this path must stay
    // serial: fanning it out would reorder the draws and change outputs.
    Rng rng(options_.seed ^ 0x9E37ull);
    auto perturb = [&](const Query& q, Rng& r) {
      Query out = q;
      for (Predicate& p : out.predicates) {
        const Column& col = table_->column(static_cast<size_t>(p.column));
        double span =
            std::max(col.max_value() - col.min_value(), 1.0) * 0.02;
        if (p.op == PredOp::kEq && col.is_categorical()) continue;
        double d1 = r.NextDouble(-span, span);
        double d2 = r.NextDouble(-span, span);
        p.lo = std::min(p.lo + d1, p.hi + d2);
        p.hi = std::max(p.lo, p.hi + d2);
      }
      return out;
    };
    auto difficulty = [&](const Workload& wl, std::vector<double>* out) {
      for (size_t i = 0; i < wl.size(); ++i) {
        std::vector<double> preds;
        preds.reserve(static_cast<size_t>(options_.perturbations));
        for (int k = 0; k < options_.perturbations; ++k) {
          preds.push_back(
              model.EstimateCardinality(perturb(wl[i].query, rng)));
        }
        (*out)[i] = std::max(1.0, StdDev(preds));
      }
    };
    difficulty(calib_, &u_calib);
    difficulty(test_, &u_test);
  }

  std::vector<double> scaled(calib_.size());
  for (size_t i = 0; i < calib_.size(); ++i) {
    scaled[i] = std::fabs(calib_truth[i] - calib_est[i]) / u_calib[i];
  }
  const double delta = ConformalQuantile(std::move(scaled), options_.alpha);
  prep.reset();

  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      const double half = delta * u_test[i];
      Interval iv =
          clip.Clip({test_est[i] - half, test_est[i] + half}, num_rows_);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

MethodResult SingleTableHarness::RunCqr(
    const SupervisedEstimator& prototype) const {
  MethodResult result;
  result.model = prototype.name();
  result.method = "cqr";
  result.alpha = options_.alpha;
  obs::TraceSpan span("harness.cqr");

  ConformalizedQuantileRegression cqr(options_.alpha);
  std::unique_ptr<SupervisedEstimator> lo_model, hi_model;
  {
    PrepTimer prep(&result);
    lo_model = prototype.CloneArchitecture(2101);
    lo_model->SetLoss(LossSpec::Pinball(cqr.lower_tau()));
    hi_model = prototype.CloneArchitecture(2203);
    hi_model->SetLoss(LossSpec::Pinball(cqr.upper_tau()));
    // The two quantile heads train concurrently; a serial run trains the
    // upper head last, so its telemetry is republished after the join.
    SupervisedEstimator* heads[2] = {lo_model.get(), hi_model.get()};
    ParallelFor(2, 1, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        CONFCARD_CHECK(heads[i]->Train(*table_, train_).ok());
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
          clip.Clip(cqr.Predict(lo_test[i], hi_test[i]), num_rows_);
      const double center = 0.5 * (lo_test[i] + hi_test[i]);
      result.rows.push_back({test_[i].cardinality, center, iv.lo, iv.hi,
                             clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

MethodResult SingleTableHarness::RunJkCv(
    const SupervisedEstimator& prototype,
    const CardinalityEstimator& full_model, bool simplified) const {
  MethodResult result = MakeResult(full_model, simplified ? "jk-cv+(s)"
                                                          : "jk-cv+");
  // JK-CV+ consumes the whole labeled dataset; no separate calibration
  // split is needed (Algorithm 1).
  Workload all = train_;
  all.insert(all.end(), calib_.begin(), calib_.end());
  const int k = options_.jk_folds;
  obs::TraceSpan span("harness." + result.method);

  std::vector<std::unique_ptr<SupervisedEstimator>> fold_models;
  JackknifeCvPlus jk(scoring_, options_.alpha,
                     simplified ? JackknifeCvPlus::Mode::kSimplified
                                : JackknifeCvPlus::Mode::kFull);
  {
    PrepTimer prep(&result);
    std::vector<int> fold_of = AssignFolds(all.size(), k, options_.seed);
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
        Workload fold_train;
        fold_train.reserve(all.size());
        for (size_t i = 0; i < all.size(); ++i) {
          if (fold_of[i] != static_cast<int>(f)) fold_train.push_back(all[i]);
        }
        CONFCARD_CHECK(fold_models[f]->Train(*table_, fold_train).ok());
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
        Interval iv = clip.Clip(jk.Predict(fold_est, full_est[i]), num_rows_);
        result.rows[i] = {test_[i].cardinality, full_est[i], iv.lo, iv.hi,
                          clock.NowUs() - t0};
      }
    });
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

MethodResult SingleTableHarness::RunJkCvFixedModel(
    const CardinalityEstimator& model) const {
  MethodResult result = MakeResult(model, "jk-cv+");
  Workload all = train_;
  all.insert(all.end(), calib_.begin(), calib_.end());
  const int k = options_.jk_folds;
  obs::TraceSpan span("harness.jk-cv+");

  JackknifeCvPlus jk(scoring_, options_.alpha);
  {
    PrepTimer prep(&result);
    std::vector<int> fold_of = AssignFolds(all.size(), k, options_.seed);
    // Compose the out-of-fold estimates from the per-split caches (the
    // fold models all coincide with `model`).
    std::vector<double> oof = Estimates(model, train_);
    const std::vector<double>& calib_est = Estimates(model, calib_);
    oof.insert(oof.end(), calib_est.begin(), calib_est.end());
    std::vector<double> truths = Truths(all);
    CONFCARD_CHECK(jk.Calibrate(oof, truths, fold_of, k).ok());
  }

  std::vector<double> test_est = Estimates(model, test_);
  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      // All fold models coincide with the full model.
      std::vector<double> fold_est(static_cast<size_t>(k), test_est[i]);
      Interval iv = clip.Clip(jk.Predict(fold_est, test_est[i]), num_rows_);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, num_rows_);
  return result;
}

}  // namespace confcard
