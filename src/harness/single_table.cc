#include "harness/single_table.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>

#include "ce/featurizer.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "conformal/jackknife.h"
#include "conformal/split.h"
#include "conformal/validate.h"
#include "obs/event_log.h"
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
    : PiHarness(
          table, std::move(train), std::move(calib), std::move(test),
          options,
          {.clip_bound = static_cast<double>(table.num_rows()),
           .normalizer = static_cast<double>(table.num_rows()),
           .span_prefix = "harness.",
           .flat_features =
               [featurizer = std::make_shared<FlatQueryFeaturizer>(table)](
                   const CardinalityEstimator&, const Query& query) {
                 return featurizer->Featurize(query);
               },
           .hash = &HashWorkload}),
      options_(options) {}

Result<SingleTableHarness> SingleTableHarness::Make(const Table& table,
                                                    Workload train,
                                                    Workload calib,
                                                    Workload test,
                                                    Options options) {
  CONFCARD_RETURN_NOT_OK(ValidateAlpha(options.alpha));
  CONFCARD_RETURN_NOT_OK(ValidateFolds(options.jk_folds));
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

MethodResult SingleTableHarness::RunScpGuarded(
    const GuardedEstimator& guard) const {
  MethodResult result = MakeResult(guard.name(), "s-cp");
  obs::TraceSpan span(kind_.span_prefix + result.method);
  SplitConformal scp(scoring_, alpha_);

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
  const double inflated_delta = scp.delta() * kDegradedInflation;
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
      iv = clip.Clip(iv, kind_.clip_bound);
      result.rows.push_back({test_[i].cardinality, est, iv.lo, iv.hi,
                             clock.NowUs() - t0, test_g[i].degraded});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

MethodResult SingleTableHarness::RunLwScp(
    const CardinalityEstimator& model, DifficultySource source,
    const SupervisedEstimator* prototype) const {
  if (source == DifficultySource::kGbdtMad) return PiHarness::RunLwScp(model);

  // Ensemble / perturbation difficulty: U per query, computed here.
  MethodResult result = MakeResult(
      model.name(), source == DifficultySource::kEnsemble ? "lw-s-cp(ens)"
                                                          : "lw-s-cp(pert)");
  std::vector<double> calib_est = Estimates(model, calib_);
  std::vector<double> test_est = Estimates(model, test_);
  const std::vector<double> calib_truth = Truths(calib_);
  obs::TraceSpan span(kind_.span_prefix + result.method);
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
        CONFCARD_CHECK(ensemble[m]->Train(*data_, train_).ok());
      }
    });
    // A serial run leaves the last member's training telemetry in the
    // registry; restore that state after the concurrent phase.
    ensemble.back()->RepublishTrainingTelemetry();
    // Queries fan out in chunks; each member estimates a chunk in one
    // batch.
    auto difficulty = [&](const Workload& wl, std::vector<double>* out) {
      std::vector<Query> queries;
      queries.reserve(wl.size());
      for (const LabeledQuery& lq : wl) queries.push_back(lq.query);
      ParallelFor(wl.size(), 0, [&](size_t begin, size_t end) {
        std::vector<std::vector<double>> est(
            ensemble.size(), std::vector<double>(end - begin));
        for (size_t m = 0; m < ensemble.size(); ++m) {
          ensemble[m]->EstimateBatch(queries.data() + begin, end - begin,
                                     est[m].data());
        }
        std::vector<double> preds(ensemble.size());
        for (size_t i = begin; i < end; ++i) {
          for (size_t m = 0; m < ensemble.size(); ++m) {
            preds[m] = est[m][i - begin];
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
    // is shared sequentially across queries, so the perturbed queries
    // are drawn serially, in query-then-perturbation order; batches of
    // them are then estimated in parallel chunks.
    Rng rng(seed_ ^ 0x9E37ull);
    auto perturb = [&](const Query& q, Rng& r) {
      Query out = q;
      for (Predicate& p : out.predicates) {
        const Column& col = data_->column(static_cast<size_t>(p.column));
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
      const size_t per = static_cast<size_t>(options_.perturbations);
      std::vector<Query> perturbed;
      perturbed.reserve(wl.size() * per);
      for (const LabeledQuery& lq : wl) {
        for (size_t k = 0; k < per; ++k) {
          perturbed.push_back(perturb(lq.query, rng));
        }
      }
      std::vector<double> est(perturbed.size());
      ParallelFor(perturbed.size(), 0, [&](size_t begin, size_t end) {
        model.EstimateBatch(perturbed.data() + begin, end - begin,
                            est.data() + begin);
      });
      for (size_t i = 0; i < wl.size(); ++i) {
        const std::vector<double> preds(est.begin() + i * per,
                                        est.begin() + (i + 1) * per);
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
  const double delta = ConformalQuantile(std::move(scaled), alpha_);
  prep.reset();

  ClipCounter clip(result.method);
  {
    InferTimer infer(&result, test_.size());
    EventClock clock;
    for (size_t i = 0; i < test_.size(); ++i) {
      const double t0 = clock.NowUs();
      const double half = delta * u_test[i];
      Interval iv = clip.Clip({test_est[i] - half, test_est[i] + half},
                              kind_.clip_bound);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

MethodResult SingleTableHarness::RunJkCvFixedModel(
    const CardinalityEstimator& model) const {
  MethodResult result = MakeResult(model.name(), "jk-cv+");
  Workload all = train_;
  all.insert(all.end(), calib_.begin(), calib_.end());
  const int k = jk_folds_;
  obs::TraceSpan span(kind_.span_prefix + result.method);

  JackknifeCvPlus jk(scoring_, alpha_);
  {
    PrepTimer prep(&result);
    std::vector<int> fold_of = AssignFolds(all.size(), k, seed_);
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
      Interval iv =
          clip.Clip(jk.Predict(fold_est, test_est[i]), kind_.clip_bound);
      result.rows.push_back({test_[i].cardinality, test_est[i], iv.lo,
                             iv.hi, clock.NowUs() - t0});
    }
  }
  FinalizeMethodResult(&result, kind_.normalizer);
  return result;
}

}  // namespace confcard
