// The paper's four PI methods over one workload kind: the per-(model,
// split) estimate cache, split conformal (S-CP), locally weighted S-CP
// with the GBDT difficulty model, CQR and JK-CV+. The methods consume
// only estimates and truths, which is the paper's point about
// multi-table transparency (Figures 3-4), so SingleTableHarness and
// JoinHarness derive from this one template. Each passes in what
// differs between the two workload kinds as a WorkloadKind; nothing
// here branches on which harness is calling. The member bodies live in
// pi_harness.cc, explicitly instantiated for both kinds.
#ifndef CONFCARD_HARNESS_PI_HARNESS_H_
#define CONFCARD_HARNESS_PI_HARNESS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/check.h"
#include "conformal/scoring.h"
#include "gbdt/gbdt.h"
#include "harness/evaluation.h"

namespace confcard {

/// `Data` is what models train on (Table or Database), `Model` the
/// estimator the runners wrap, `Trainable` the retrainable estimator
/// CQR and JK-CV+ clone, and `Labeled` one labeled query of a split.
template <typename Data, typename Model, typename Trainable,
          typename Labeled>
class PiHarness {
 public:
  using Split = std::vector<Labeled>;
  using QueryType = decltype(Labeled::query);

  /// Split conformal prediction over the calibration split.
  MethodResult RunScp(const Model& model) const;

  /// Locally weighted S-CP; the GBDT difficulty model is fit on the
  /// training split's absolute residuals over flat query features.
  MethodResult RunLwScp(const Model& model) const;

  /// CQR: trains two pinball-loss clones of `prototype` on the training
  /// split and conformalizes their band on the calibration split.
  MethodResult RunCqr(const Trainable& prototype) const;

  /// JK+ with K-fold CV: retrains `prototype` on each fold complement of
  /// the union train+calib (the method needs no separate calibration
  /// split). `full_model` supplies the name and (in simplified mode) the
  /// center estimate.
  MethodResult RunJkCv(const Trainable& prototype, const Model& full_model,
                       bool simplified = false) const;

  const Split& train() const { return train_; }
  const Split& calib() const { return calib_; }
  const Split& test() const { return test_; }

  /// Model estimates over a workload, cached per (model, workload) pair
  /// so running several PI methods over the same trained model pays the
  /// inference cost once (Naru inference dominates otherwise; JK-CV+
  /// runs join inference K+2 times).
  const std::vector<double>& Estimates(const Model& model,
                                       const Split& workload) const;

 protected:
  /// What differs between the workload kinds.
  struct WorkloadKind {
    /// Upper bound every interval is clipped to (the lower one is 0):
    /// N for a single table, +infinity for joins.
    double clip_bound;
    /// Width normalizer: N, or the largest fact-side row count in the
    /// test split.
    double normalizer;
    /// Prefix of the runners' span names: "harness." or "harness.join.".
    std::string span_prefix;
    /// Flat features of one query for the LW-S-CP difficulty model.
    std::function<std::vector<float>(const Model&, const QueryType&)>
        flat_features;
    /// Content hash of a workload the harness does not own.
    uint64_t (*hash)(const Split&);
  };

  /// `options` is either harness's Options (alpha, score, jk_folds,
  /// gbdt and seed are read). The splits are taken by reference, so a
  /// derived constructor may compute `kind` from a split it moves in
  /// the same call.
  template <typename Options>
  PiHarness(const Data& data, Split&& train, Split&& calib, Split&& test,
            const Options& options, WorkloadKind kind)
      : data_(&data),
        train_(std::move(train)),
        calib_(std::move(calib)),
        test_(std::move(test)),
        alpha_(options.alpha),
        jk_folds_(options.jk_folds),
        seed_(options.seed),
        gbdt_(options.gbdt),
        scoring_(MakeScoring(options.score)),
        kind_(std::move(kind)) {
    CONFCARD_CHECK(!calib_.empty());
    CONFCARD_CHECK(!test_.empty());
  }

  MethodResult MakeResult(const std::string& model,
                          const std::string& method) const;
  std::vector<double> Truths(const Split& workload) const;
  std::vector<std::vector<float>> Features(const Model& model,
                                           const Split& workload) const;

  const Data* data_;
  Split train_, calib_, test_;
  double alpha_;
  int jk_folds_;
  uint64_t seed_;
  gbdt::GbdtConfig gbdt_;
  std::shared_ptr<const ScoringFunction> scoring_;
  WorkloadKind kind_;

 private:
  // Estimate cache keyed by (model instance id, workload slot, content
  // hash). The instance id (not the model address) guards against
  // stack/heap slots being reused by a successor model. The slot
  // identifies the harness-owned splits (train/calib/test) by member —
  // not by address, which a temporary or reused buffer could alias — and
  // any other workload falls back to a content hash, so equal-content
  // calls share an entry and a recycled address can never serve stale
  // estimates.
  mutable std::map<std::tuple<uint64_t, int, uint64_t>, std::vector<double>>
      estimate_cache_;
};

}  // namespace confcard

#endif  // CONFCARD_HARNESS_PI_HARNESS_H_
