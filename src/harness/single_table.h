// Orchestration of one single-table experiment: a table, three labeled
// workload splits (train / calibration / test), and runners that wrap a
// trained estimator with each of the paper's four PI methods and
// evaluate coverage/width/timing on the test split. This is the code
// path every figure bench goes through.
#ifndef CONFCARD_HARNESS_SINGLE_TABLE_H_
#define CONFCARD_HARNESS_SINGLE_TABLE_H_

#include <cstdint>

#include "ce/estimator.h"
#include "ce/guarded.h"
#include "common/status.h"
#include "conformal/scoring.h"
#include "gbdt/gbdt.h"
#include "harness/evaluation.h"
#include "harness/pi_harness.h"

namespace confcard {

/// Difficulty-model choice for LW-S-CP (the U(X) ablation).
enum class DifficultySource {
  kGbdtMad,      // default: GBDT regression of |residual| (the paper's)
  kEnsemble,     // variance of an ensemble of retrained models
  kPerturbation  // variance under small predicate perturbations
};

/// Single-table experiment harness. RunScp, RunCqr, RunJkCv and the
/// estimate cache are the shared PiHarness runners; intervals are
/// clipped to [0, N] and widths normalized by N.
class SingleTableHarness
    : public PiHarness<Table, CardinalityEstimator, SupervisedEstimator,
                       LabeledQuery> {
 public:
  struct Options {
    double alpha = 0.1;
    ScoreKind score = ScoreKind::kResidual;
    int jk_folds = 10;
    /// Ensemble size for DifficultySource::kEnsemble.
    int ensemble_size = 3;
    /// Perturbations per query for DifficultySource::kPerturbation.
    int perturbations = 8;
    gbdt::GbdtConfig gbdt;
    uint64_t seed = 5;
  };

  SingleTableHarness(const Table& table, Workload train, Workload calib,
                     Workload test, Options options);

  /// Validating factory for user-supplied configs: checks alpha, fold
  /// count, non-empty calibration/test splits, and every workload query
  /// against the table schema, returning InvalidArgument instead of
  /// tripping the constructor's CHECKs. The table must outlive the
  /// harness.
  static Result<SingleTableHarness> Make(const Table& table, Workload train,
                                         Workload calib, Workload test,
                                         Options options);

  /// S-CP through a guarded estimator. Calibrates on healthy calibration
  /// answers only; test queries the guard degraded get an interval
  /// inverted at delta * kDegradedInflation and are flagged so
  /// FinalizeMethodResult aggregates them separately. With no faults
  /// armed this is row-for-row bit-identical to RunScp on the guard's
  /// primary (determinism_test enforces it).
  MethodResult RunScpGuarded(const GuardedEstimator& guard) const;

  /// Locally weighted S-CP; the difficulty model is fit on the training
  /// split's residuals (kGbdtMad, the shared PiHarness::RunLwScp) or
  /// derived from `prototype` retrains (kEnsemble) / query perturbations
  /// (kPerturbation). `prototype` may be null for kGbdtMad and
  /// kPerturbation.
  MethodResult RunLwScp(
      const CardinalityEstimator& model,
      DifficultySource source = DifficultySource::kGbdtMad,
      const SupervisedEstimator* prototype = nullptr) const;

  /// JK-CV+ for models with no trainable workload dependence (Naru):
  /// all folds share `model`; residuals still come from K-fold splits of
  /// train+calib, matching the paper's Naru setup.
  MethodResult RunJkCvFixedModel(const CardinalityEstimator& model) const;

  const Table& table() const { return *data_; }
  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace confcard

#endif  // CONFCARD_HARNESS_SINGLE_TABLE_H_
