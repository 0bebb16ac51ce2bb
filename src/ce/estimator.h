// Estimator interfaces. The conformal layer treats estimators as black
// boxes (the paper's "no changes to the underlying model" desideratum);
// the narrower interfaces below expose exactly the two hooks the paper's
// methods need beyond prediction: retraining on a sub-workload (JK-CV+)
// and swapping the training loss for a pinball loss (CQR).
#ifndef CONFCARD_CE_ESTIMATOR_H_
#define CONFCARD_CE_ESTIMATOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

/// Black-box single-table cardinality estimator.
class CardinalityEstimator {
 public:
  CardinalityEstimator() : instance_id_(NextInstanceId()) {}
  virtual ~CardinalityEstimator() = default;

  virtual std::string name() const = 0;

  /// Estimated COUNT(*) for each of `n` queries, in tuples (>= 0),
  /// written to out[0..n). The one estimation path: learned models
  /// amortize their forwards across the batch (one GEMM instead of n
  /// GEMVs, shared progressive-sampling steps), and every query's value
  /// must not depend on which queries share its batch — any partition
  /// of a workload equals batches of one, bit for bit (determinism_test
  /// and the golden values in inference_batch_test enforce this).
  virtual void EstimateBatch(const Query* queries, size_t n,
                             double* out) const = 0;

  /// Estimated COUNT(*) for `query`: a batch of one.
  double EstimateCardinality(const Query& query) const {
    double out = 0.0;
    EstimateBatch(&query, 1, &out);
    return out;
  }

  /// Process-unique id of this estimator instance. Used by caches in
  /// place of the object address, which can be reused after destruction
  /// (e.g., models re-created in a loop at the same stack slot).
  uint64_t instance_id() const { return instance_id_; }

 private:
  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> counter{1};
    return counter.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t instance_id_;
};

/// Training loss selector for supervised estimators. kDefault is the
/// model's published loss (mean q-error for MSCN, MSE for LW-NN);
/// kPinball turns the model into a tau-quantile regressor — the loss
/// modification CQR requires (Section III-F).
struct LossSpec {
  enum Kind { kDefault, kPinball } kind = kDefault;
  double tau = 0.5;

  static LossSpec Default() { return {kDefault, 0.5}; }
  static LossSpec Pinball(double tau) { return {kPinball, tau}; }
};

/// A query-driven estimator trained on a labeled workload. Exposes the
/// retraining hooks used by Jackknife+ (fold retraining on sub-
/// workloads) and CQR (quantile-loss twins).
class SupervisedEstimator : public CardinalityEstimator {
 public:
  /// Trains on (a subset of) the labeled workload. `table` supplies the
  /// statistics featurizers need (domains, histograms, sample bitmaps).
  virtual Status Train(const Table& table, const Workload& workload) = 0;

  /// Fresh untrained copy with identical architecture/hyper-parameters
  /// but an independent seed (`seed_offset` decorrelates ensemble
  /// members and fold models).
  virtual std::unique_ptr<SupervisedEstimator> CloneArchitecture(
      uint64_t seed_offset) const = 0;

  /// Selects the training loss for subsequent Train calls.
  virtual void SetLoss(const LossSpec& loss) = 0;

  /// Re-publishes the last-write-wins telemetry this model's Train
  /// emitted (loss gauges, config meta). When the harness trains
  /// several fold/ensemble models concurrently, the registry's final
  /// state would otherwise depend on scheduling; calling this on the
  /// model that a serial run would have trained last restores the
  /// serial outcome. Default: no-op.
  virtual void RepublishTrainingTelemetry() const {}
};

/// A data-driven estimator trained directly on the table (no workload).
class DataDrivenEstimator : public CardinalityEstimator {
 public:
  virtual Status Train(const Table& table) = 0;
};

}  // namespace confcard

#endif  // CONFCARD_CE_ESTIMATOR_H_
