// LW-NN (Dutt et al.): a lightweight neural network over heuristic
// features — per-column range bounds plus log-domain selectivity
// estimates from 1-D histograms (AVI and minimum-selectivity) — trained
// with MSE on log cardinality. The least accurate of the three models in
// the paper's evaluation, and hence the one with the widest PIs.
#ifndef CONFCARD_CE_LWNN_H_
#define CONFCARD_CE_LWNN_H_

#include <memory>
#include <vector>

#include "ce/estimator.h"
#include "ce/featurizer.h"
#include "ce/histogram.h"
#include "nn/mlp.h"

namespace confcard {

/// LW-NN estimator.
class LwnnEstimator : public SupervisedEstimator {
 public:
  struct Options {
    size_t hidden1 = 64;
    size_t hidden2 = 32;
    int epochs = 60;
    size_t batch_size = 64;
    double lr = 1e-3;
    int histogram_buckets = 32;
    LossSpec loss = LossSpec::Default();
    uint64_t seed = 4321;
  };

  LwnnEstimator();
  explicit LwnnEstimator(Options options);

  std::string name() const override { return "lw-nn"; }
  /// Packs all featurized queries into one Tensor and runs a single
  /// fused forward (GEMM instead of n GEMVs).
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  Status Train(const Table& table, const Workload& workload) override;
  std::unique_ptr<SupervisedEstimator> CloneArchitecture(
      uint64_t seed_offset) const override;
  void SetLoss(const LossSpec& loss) override { options_.loss = loss; }
  void RepublishTrainingTelemetry() const override;

  /// The heuristic feature vector for a query (exposed for tests).
  std::vector<float> Features(const Query& query) const;
  /// Writes the same `flat_->dim() + 2` features straight into `dst`;
  /// the allocation-free path EstimateBatch packs tensor rows with.
  void FeaturesInto(const Query& query, float* dst) const;

  /// Persists the trained estimator (options + network weights);
  /// histogram statistics are rebuilt from the table at load time.
  Status SaveToFile(const std::string& path) const;
  /// Restores an estimator saved with SaveToFile against the SAME table.
  static Result<LwnnEstimator> LoadFromFile(const Table& table,
                                            const std::string& path);

 private:
  void PublishTrainMeta() const;

  Options options_;
  std::unique_ptr<FlatQueryFeaturizer> flat_;
  std::unique_ptr<HistogramEstimator> histogram_;
  double num_rows_ = 1.0;
  double last_loss_ = 0.0;
  std::unique_ptr<nn::Mlp> net_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_LWNN_H_
