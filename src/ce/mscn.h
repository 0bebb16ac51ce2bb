// MSCN estimators: the supervised query-driven model of the paper's
// evaluation, for single-table and join workloads.
#ifndef CONFCARD_CE_MSCN_H_
#define CONFCARD_CE_MSCN_H_

#include <memory>

#include "ce/estimator.h"
#include "ce/featurizer.h"
#include "ce/mscn_model.h"
#include "ce/sampling.h"
#include "query/join_query.h"

namespace confcard {

/// Single-table MSCN with materialized-sample bitmaps.
class MscnEstimator : public SupervisedEstimator {
 public:
  struct Options {
    MscnConfig model;
    /// Materialized sample size for bitmap features (0 disables bitmaps).
    size_t bitmap_size = 64;
  };

  MscnEstimator();
  explicit MscnEstimator(Options options);

  std::string name() const override { return "mscn"; }
  /// Featurizes all queries and runs one packed MscnModel forward (a
  /// GEMM over the batch instead of n GEMVs).
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  Status Train(const Table& table, const Workload& workload) override;
  std::unique_ptr<SupervisedEstimator> CloneArchitecture(
      uint64_t seed_offset) const override;
  void SetLoss(const LossSpec& loss) override { options_.model.loss = loss; }
  void RepublishTrainingTelemetry() const override;

  /// Persists the trained estimator (options + network weights) to
  /// `path`. The featurizer and sample bitmaps are deterministic
  /// functions of (table, seed), so they are rebuilt at load time
  /// rather than stored.
  Status SaveToFile(const std::string& path) const;
  /// Restores an estimator saved with SaveToFile against the SAME table
  /// (shape and content): featurization dims are validated.
  static Result<MscnEstimator> LoadFromFile(const Table& table,
                                            const std::string& path);

 private:
  void PublishTrainMeta() const;

  Options options_;
  double num_rows_ = 0.0;
  std::unique_ptr<SamplingEstimator> sampler_;
  std::unique_ptr<MscnFeaturizer> featurizer_;
  std::unique_ptr<MscnModel> model_;
};

/// MSCN over SPJ join queries (Figures 3-4). Not a CardinalityEstimator
/// — join queries have their own type — but exposes the same train /
/// clone / loss hooks so the conformal layer can wrap it identically.
class MscnJoinEstimator {
 public:
  explicit MscnJoinEstimator(MscnConfig config = {});

  std::string name() const { return "mscn-join"; }

  /// Process-unique instance id (see CardinalityEstimator::instance_id).
  uint64_t instance_id() const { return instance_id_; }

  Status Train(const Database& db, const JoinWorkload& workload);
  /// One packed forward over the batch. Mirrors
  /// CardinalityEstimator::EstimateBatch for the join-query type.
  void EstimateBatch(const JoinQuery* queries, size_t n, double* out) const;
  /// A batch of one.
  double EstimateCardinality(const JoinQuery& query) const {
    double out = 0.0;
    EstimateBatch(&query, 1, &out);
    return out;
  }

  std::unique_ptr<MscnJoinEstimator> CloneArchitecture(
      uint64_t seed_offset) const;
  void SetLoss(const LossSpec& loss) { config_.loss = loss; }

  /// Same contract as SupervisedEstimator::RepublishTrainingTelemetry.
  void RepublishTrainingTelemetry() const;

  /// Flat features for the difficulty model U(X) on join workloads.
  std::vector<float> FlatFeatures(const JoinQuery& query) const;

 private:
  static uint64_t NextInstanceId();

  MscnConfig config_;
  uint64_t instance_id_ = NextInstanceId();
  std::unique_ptr<MscnJoinFeaturizer> featurizer_;
  std::unique_ptr<MscnModel> model_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_MSCN_H_
