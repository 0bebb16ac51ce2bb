// The multi-set convolutional network (Kipf et al.) re-implemented on
// the confcard nn substrate: one shared MLP per input set (tables,
// joins, predicates), mean-pooling per set, and a final MLP over the
// concatenated pooled vectors. Regression target is log(card + 1).
#ifndef CONFCARD_CE_MSCN_MODEL_H_
#define CONFCARD_CE_MSCN_MODEL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "ce/estimator.h"
#include "ce/featurizer.h"
#include "common/archive.h"
#include "nn/mlp.h"

namespace confcard {

/// MSCN hyper-parameters.
struct MscnConfig {
  size_t set_hidden = 64;    // per-set module width (hidden and output)
  size_t final_hidden = 64;  // final MLP hidden width
  int epochs = 30;
  size_t batch_size = 64;
  double lr = 1e-3;
  LossSpec loss = LossSpec::Default();
  uint64_t seed = 1234;
};

/// An inference batch already packed for the model: one dense tensor
/// per set kind, rows grouped per query, with offsets[b]..offsets[b+1]
/// delimiting query b's rows (offsets have batch_size + 1 entries; an
/// all-empty set kind has offsets.back() == 0 and its tensor is
/// ignored). Row values must equal the corresponding MscnInput vectors;
/// the estimators fill them straight from the featurizer's *RowInto
/// writers, skipping the per-query heap vectors and the repack copy.
struct MscnPackedBatch {
  size_t batch_size = 0;
  nn::Tensor tables, joins, predicates;
  std::vector<size_t> table_offsets, join_offsets, pred_offsets;
};

/// The network itself, independent of featurization. Train / predict in
/// log(card + 1) space.
class MscnModel {
 public:
  MscnModel(size_t table_dim, size_t join_dim, size_t pred_dim,
            const MscnConfig& config);

  /// Minibatch training with Adam. `log_targets[i]` = log(card_i + 1).
  Status Train(const std::vector<MscnInput>& inputs,
               const std::vector<double>& log_targets);

  /// One forward for the whole pre-packed batch, writing
  /// log-cardinalities to out[0..batch.batch_size). Each sample's set
  /// elements occupy their own rows of the packed tensors and pooling is
  /// per-sample, so every prediction is independent of the rest of the
  /// batch. Touches no training scratch, so a trained model can serve
  /// many threads concurrently.
  void PredictLogCardPacked(const MscnPackedBatch& batch, double* out) const;

  /// PredictLogCardPacked over one unpacked input.
  double PredictLogCard(const MscnInput& input) const;

  /// Mean loss of the final training epoch (0 before Train). Lets the
  /// harness republish the nn.mscn.last_loss gauge deterministically
  /// after parallel fold training.
  double last_loss() const { return last_loss_; }

  const MscnConfig& config() const { return config_; }

  /// Appends all learnable parameters to `writer` (shape-prefixed).
  void SerializeParams(ArchiveWriter* writer);
  /// Restores parameters written by SerializeParams into a model of the
  /// same architecture; fails on any shape mismatch.
  Status DeserializeParams(ArchiveReader* reader);

 private:
  /// Batched forward over `batch`; returns (batch_size, 1) predictions.
  nn::Tensor Forward(const std::vector<const MscnInput*>& batch);
  /// Inference-only forward over pre-packed set tensors: same numbers as
  /// Forward, no cached scratch.
  nn::Tensor ApplyPacked(const MscnPackedBatch& batch) const;
  /// Backprop of dLoss/dPred through the whole network.
  void Backward(const nn::Tensor& grad_pred);
  /// The parameters Adam updates when training on `inputs`: every
  /// module's, in table, join, predicate, output order, except a set
  /// module no input has a row in.
  std::vector<nn::Parameter*> TrainedParameters(
      const std::vector<MscnInput>& inputs);

  MscnConfig config_;
  size_t table_dim_, join_dim_, pred_dim_;
  std::unique_ptr<nn::Mlp> table_mlp_;
  std::unique_ptr<nn::Mlp> join_mlp_;
  std::unique_ptr<nn::Mlp> pred_mlp_;
  std::unique_ptr<nn::Mlp> out_mlp_;

  // Forward scratch reused by Backward.
  struct SetScratch {
    std::vector<size_t> offsets;  // per-sample element offset (size B+1)
    bool any = false;
  };
  SetScratch table_scratch_, join_scratch_, pred_scratch_;
  size_t batch_size_ = 0;
  double last_loss_ = 0.0;
};

}  // namespace confcard

#endif  // CONFCARD_CE_MSCN_MODEL_H_
