// Naru (Yang et al.): deep unsupervised cardinality estimation. A
// MADE-style masked autoregressive network factorizes the joint
// distribution of the (discretized) table as
// P(A1) P(A2|A1) ... P(Am|A1..Am-1); range/point queries are answered by
// progressive sampling over the learned conditionals (the Monte-Carlo
// integration of the original paper).
#ifndef CONFCARD_CE_NARU_H_
#define CONFCARD_CE_NARU_H_

#include <memory>
#include <vector>

#include "ce/binner.h"
#include "ce/estimator.h"
#include "nn/mlp.h"

namespace confcard {

/// Naru hyper-parameters.
struct NaruConfig {
  size_t hidden = 64;
  int hidden_layers = 2;
  int epochs = 8;
  size_t batch_size = 128;
  double lr = 2e-3;
  /// Max equi-depth bins per numeric column (categorical columns keep
  /// their exact domains).
  int numeric_bins = 32;
  /// Rows used for training (uniformly subsampled when the table is
  /// larger).
  size_t max_train_rows = 60000;
  /// Progressive-sampling paths per query at inference.
  size_t num_samples = 32;
  uint64_t seed = 97;
};

/// Naru's MADE network over one-hot column blocks of `block_widths`: an
/// nn::Mlp of `hidden_layers` ReLU layers of `hidden` units and a linear
/// output layer with one logit per input unit. Every unit has a degree:
/// column c's input units and logits c + 1, each hidden unit one drawn
/// uniformly from 1..C-1 for C columns (1 when C == 1). A weight into a
/// hidden unit is kept when that unit's degree is >= its source's; a
/// weight into a logit when the logit's degree is > its source's. So
/// column c's logits see only the inputs of columns < c.
///
/// Draws from `rng` layer by layer: the layer's hidden degrees, then its
/// He init. Each weight is multiplied by its mask once; `masks`
/// receives the masks, one (in, out) tensor per layer, 1.0f where the
/// weight is kept and 0.0f where it is cut.
nn::Mlp BuildMade(const std::vector<size_t>& block_widths, size_t hidden,
                  int hidden_layers, Rng& rng,
                  std::vector<nn::Tensor>* masks);

/// The MADE's training step after each backward: writes +0.0f into
/// every masked weight-gradient entry, so the optimizer never moves a
/// masked weight. `params` is the network's Parameters() (each layer's
/// weight, then its bias) and `masks` BuildMade's.
void ZeroMaskedGradients(const std::vector<nn::Tensor>& masks,
                         const std::vector<nn::Parameter*>& params);

/// The Naru estimator.
class NaruEstimator : public DataDrivenEstimator {
 public:
  explicit NaruEstimator(NaruConfig config = {});

  std::string name() const override { return "naru"; }
  Status Train(const Table& table) override;
  /// Progressive sampling, one query at a time. Each query starts its
  /// own sampler stream, so its value does not depend on its batch.
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  /// Estimated selectivity in [0, 1]: the sampler's mean path
  /// probability (EstimateCardinality is this times N).
  double EstimateSelectivity(const Query& query) const;

  const NaruConfig& config() const { return config_; }

  /// Persists the trained model (config + MADE weights). Binner
  /// statistics and masks are deterministic functions of (table,
  /// config), so they are rebuilt at load time.
  Status SaveToFile(const std::string& path) const;
  /// Restores a model saved with SaveToFile against the SAME table.
  static Result<NaruEstimator> LoadFromFile(const Table& table,
                                            const std::string& path);

 private:
  /// A query lowered to per-column bin ranges, ready for sampling.
  struct PreparedQuery {
    std::vector<std::pair<int, int>> ranges;  // inclusive bin range per col
    int last_constrained = -1;                // -1: no predicates
    bool empty_range = false;                 // some column's range is empty
  };

  /// Builds the MADE network for the current binner and returns its
  /// masks (BuildMade).
  std::vector<nn::Tensor> BuildNetwork(Rng& rng);
  /// Intersects the query's predicates into per-column bin ranges.
  PreparedQuery Prepare(const Query& query) const;
  /// Progressive sampling of one query with a constraint: its
  /// num_samples paths are the rows of a dense one-hot batch. Per column
  /// step up to the last constrained one, the hidden layers run on every
  /// path and the output layer computes only the current column's
  /// logits; each live path then draws a bin inside the query's range.
  /// Returns the mean path probability.
  double ProgressiveSample(const PreparedQuery& query) const;
  /// The query's selectivity: 1 without predicates, 0 for an empty
  /// range, else ProgressiveSample.
  double Selectivity(const PreparedQuery& query) const;

  NaruConfig config_;
  double num_rows_ = 0.0;
  std::unique_ptr<TableBinner> binner_;
  std::vector<size_t> block_offsets_;  // per-column logit block offsets
  // Inference goes through the cache-free ApplyCols path, so const
  // methods (and concurrent per-query evaluation) never touch training
  // scratch.
  std::unique_ptr<nn::Mlp> net_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_NARU_H_
