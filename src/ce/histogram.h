// One-dimensional statistics (exact frequency tables for categorical
// columns, equi-depth histograms for numeric ones) and the classic
// attribute-value-independence (AVI) estimator built on them. These are
// the "traditional" baseline and the statistics substrate for LW-NN's
// heuristic features and the Postgres-like optimizer estimator.
#ifndef CONFCARD_CE_HISTOGRAM_H_
#define CONFCARD_CE_HISTOGRAM_H_

#include <memory>
#include <vector>

#include "ce/estimator.h"
#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

/// Selectivity statistics for one column.
class ColumnHistogram {
 public:
  /// Builds from column contents. Categorical columns with domains up to
  /// `max_exact_domain` store exact per-code frequencies (equivalent to
  /// a complete MCV list); everything else gets `num_buckets` equi-depth
  /// buckets with uniform intra-bucket interpolation.
  ColumnHistogram(const Column& column, int num_buckets = 64,
                  int64_t max_exact_domain = 4096);

  /// Estimated fraction of rows with value in [lo, hi].
  double EstimateSelectivity(double lo, double hi) const;

  /// Estimated fraction of rows with value == v.
  double EstimateEquality(double v) const;

  bool exact() const { return exact_; }

 private:
  bool exact_ = false;
  size_t num_rows_ = 0;
  // Exact mode: frequency per categorical code.
  std::vector<double> freq_;
  // Bucket mode: ascending boundaries; bucket i spans
  // [bounds_[i], bounds_[i+1]) (last bucket closed) and holds counts_[i]
  // rows with distinct_[i] distinct values.
  std::vector<double> bounds_;
  std::vector<double> counts_;
  std::vector<double> distinct_;
};

/// Per-table histograms plus the AVI combination rule: the selectivity
/// of a conjunction is the product of per-predicate selectivities.
class HistogramEstimator : public CardinalityEstimator {
 public:
  explicit HistogramEstimator(const Table& table, int num_buckets = 64);

  std::string name() const override { return "histogram-avi"; }
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  /// Per-predicate selectivity estimate in [0, 1].
  double PredicateSelectivity(const Predicate& pred) const;

  const ColumnHistogram& column(size_t i) const { return histograms_[i]; }

 private:
  std::vector<ColumnHistogram> histograms_;
  double num_rows_;
};

}  // namespace confcard

#endif  // CONFCARD_CE_HISTOGRAM_H_
