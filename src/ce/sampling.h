// Uniform-sample estimator: the traditional baseline the paper contrasts
// with (sampling "provides some measure of uncertainty through variance")
// and the source of MSCN's per-query sample bitmaps.
#ifndef CONFCARD_CE_SAMPLING_H_
#define CONFCARD_CE_SAMPLING_H_

#include <cstdint>
#include <vector>

#include "ce/estimator.h"
#include "data/table.h"

namespace confcard {

/// Bernoulli-style uniform row sample with COUNT(*) scale-up.
class SamplingEstimator : public CardinalityEstimator {
 public:
  /// Draws `sample_size` rows (without replacement) from `table`.
  SamplingEstimator(const Table& table, size_t sample_size,
                    uint64_t seed = 31);

  std::string name() const override { return "sampling"; }
  void EstimateBatch(const Query* queries, size_t n,
                     double* out) const override;

  size_t sample_size() const { return sample_rows_.size(); }

  /// Bitmap over the sample: bit i set iff sampled row i matches the
  /// query. MSCN consumes this as a query feature.
  std::vector<uint8_t> SampleBitmap(const Query& query) const;

  /// SampleBitmap in the float form MSCN's table vector holds, written
  /// straight into dst[0..sample_size()) — same bits (0.0f / 1.0f per
  /// sampled row), no intermediate allocation, and predicate-outer
  /// traversal so each column array is scanned contiguously.
  void SampleBitmapFloatInto(const Query& query, float* dst) const;

  /// Closed-form ~95% confidence half-width for the estimate of `query`
  /// (binomial normal approximation) — the classic sampling bound the
  /// paper mentions traditional methods provide.
  double ConfidenceHalfWidth(const Query& query) const;

 private:
  const Table* table_;
  std::vector<uint32_t> sample_rows_;
  double scale_;  // num_rows / sample_size
};

}  // namespace confcard

#endif  // CONFCARD_CE_SAMPLING_H_
