#include "ce/sampling.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace confcard {

SamplingEstimator::SamplingEstimator(const Table& table, size_t sample_size,
                                     uint64_t seed)
    : table_(&table) {
  CONFCARD_CHECK(table.num_rows() > 0);
  sample_size = std::min(sample_size, table.num_rows());
  CONFCARD_CHECK(sample_size > 0);
  // Partial Fisher-Yates over row ids.
  std::vector<uint32_t> ids(table.num_rows());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<uint32_t>(i);
  Rng rng(seed);
  for (size_t i = 0; i < sample_size; ++i) {
    size_t j = i + static_cast<size_t>(rng.NextUint64(ids.size() - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(sample_size);
  sample_rows_ = std::move(ids);
  scale_ = static_cast<double>(table.num_rows()) /
           static_cast<double>(sample_size);
}

std::vector<uint8_t> SamplingEstimator::SampleBitmap(
    const Query& query) const {
  std::vector<uint8_t> bitmap(sample_rows_.size(), 1);
  for (size_t i = 0; i < sample_rows_.size(); ++i) {
    for (const Predicate& p : query.predicates) {
      if (!p.Matches(table_->At(sample_rows_[i],
                                static_cast<size_t>(p.column)))) {
        bitmap[i] = 0;
        break;
      }
    }
  }
  return bitmap;
}

void SamplingEstimator::SampleBitmapFloatInto(const Query& query,
                                              float* dst) const {
  const size_t n = sample_rows_.size();
  for (size_t i = 0; i < n; ++i) dst[i] = 1.0f;
  // A row's bit is 0 iff any predicate rejects it, so the evaluation
  // order cannot change the result.
  for (const Predicate& p : query.predicates) {
    const size_t c = static_cast<size_t>(p.column);
    for (size_t i = 0; i < n; ++i) {
      if (dst[i] != 0.0f && !p.Matches(table_->At(sample_rows_[i], c))) {
        dst[i] = 0.0f;
      }
    }
  }
}

void SamplingEstimator::EstimateBatch(const Query* queries, size_t n,
                                      double* out) const {
  for (size_t i = 0; i < n; ++i) {
    const std::vector<uint8_t> bitmap = SampleBitmap(queries[i]);
    uint64_t hits = 0;
    for (uint8_t b : bitmap) hits += b;
    out[i] = static_cast<double>(hits) * scale_;
  }
}

double SamplingEstimator::ConfidenceHalfWidth(const Query& query) const {
  const std::vector<uint8_t> bitmap = SampleBitmap(query);
  uint64_t hits = 0;
  for (uint8_t b : bitmap) hits += b;
  const double n = static_cast<double>(bitmap.size());
  const double p = static_cast<double>(hits) / n;
  const double se = std::sqrt(std::max(p * (1.0 - p) / n, 0.0));
  // 1.96 * SE on the proportion, scaled back to tuples.
  return 1.96 * se * static_cast<double>(table_->num_rows());
}

}  // namespace confcard
