#include "ce/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace confcard {

ColumnHistogram::ColumnHistogram(const Column& column, int num_buckets,
                                 int64_t max_exact_domain) {
  CONFCARD_CHECK(num_buckets >= 1);
  num_rows_ = column.size();
  if (column.is_categorical() && column.domain_size() <= max_exact_domain) {
    exact_ = true;
    freq_.assign(static_cast<size_t>(column.domain_size()), 0.0);
    for (double v : column.data()) {
      freq_[static_cast<size_t>(v)] += 1.0;
    }
    return;
  }

  std::vector<double> sorted = column.data();
  std::sort(sorted.begin(), sorted.end());
  if (sorted.empty()) {
    bounds_ = {0.0, 0.0};
    counts_ = {0.0};
    distinct_ = {1.0};
    return;
  }
  // Equi-depth boundaries with duplicate collapse.
  std::vector<size_t> cut_idx;  // start index of each bucket
  cut_idx.push_back(0);
  for (int b = 1; b < num_buckets; ++b) {
    size_t idx = static_cast<size_t>(static_cast<double>(b) / num_buckets *
                                     static_cast<double>(sorted.size()));
    if (idx >= sorted.size()) idx = sorted.size() - 1;
    // Advance to a boundary value change so buckets have distinct bounds.
    double v = sorted[idx];
    if (v > sorted[cut_idx.back()]) cut_idx.push_back(idx);
  }
  for (size_t b = 0; b < cut_idx.size(); ++b) {
    size_t begin = cut_idx[b];
    size_t end = b + 1 < cut_idx.size() ? cut_idx[b + 1] : sorted.size();
    bounds_.push_back(sorted[begin]);
    counts_.push_back(static_cast<double>(end - begin));
    double d = 1.0;
    for (size_t i = begin + 1; i < end; ++i) {
      if (sorted[i] != sorted[i - 1]) d += 1.0;
    }
    distinct_.push_back(d);
  }
  bounds_.push_back(sorted.back());
}

double ColumnHistogram::EstimateEquality(double v) const {
  if (num_rows_ == 0) return 0.0;
  if (exact_) {
    int64_t code = static_cast<int64_t>(v);
    if (code < 0 || static_cast<size_t>(code) >= freq_.size()) return 0.0;
    return freq_[static_cast<size_t>(code)] /
           static_cast<double>(num_rows_);
  }
  // Bucket containing v; assume uniform spread over its distinct values.
  if (bounds_.size() < 2 || v < bounds_.front() || v > bounds_.back()) {
    return 0.0;
  }
  size_t b = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end() - 1, v) -
      bounds_.begin());
  if (b > 0) --b;
  return counts_[b] / std::max(distinct_[b], 1.0) /
         static_cast<double>(num_rows_);
}

double ColumnHistogram::EstimateSelectivity(double lo, double hi) const {
  if (num_rows_ == 0 || hi < lo) return 0.0;
  if (exact_) {
    int64_t from = std::max<int64_t>(0, static_cast<int64_t>(std::ceil(lo)));
    int64_t to = std::min<int64_t>(static_cast<int64_t>(freq_.size()) - 1,
                                   static_cast<int64_t>(std::floor(hi)));
    double total = 0.0;
    for (int64_t c = from; c <= to; ++c) {
      total += freq_[static_cast<size_t>(c)];
    }
    return total / static_cast<double>(num_rows_);
  }
  if (bounds_.size() < 2) return 0.0;
  const double cmin = bounds_.front(), cmax = bounds_.back();
  if (hi < cmin || lo > cmax) return 0.0;

  double total = 0.0;
  const size_t nb = counts_.size();
  for (size_t b = 0; b < nb; ++b) {
    double blo = bounds_[b];
    double bhi = bounds_[b + 1];
    if (bhi < lo || blo > hi) continue;
    double width = bhi - blo;
    double overlap;
    if (width <= 0.0) {
      overlap = 1.0;  // single-value bucket fully covered
    } else {
      overlap = (std::min(hi, bhi) - std::max(lo, blo)) / width;
      overlap = std::clamp(overlap, 0.0, 1.0);
    }
    total += counts_[b] * overlap;
  }
  return std::min(1.0, total / static_cast<double>(num_rows_));
}

HistogramEstimator::HistogramEstimator(const Table& table, int num_buckets)
    : num_rows_(static_cast<double>(table.num_rows())) {
  histograms_.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    histograms_.emplace_back(table.column(c), num_buckets);
  }
}

double HistogramEstimator::PredicateSelectivity(const Predicate& pred) const {
  CONFCARD_DCHECK(pred.column >= 0 &&
                  static_cast<size_t>(pred.column) < histograms_.size());
  const ColumnHistogram& h = histograms_[static_cast<size_t>(pred.column)];
  if (pred.op == PredOp::kEq) return h.EstimateEquality(pred.lo);
  return h.EstimateSelectivity(pred.lo, pred.hi);
}

void HistogramEstimator::EstimateBatch(const Query* queries, size_t n,
                                       double* out) const {
  for (size_t i = 0; i < n; ++i) {
    double sel = 1.0;
    for (const Predicate& p : queries[i].predicates) {
      sel *= PredicateSelectivity(p);
    }
    out[i] = sel * num_rows_;
  }
}

}  // namespace confcard
