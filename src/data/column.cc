#include "data/column.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace confcard {
namespace {

// The non-NaN cells of `data` in ascending order. A NaN matches no
// predicate, and it would break the strict weak ordering std::sort needs.
std::vector<double> SortedValues(const std::vector<double>& data) {
  std::vector<double> sorted;
  sorted.reserve(data.size());
  for (double v : data) {
    if (!std::isnan(v)) sorted.push_back(v);
  }
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

}  // namespace

const char* ColumnKindToString(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kCategorical:
      return "categorical";
    case ColumnKind::kNumeric:
      return "numeric";
  }
  return "unknown";
}

Column Column::Categorical(std::string name, int64_t domain_size,
                           std::vector<double> codes) {
  CONFCARD_CHECK(domain_size > 0);
#ifndef NDEBUG
  for (double c : codes) {
    CONFCARD_DCHECK(c >= 0.0 && c < static_cast<double>(domain_size));
    CONFCARD_DCHECK(c == static_cast<double>(static_cast<int64_t>(c)));
  }
#endif
  return Column(std::move(name), ColumnKind::kCategorical, domain_size,
                std::move(codes));
}

Column Column::Numeric(std::string name, std::vector<double> values) {
  return Column(std::move(name), ColumnKind::kNumeric, 0, std::move(values));
}

Column::Column(std::string name, ColumnKind kind, int64_t domain_size,
               std::vector<double> data)
    : name_(std::move(name)),
      kind_(kind),
      domain_size_(domain_size),
      data_(std::move(data)) {
  ComputeStats();
}

void Column::ComputeStats() {
  const std::vector<double> sorted = SortedValues(data_);
  if (sorted.empty()) {
    min_ = max_ = 0.0;
    distinct_ = 0;
    return;
  }
  min_ = sorted.front();
  max_ = sorted.back();
  distinct_ = 1;
  for (size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] != sorted[i - 1]) ++distinct_;
  }
}

std::vector<double> Column::DistinctValues() const {
  std::vector<double> sorted = SortedValues(data_);
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

}  // namespace confcard
