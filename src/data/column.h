// Columnar storage primitives. Physical representation is uniform
// (double per cell) so that scans, models and featurizers share one code
// path; logical kind (categorical vs numeric) drives predicate
// generation, featurization and discretization. Categorical cells hold
// integer codes in [0, domain_size).
#ifndef CONFCARD_DATA_COLUMN_H_
#define CONFCARD_DATA_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace confcard {

/// Logical column kind.
enum class ColumnKind {
  kCategorical,  // integer codes in [0, domain_size)
  kNumeric,      // arbitrary doubles
};

const char* ColumnKindToString(ColumnKind kind);

/// One column of a table. Owns its cell data and lazily computed
/// statistics (min/max/distinct count) used by estimators and binners.
class Column {
 public:
  /// Categorical column. Codes must lie in [0, domain_size).
  static Column Categorical(std::string name, int64_t domain_size,
                            std::vector<double> codes);
  /// Numeric column.
  static Column Numeric(std::string name, std::vector<double> values);

  const std::string& name() const { return name_; }
  ColumnKind kind() const { return kind_; }
  bool is_categorical() const { return kind_ == ColumnKind::kCategorical; }

  size_t size() const { return data_.size(); }
  double operator[](size_t row) const { return data_[row]; }
  const std::vector<double>& data() const { return data_; }

  /// Domain size for categorical columns; 0 for numeric.
  int64_t domain_size() const { return domain_size_; }

  /// Minimum / maximum cell value (0 for empty columns). NaN cells are
  /// left out of these statistics and of DistinctValues.
  double min_value() const { return min_; }
  double max_value() const { return max_; }
  /// Number of distinct values.
  int64_t distinct_count() const { return distinct_; }

  /// Sorted distinct values present in the column.
  std::vector<double> DistinctValues() const;

 private:
  Column(std::string name, ColumnKind kind, int64_t domain_size,
         std::vector<double> data);
  void ComputeStats();

  std::string name_;
  ColumnKind kind_;
  int64_t domain_size_ = 0;
  std::vector<double> data_;
  double min_ = 0.0;
  double max_ = 0.0;
  int64_t distinct_ = 0;
};

}  // namespace confcard

#endif  // CONFCARD_DATA_COLUMN_H_
