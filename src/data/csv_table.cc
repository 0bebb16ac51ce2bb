#include "data/csv_table.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <unordered_map>

#include "common/csv.h"

namespace confcard {
namespace {

bool ParsesAsNumber(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

}  // namespace

std::string LoadedTable::Decode(size_t col, int64_t code) const {
  if (col >= dictionaries.size()) return "";
  const auto& dict = dictionaries[col];
  if (code < 0 || static_cast<size_t>(code) >= dict.size()) return "";
  return dict[static_cast<size_t>(code)];
}

Result<LoadedTable> LoadTableFromCsv(const std::string& path,
                                     const std::string& name,
                                     const CsvLoadOptions& options) {
  std::vector<std::string> header;
  CONFCARD_ASSIGN_OR_RETURN(
      auto rows,
      ReadCsv(path, options.has_header,
              options.has_header ? &header : nullptr, options.delimiter));
  if (rows.empty()) {
    return Status::InvalidArgument("csv '" + path + "' has no data rows");
  }

  const size_t num_cols = rows.front().size();
  if (num_cols == 0) {
    return Status::InvalidArgument("csv '" + path + "' has no columns");
  }
  for (size_t r = 0; r < rows.size(); ++r) {
    if (rows[r].size() != num_cols) {
      return Status::InvalidArgument(
          "csv '" + path + "': row " + std::to_string(r) + " has " +
          std::to_string(rows[r].size()) + " fields, expected " +
          std::to_string(num_cols));
    }
  }
  if (options.has_header && header.size() != num_cols) {
    return Status::InvalidArgument("csv header/data column count mismatch");
  }

  std::vector<std::string> names(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    names[c] = options.has_header ? header[c]
                                  : std::string("c").append(std::to_string(c));
  }

  auto forced = [&](const std::string& col_name) {
    return std::find(options.force_categorical.begin(),
                     options.force_categorical.end(),
                     col_name) != options.force_categorical.end();
  };

  std::vector<Column> columns;
  std::vector<std::vector<std::string>> dictionaries(num_cols);
  for (size_t c = 0; c < num_cols; ++c) {
    // Numeric inference pass.
    bool numeric = !forced(names[c]);
    std::vector<double> values(rows.size());
    if (numeric) {
      for (size_t r = 0; r < rows.size(); ++r) {
        const std::string& cell = rows[r][c];
        if (cell.empty()) {
          values[r] = 0.0;
          continue;
        }
        if (!ParsesAsNumber(cell, &values[r])) {
          numeric = false;
          break;
        }
      }
    }
    if (numeric) {
      columns.push_back(Column::Numeric(names[c], std::move(values)));
      continue;
    }
    // Dictionary-encode.
    std::unordered_map<std::string, int64_t> dict;
    std::vector<std::string>& labels = dictionaries[c];
    for (size_t r = 0; r < rows.size(); ++r) {
      const std::string& cell = rows[r][c];
      auto [it, inserted] =
          dict.emplace(cell, static_cast<int64_t>(labels.size()));
      if (inserted) {
        labels.push_back(cell);
        if (labels.size() > options.max_categorical_domain) {
          return Status::InvalidArgument(
              "column '" + names[c] + "' exceeds max_categorical_domain (" +
              std::to_string(options.max_categorical_domain) +
              " distinct values)");
        }
      }
      values[r] = static_cast<double>(it->second);
    }
    columns.push_back(Column::Categorical(
        names[c], static_cast<int64_t>(labels.size()), std::move(values)));
  }

  CONFCARD_ASSIGN_OR_RETURN(Table table,
                            Table::Make(name, std::move(columns)));
  return LoadedTable{std::move(table), std::move(dictionaries)};
}

}  // namespace confcard
