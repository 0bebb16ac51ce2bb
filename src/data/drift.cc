#include "data/drift.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "common/check.h"

namespace confcard {
namespace drift {
namespace {

// splitmix64 finalizer (same mixing family as the fault registry):
// full-avalanche hashing of row indices and stream positions, so every
// selection decision is a pure function of its inputs.
uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool IsRowKind(DriftKind kind) {
  return kind == DriftKind::kAppend || kind == DriftKind::kUpdate ||
         kind == DriftKind::kDelete;
}

// Column-major cell matrix of `table` (copy; drift transforms mutate it).
std::vector<std::vector<double>> CellsOf(const Table& table) {
  std::vector<std::vector<double>> cells(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    cells[c] = table.column(c).data();
  }
  return cells;
}

Table TableFromCells(const TableSpec& spec, std::string name,
                     std::vector<std::vector<double>> cells) {
  std::vector<Column> columns;
  columns.reserve(cells.size());
  for (size_t c = 0; c < cells.size(); ++c) {
    const ColumnSpec& cs = spec.columns[c];
    if (cs.kind == ColumnKind::kCategorical) {
      columns.push_back(
          Column::Categorical(cs.name, cs.domain_size, std::move(cells[c])));
    } else {
      columns.push_back(Column::Numeric(cs.name, std::move(cells[c])));
    }
  }
  return Table::Make(std::move(name), std::move(columns)).value();
}

// The deterministically selected row set for an update/delete arm:
// row i is selected iff Unit(Mix(i ^ salt)) < magnitude. Hash-based (not
// prefix-based) so selected rows are spread across the table.
bool RowSelected(size_t row, uint64_t salt, double magnitude) {
  return ToUnit(Mix(static_cast<uint64_t>(row) ^ salt)) < magnitude;
}

size_t RowsFor(double magnitude, size_t num_rows) {
  return static_cast<size_t>(
      std::llround(magnitude * static_cast<double>(num_rows)));
}

// The shifted workload template a template arm mixes in: literals drawn
// uniformly from the domain (many empty / low-cardinality queries, the
// Figure 11 shift), flipped range probability, one extra predicate.
WorkloadConfig ShiftedWorkloadConfig(const WorkloadConfig& base) {
  WorkloadConfig wc = base;
  wc.center_mode = CenterMode::kUniform;
  wc.range_prob = 1.0 - base.range_prob;
  wc.max_predicates = base.max_predicates + 1;
  return wc;
}

// Draws the next query from `pool`, wrapping when the selectivity filter
// left the pool short (determinism is preserved: the cursor sequence is
// a pure function of the stream mix).
const LabeledQuery& NextFrom(const Workload& pool, size_t* cursor) {
  CONFCARD_CHECK_MSG(!pool.empty(), "drift: empty workload pool");
  const LabeledQuery& q = pool[*cursor % pool.size()];
  ++*cursor;
  return q;
}

}  // namespace

const char* DriftKindToString(DriftKind kind) {
  switch (kind) {
    case DriftKind::kAppend:
      return "append";
    case DriftKind::kUpdate:
      return "update";
    case DriftKind::kDelete:
      return "delete";
    case DriftKind::kZipf:
      return "zipf";
    case DriftKind::kCorrelation:
      return "corr";
    case DriftKind::kTemplate:
      return "template";
  }
  return "update";
}

Result<std::vector<DriftSpec>> ParseDriftSpecs(std::string_view text) {
  std::vector<DriftSpec> specs;
  size_t pos = 0;
  while (pos <= text.size()) {
    const size_t semi = text.find(';', pos);
    std::string_view entry = Trim(
        text.substr(pos, semi == std::string_view::npos ? semi : semi - pos));
    pos = semi == std::string_view::npos ? text.size() + 1 : semi + 1;
    if (entry.empty()) continue;

    const size_t colon = entry.find(':');
    const size_t at = entry.rfind('@');
    if (colon == std::string_view::npos || at == std::string_view::npos ||
        at < colon) {
      return Status::InvalidArgument(
          "drift spec '" + std::string(entry) +
          "' is not of the form kind:magnitude@onset");
    }
    DriftSpec spec;
    const std::string_view kind = Trim(entry.substr(0, colon));
    if (kind == "append") {
      spec.kind = DriftKind::kAppend;
    } else if (kind == "update") {
      spec.kind = DriftKind::kUpdate;
    } else if (kind == "delete") {
      spec.kind = DriftKind::kDelete;
    } else if (kind == "zipf") {
      spec.kind = DriftKind::kZipf;
    } else if (kind == "corr") {
      spec.kind = DriftKind::kCorrelation;
    } else if (kind == "template") {
      spec.kind = DriftKind::kTemplate;
    } else {
      return Status::InvalidArgument(
          "drift kind '" + std::string(kind) +
          "' is not append|update|delete|zipf|corr|template");
    }
    const std::string mag_str(Trim(entry.substr(colon + 1, at - colon - 1)));
    char* end = nullptr;
    spec.magnitude = std::strtod(mag_str.c_str(), &end);
    if (mag_str.empty() || end != mag_str.c_str() + mag_str.size() ||
        !std::isfinite(spec.magnitude) || spec.magnitude < 0.0 ||
        spec.magnitude > 1.0) {
      return Status::InvalidArgument("drift magnitude '" + mag_str +
                                     "' is not a number in [0, 1]");
    }
    const std::string onset_str(Trim(entry.substr(at + 1)));
    spec.onset = std::strtod(onset_str.c_str(), &end);
    if (onset_str.empty() || end != onset_str.c_str() + onset_str.size() ||
        !std::isfinite(spec.onset) || spec.onset < 0.0 || spec.onset >= 1.0) {
      return Status::InvalidArgument("drift onset '" + onset_str +
                                     "' is not a number in [0, 1)");
    }
    specs.push_back(spec);
  }
  return specs;
}

std::vector<DriftSpec> DriftSpecsFromEnv() {
  const char* raw = std::getenv("CONFCARD_DRIFT");
  if (raw == nullptr || raw[0] == '\0') return {};
  Result<std::vector<DriftSpec>> parsed = ParseDriftSpecs(raw);
  if (!parsed.ok()) {
    std::fprintf(stderr, "CONFCARD_DRIFT ignored: %s\n",
                 parsed.status().ToString().c_str());
    return {};
  }
  return std::move(parsed).value();
}

std::string RenderDriftSpecs(const std::vector<DriftSpec>& specs) {
  std::string out;
  char buf[64];
  for (const DriftSpec& spec : specs) {
    if (!out.empty()) out += ';';
    std::snprintf(buf, sizeof(buf), "%s:%g@%g", DriftKindToString(spec.kind),
                  spec.magnitude, spec.onset);
    out += buf;
  }
  return out;
}

TableSpec ShiftedTableSpec(const TableSpec& base,
                           const std::vector<DriftSpec>& specs) {
  TableSpec shifted = base;
  for (const DriftSpec& spec : specs) {
    if (spec.kind == DriftKind::kZipf) {
      for (ColumnSpec& c : shifted.columns) {
        if (c.kind == ColumnKind::kCategorical) {
          c.zipf_skew += spec.magnitude * kZipfSkewSpan;
        }
      }
    } else if (spec.kind == DriftKind::kCorrelation) {
      for (ColumnSpec& c : shifted.columns) {
        if (c.parent >= 0) {
          // Move toward the opposite extreme: magnitude 1 flips a
          // functionally determined column to independent and vice versa.
          c.correlation += spec.magnitude * (1.0 - 2.0 * c.correlation);
          c.correlation = std::clamp(c.correlation, 0.0, 1.0);
        }
      }
    }
  }
  return shifted;
}

Result<DriftStream> GenerateDriftStream(const TableSpec& base,
                                        const DriftStreamOptions& options,
                                        const std::vector<DriftSpec>& specs) {
  if (options.num_queries == 0) {
    return Status::InvalidArgument("drift stream needs num_queries > 0");
  }
  for (const DriftSpec& spec : specs) {
    if (!(spec.magnitude >= 0.0 && spec.magnitude <= 1.0)) {
      return Status::InvalidArgument("drift magnitude out of [0, 1]");
    }
    if (!(spec.onset >= 0.0 && spec.onset < 1.0)) {
      return Status::InvalidArgument("drift onset out of [0, 1)");
    }
  }

  CONFCARD_ASSIGN_OR_RETURN(Table pre, GenerateTable(base));
  const size_t n = options.num_queries;

  // Arm bookkeeping: data arms share the earliest data onset; the
  // template mix uses its own onset and magnitude (multiple template
  // arms compose by probability saturation).
  double data_onset = 1.0;
  double template_onset = 1.0;
  double template_magnitude = 0.0;
  bool any_data = false;
  bool any_rows = false;
  double append_m = 0.0, update_m = 0.0, delete_m = 0.0;
  for (const DriftSpec& spec : specs) {
    if (spec.kind == DriftKind::kTemplate) {
      template_onset = std::min(template_onset, spec.onset);
      template_magnitude =
          1.0 - (1.0 - template_magnitude) * (1.0 - spec.magnitude);
      continue;
    }
    if (spec.magnitude <= 0.0) continue;
    any_data = true;
    data_onset = std::min(data_onset, spec.onset);
    if (IsRowKind(spec.kind)) any_rows = true;
    if (spec.kind == DriftKind::kAppend) append_m += spec.magnitude;
    if (spec.kind == DriftKind::kUpdate) update_m += spec.magnitude;
    if (spec.kind == DriftKind::kDelete) delete_m += spec.magnitude;
  }
  const bool any_template = template_magnitude > 0.0;

  // ---- Post-drift data state ----
  const TableSpec shifted = ShiftedTableSpec(base, specs);
  Table post = [&]() -> Table {
    if (!any_data) {
      // Pure workload shift: the data never changes.
      return TableFromCells(base, base.name, CellsOf(pre));
    }
    if (!any_rows) {
      // Distribution drift with no row churn: the whole table is
      // redrawn from the shifted spec (same seed, so the structural
      // change is exactly the shifted marginals/correlations).
      return GenerateTable(shifted).value();
    }
    std::vector<std::vector<double>> cells = CellsOf(pre);
    const size_t rows = pre.num_rows();
    const uint64_t salt_update = Mix(options.seed ^ 0x75706461ull);
    const uint64_t salt_delete = Mix(options.seed ^ 0x64656c65ull);
    // Update: rewrite the selected rows with fresh draws from the
    // shifted spec (an auxiliary generated table supplies rows with the
    // right marginals and correlation structure).
    if (update_m > 0.0) {
      TableSpec aux_spec = shifted;
      aux_spec.num_rows = rows;
      aux_spec.seed = Mix(base.seed ^ options.seed ^ 0x11ull);
      const Table aux = GenerateTable(aux_spec).value();
      for (size_t r = 0; r < rows; ++r) {
        if (!RowSelected(r, salt_update, std::min(update_m, 1.0))) continue;
        for (size_t c = 0; c < cells.size(); ++c) cells[c][r] = aux.At(r, c);
      }
    }
    // Delete: drop the selected rows.
    if (delete_m > 0.0) {
      const double m = std::min(delete_m, 1.0);
      size_t w = 0;
      for (size_t r = 0; r < rows; ++r) {
        if (RowSelected(r, salt_delete, m)) continue;
        for (size_t c = 0; c < cells.size(); ++c) cells[c][w] = cells[c][r];
        ++w;
      }
      for (size_t c = 0; c < cells.size(); ++c) cells[c].resize(w);
    }
    // Append: fresh rows from the shifted spec.
    if (append_m > 0.0) {
      TableSpec aux_spec = shifted;
      aux_spec.num_rows = RowsFor(std::min(append_m, 1.0), rows);
      aux_spec.seed = Mix(base.seed ^ options.seed ^ 0x22ull);
      if (aux_spec.num_rows > 0) {
        const Table aux = GenerateTable(aux_spec).value();
        for (size_t c = 0; c < cells.size(); ++c) {
          const std::vector<double>& src = aux.column(c).data();
          cells[c].insert(cells[c].end(), src.begin(), src.end());
        }
      }
    }
    CONFCARD_CHECK_MSG(!cells.empty() && !cells[0].empty(),
                       "drift: every row was deleted");
    return TableFromCells(base, base.name, std::move(cells));
  }();

  // ---- Arrival-ordered stream ----
  const size_t data_idx = any_data ? static_cast<size_t>(std::llround(
                                         data_onset * static_cast<double>(n)))
                                   : n;
  const size_t tmpl_idx =
      any_template ? static_cast<size_t>(
                         std::llround(template_onset * static_cast<double>(n)))
                   : n;

  WorkloadConfig base_wc = options.workload;
  base_wc.num_queries = n;
  const WorkloadConfig shift_wc = ShiftedWorkloadConfig(base_wc);

  // One pool per (table state, template) combination actually reachable.
  // Seeds are derived from the stream seed so pools never alias.
  const auto pool = [&](const Table& table, const WorkloadConfig& wc,
                        uint64_t salt) {
    WorkloadConfig c = wc;
    c.seed = Mix(options.seed ^ salt);
    return GenerateWorkload(table, c);
  };
  CONFCARD_ASSIGN_OR_RETURN(Workload pre_base, pool(pre, base_wc, 0xA1ull));
  Workload post_base, pre_shift, post_shift;
  if (data_idx < n) {
    CONFCARD_ASSIGN_OR_RETURN(post_base, pool(post, base_wc, 0xA2ull));
  }
  if (any_template) {
    if (tmpl_idx < data_idx) {
      CONFCARD_ASSIGN_OR_RETURN(pre_shift, pool(pre, shift_wc, 0xA3ull));
    }
    if (data_idx < n) {
      CONFCARD_ASSIGN_OR_RETURN(post_shift, pool(post, shift_wc, 0xA4ull));
    }
  }

  const uint64_t salt_template = Mix(options.seed ^ 0x746d706cull);
  DriftStream out{std::move(pre), std::move(post),
                  std::min(data_idx, any_template ? tmpl_idx : n), data_idx,
                  Workload{}};
  out.stream.reserve(n);
  size_t cursors[4] = {0, 0, 0, 0};  // pre/post x base/shift
  for (size_t i = 0; i < n; ++i) {
    const bool post_state = i >= data_idx;
    const bool shifted_template =
        any_template && i >= tmpl_idx &&
        ToUnit(Mix(static_cast<uint64_t>(i) ^ salt_template)) <
            template_magnitude;
    const Workload& src = post_state
                              ? (shifted_template ? post_shift : post_base)
                              : (shifted_template ? pre_shift : pre_base);
    size_t& cursor =
        cursors[(post_state ? 2 : 0) + (shifted_template ? 1 : 0)];
    out.stream.push_back(NextFrom(src, &cursor));
  }
  return out;
}

}  // namespace drift
}  // namespace confcard
