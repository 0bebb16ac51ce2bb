// Exact single-table evaluation of conjunctive predicates by columnar
// scan. This is the ground-truth oracle that labels training /
// calibration / test workloads and filters the base tables of a join.
//
// One path serves both calls: each predicate tests 64 consecutive cells
// of its column at a time, packs the results into one 64-bit word and
// ANDs it into the query's running words, one bit per row; words that
// are already zero are skipped. CountMatches popcounts the words and
// FilterIndices writes their set bits in ascending row order. Nothing is
// cached between calls.
#ifndef CONFCARD_EXEC_SCAN_H_
#define CONFCARD_EXEC_SCAN_H_

#include <cstdint>
#include <vector>

#include "data/table.h"
#include "query/predicate.h"

namespace confcard {

/// Exact COUNT(*) of `query` over `table`.
uint64_t CountMatches(const Table& table, const Query& query);

/// Row indices satisfying `query`, in ascending order.
std::vector<uint32_t> FilterIndices(const Table& table, const Query& query);

}  // namespace confcard

#endif  // CONFCARD_EXEC_SCAN_H_
