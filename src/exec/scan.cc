#include "exec/scan.h"

#include <bit>

#include "common/check.h"

namespace confcard {
namespace {

constexpr size_t kWordRows = 64;

// Bit j is set when cell j of v[0, n) satisfies `p`: Predicate::Matches,
// so a NaN cell never does. n <= kWordRows. The two tests are combined
// with `&`, not `&&`, so the loop has no branch and GCC vectorizes it.
uint64_t MatchBits(const double* v, size_t n, const Predicate& p) {
  const double lo = p.lo, hi = p.hi;
  uint64_t bits = 0;
  for (size_t j = 0; j < n; ++j) {
    bits |= static_cast<uint64_t>((v[j] >= lo) & (v[j] <= hi)) << j;
  }
  return bits;
}

// One bit per row of `table`, set when the row satisfies every
// predicate of `query`. Each predicate ANDs its match bits into the
// running words; a word that is already zero is not scanned again.
std::vector<uint64_t> MatchWords(const Table& table, const Query& query) {
  const size_t rows = table.num_rows();
  const size_t full = rows / kWordRows, tail = rows % kWordRows;
  std::vector<uint64_t> words(full + (tail != 0), ~uint64_t{0});
  if (tail != 0) words.back() = (uint64_t{1} << tail) - 1;
  for (const Predicate& p : query.predicates) {
    CONFCARD_DCHECK(p.column >= 0 &&
                    static_cast<size_t>(p.column) < table.num_columns());
    const double* data =
        table.column(static_cast<size_t>(p.column)).data().data();
    for (size_t w = 0; w < full; ++w) {
      if (words[w] != 0) {
        words[w] &= MatchBits(data + w * kWordRows, kWordRows, p);
      }
    }
    if (tail != 0) words[full] &= MatchBits(data + full * kWordRows, tail, p);
  }
  return words;
}

uint64_t PopCount(const std::vector<uint64_t>& words) {
  uint64_t count = 0;
  for (uint64_t w : words) count += static_cast<uint64_t>(std::popcount(w));
  return count;
}

}  // namespace

uint64_t CountMatches(const Table& table, const Query& query) {
  return PopCount(MatchWords(table, query));
}

std::vector<uint32_t> FilterIndices(const Table& table, const Query& query) {
  const std::vector<uint64_t> words = MatchWords(table, query);
  std::vector<uint32_t> out;
  out.reserve(PopCount(words));
  for (size_t w = 0; w < words.size(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      out.push_back(
          static_cast<uint32_t>(w * kWordRows + std::countr_zero(bits)));
    }
  }
  return out;
}

}  // namespace confcard
