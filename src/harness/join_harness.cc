#include "harness/join_harness.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <string>

#include "conformal/validate.h"

namespace confcard {
namespace {

// FNV-1a over the join-workload content (tables, join edges, scoped
// predicates, labels) — cache identity for workloads the harness does
// not own. Mirrors the single-table HashWorkload.
uint64_t HashWorkload(const JoinWorkload& workload) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  auto mix_str = [&h](const std::string& s) {
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
    h ^= 0xFFull;  // terminator so "ab","c" != "a","bc"
    h *= 0x100000001b3ull;
  };
  mix(workload.size());
  for (const LabeledJoinQuery& lq : workload) {
    mix(lq.query.tables.size());
    for (const std::string& t : lq.query.tables) mix_str(t);
    mix(lq.query.joins.size());
    for (const JoinEdge& e : lq.query.joins) {
      mix_str(e.left_table);
      mix_str(e.left_column);
      mix_str(e.right_table);
      mix_str(e.right_column);
    }
    mix(lq.query.predicates.size());
    for (const TablePredicate& tp : lq.query.predicates) {
      mix_str(tp.table);
      mix(static_cast<uint64_t>(static_cast<int64_t>(tp.pred.column)));
      mix(static_cast<uint64_t>(tp.pred.op));
      mix(std::bit_cast<uint64_t>(tp.pred.lo));
      mix(std::bit_cast<uint64_t>(tp.pred.hi));
    }
    mix(std::bit_cast<uint64_t>(lq.cardinality));
  }
  return h;
}

// Normalizer for interval widths: the largest fact-side table size in
// the test split.
double Normalizer(const JoinWorkload& test) {
  double max_card = 1.0;
  for (const LabeledJoinQuery& lq : test) {
    max_card = std::max(max_card, lq.num_rows);
  }
  return max_card;
}

}  // namespace

JoinHarness::JoinHarness(const Database& db, JoinWorkload train,
                         JoinWorkload calib, JoinWorkload test,
                         Options options)
    : PiHarness(
          db, std::move(train), std::move(calib), std::move(test), options,
          {.clip_bound = std::numeric_limits<double>::infinity(),
           .normalizer = Normalizer(test),
           .span_prefix = "harness.join.",
           .flat_features =
               [](const MscnJoinEstimator& model, const JoinQuery& query) {
                 return model.FlatFeatures(query);
               },
           .hash = &HashWorkload}) {}

Result<JoinHarness> JoinHarness::Make(const Database& db, JoinWorkload train,
                                      JoinWorkload calib, JoinWorkload test,
                                      Options options) {
  CONFCARD_RETURN_NOT_OK(ValidateAlpha(options.alpha));
  CONFCARD_RETURN_NOT_OK(ValidateFolds(options.jk_folds));
  if (calib.empty()) {
    return Status::InvalidArgument("calibration split is empty");
  }
  if (test.empty()) {
    return Status::InvalidArgument("test split is empty");
  }
  return JoinHarness(db, std::move(train), std::move(calib), std::move(test),
                     options);
}

}  // namespace confcard
