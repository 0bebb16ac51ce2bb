// Join-workload counterpart of SingleTableHarness (Figures 3-4): wraps
// an MSCN join estimator with the four PI methods over a labeled SPJ
// workload. The PI algorithms are identical — they consume residuals —
// which is precisely the paper's point about multi-table transparency,
// so the runners are PiHarness's. Join cardinalities have no table-size
// cap: intervals are clipped at zero only, and widths are normalized by
// the largest fact-side table in the test split.
#ifndef CONFCARD_HARNESS_JOIN_HARNESS_H_
#define CONFCARD_HARNESS_JOIN_HARNESS_H_

#include <cstdint>

#include "ce/mscn.h"
#include "common/status.h"
#include "conformal/scoring.h"
#include "gbdt/gbdt.h"
#include "harness/evaluation.h"
#include "harness/pi_harness.h"

namespace confcard {

/// Join-experiment harness.
class JoinHarness : public PiHarness<Database, MscnJoinEstimator,
                                     MscnJoinEstimator, LabeledJoinQuery> {
 public:
  struct Options {
    double alpha = 0.1;
    ScoreKind score = ScoreKind::kResidual;
    int jk_folds = 10;
    gbdt::GbdtConfig gbdt;
    uint64_t seed = 6;
  };

  JoinHarness(const Database& db, JoinWorkload train, JoinWorkload calib,
              JoinWorkload test, Options options);

  /// Validating factory for user-supplied configs: checks alpha, fold
  /// count, and non-empty calibration/test splits, returning
  /// InvalidArgument instead of tripping the constructor's CHECKs.
  static Result<JoinHarness> Make(const Database& db, JoinWorkload train,
                                  JoinWorkload calib, JoinWorkload test,
                                  Options options);
};

}  // namespace confcard

#endif  // CONFCARD_HARNESS_JOIN_HARNESS_H_
