// Staged degradation ladder for serving under data drift. The detector
// watches one signal, the per-shard recalibrator's rolling prequential
// coverage (the share of fed-back truths inside the interval the shard
// would have served just before each update), and maps its dip below
// nominal onto an escalating response:
//
//   kHealthy      →  serve normally
//   kRecalibrate  →  shrink the calibration window to recent scores and
//                    reset the residual corrector (cheap, reversible)
//   kInflate      →  multiply interval widths (honest about uncertainty
//                    while the recalibrator catches up)
//
// kInflate is the top stage, as no measured stream goes further
// (docs/ROBUSTNESS.md): any dip past kInflateDip lands there, and every
// stage serves from the guard's primary.
// Escalation can jump stages (a deep dip goes straight to kInflate);
// de-escalation steps down one stage at a time, and only after
// kRecoveryHold consecutive healthy observations — a flapping ladder
// would churn the recalibrator and make replays unreadable. Update() is
// a pure function of the observation sequence, so a replayed stream
// walks the identical stage path (bench_drift gates this).
#ifndef CONFCARD_SERVE_DRIFT_DETECTOR_H_
#define CONFCARD_SERVE_DRIFT_DETECTOR_H_

#include <cstddef>

namespace confcard {
namespace serve {

/// Ladder stages, ordered by severity. The values are what artifacts
/// record as `max_stage`.
enum class DriftStage : int {
  kHealthy = 0,
  kRecalibrate = 1,
  kInflate = 2,
};

/// "healthy" / "recalibrate" / "inflate".
inline const char* DriftStageToString(DriftStage stage) {
  switch (stage) {
    case DriftStage::kHealthy: return "healthy";
    case DriftStage::kRecalibrate: return "recalibrate";
    case DriftStage::kInflate: return "inflate";
  }
  return "unknown";
}

/// Per-shard stage machine. Single-writer: only the shard's worker calls
/// Update (at micro-batch boundaries); stage() is a plain read.
class DriftDetector {
 public:
  /// Observations the rolling window needs before the detector acts.
  static constexpr size_t kMinObservations = 64;
  /// Coverage dip (nominal - rolling) that triggers each stage.
  static constexpr double kRecalibrateDip = 0.03;
  static constexpr double kInflateDip = 0.08;
  /// Consecutive healthy observations before stepping down one stage.
  static constexpr size_t kRecoveryHold = 96;
  /// "Healthy" = rolling coverage within this of nominal (or above).
  static constexpr double kRecoveredWithin = 0.01;

  /// Dips are measured against `nominal_coverage`, the conformal
  /// predictor's target 1 - alpha.
  explicit DriftDetector(double nominal_coverage)
      : nominal_coverage_(nominal_coverage) {}

  /// Folds one prequential observation's monitor state into the ladder
  /// and returns the (possibly changed) stage. `observations` is the
  /// rolling window's current occupancy.
  DriftStage Update(double rolling_coverage, size_t observations) {
    if (observations < kMinObservations) return stage_;
    const double dip = nominal_coverage_ - rolling_coverage;
    DriftStage target = DriftStage::kHealthy;
    if (dip >= kInflateDip) {
      target = DriftStage::kInflate;
    } else if (dip >= kRecalibrateDip) {
      target = DriftStage::kRecalibrate;
    }
    if (static_cast<int>(target) > static_cast<int>(stage_)) {
      stage_ = target;   // escalate immediately, as far as the dip says
      healthy_streak_ = 0;
      return stage_;
    }
    if (dip <= kRecoveredWithin) {
      if (++healthy_streak_ >= kRecoveryHold &&
          stage_ != DriftStage::kHealthy) {
        stage_ = static_cast<DriftStage>(static_cast<int>(stage_) - 1);
        healthy_streak_ = 0;
      }
    } else {
      healthy_streak_ = 0;
    }
    return stage_;
  }

  DriftStage stage() const { return stage_; }

 private:
  double nominal_coverage_;
  DriftStage stage_ = DriftStage::kHealthy;
  size_t healthy_streak_ = 0;
};

}  // namespace serve
}  // namespace confcard

#endif  // CONFCARD_SERVE_DRIFT_DETECTOR_H_
