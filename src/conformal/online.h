// Online conformal prediction (Section IV "Incorporating Workload
// Information" and the Figure 8 experiment): after a query executes, its
// (estimate, truth) pair is appended to the calibration set, which
// remains exchangeable, so PIs tighten as the calibration set adapts to
// the live workload. An optional sliding window keeps only the most
// recent scores (the paper's "last 24 hours" variant).
//
// Observe() additionally publishes rolling monitors through the metrics
// registry — prequential coverage and mean width over the last
// kMonitorWindow observations, window occupancy, and eviction counts —
// so the Fig. 8/11 shift experiments expose their degradation live
// instead of only in final tables. See docs/OBSERVABILITY.md
// ("conformal.online.*").
//
// Windowed instances are allocation-free after construction: the recency
// order lives in a fixed ring buffer and the sorted multiset in a vector
// reserved one past the window (an insert transiently holds window + 1
// scores before the eviction erase). This is what lets the serving
// feedback path recalibrate per micro-batch under a zero-steady-state-
// allocation gate.
#ifndef CONFCARD_CONFORMAL_ONLINE_H_
#define CONFCARD_CONFORMAL_ONLINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "conformal/interval.h"
#include "conformal/scoring.h"
#include "obs/rolling.h"

namespace confcard {

/// Split conformal prediction over a growing (or sliding) calibration
/// multiset. Observe() is O(log n) per update; Predict() is O(1).
class OnlineConformal {
 public:
  /// Rolling-monitor horizon: coverage/width gauges average over this
  /// many most-recent observations.
  static constexpr size_t kMonitorWindow = 256;

  struct Options {
    double alpha = 0.1;
    /// Keep at most this many most-recent scores (0 = unbounded).
    size_t window = 0;
    /// When false, Observe neither sets conformal.online.* gauges nor
    /// emits per-query events. Serving shards each own a recalibrator
    /// and publish their own serve.drift.* view instead — concurrent
    /// last-writer gauge races would make runs non-replayable, and the
    /// event append allocates.
    bool publish_metrics = true;
  };

  OnlineConformal(std::shared_ptr<const ScoringFunction> scoring,
                  Options options);

  /// Seeds the calibration set with an initial batch.
  Status Warmup(const std::vector<double>& estimates,
                const std::vector<double>& truths);

  /// Adds one executed query's (estimate, truth) to the calibration set.
  /// Prequentially scores the pre-update interval against `truth` for
  /// the rolling monitors, and appends a per-query event when the event
  /// log is armed.
  void Observe(double estimate, double truth);

  /// PI under the current calibration set. Infinite until at least
  /// ceil(1/alpha) - 1 scores have been observed.
  Interval Predict(double estimate) const;

  /// Current conformal quantile delta.
  double delta() const;

  /// Drops all but the newest `keep_last` calibration scores (stage-1
  /// drift recalibration: stale pre-drift scores stop diluting the
  /// quantile). Lifetime counters and rolling monitors are untouched.
  /// Windowed instances only (CHECKed); allocation-free.
  void ResetWindowTo(size_t keep_last);

  size_t size() const { return sorted_.size(); }

  /// Lifetime observation count (never decremented by eviction).
  uint64_t observed() const { return observed_; }
  /// Prequential coverage over the last kMonitorWindow observations.
  double rolling_coverage() const { return coverage_window_.Mean(); }
  /// Observations currently in the rolling coverage window.
  size_t rolling_observations() const { return coverage_window_.size(); }
  /// Mean finite interval width over the same horizon.
  double rolling_width() const { return width_window_.Mean(); }

  const Options& options() const { return options_; }
  const ScoringFunction& scoring() const { return *scoring_; }

 private:
  /// Oldest-first access into the windowed ring.
  double RingAt(size_t i) const {
    return ring_[(ring_head_ + i) % options_.window];
  }

  std::shared_ptr<const ScoringFunction> scoring_;
  Options options_;
  // Windowed mode keeps scores in arrival order in a fixed ring buffer
  // (the eviction order); the unbounded mode never evicts and keeps only
  // the sorted multiset (sorted vector, for O(log n) quantiles).
  std::vector<double> ring_;
  size_t ring_head_ = 0;
  size_t ring_size_ = 0;
  std::vector<double> sorted_;
  // Rolling monitors (prequential: judged before the update).
  obs::RollingWindow coverage_window_;
  obs::RollingWindow width_window_;
  uint64_t observed_ = 0;
};

}  // namespace confcard

#endif  // CONFCARD_CONFORMAL_ONLINE_H_
