#include "conformal/online.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace confcard {

OnlineConformal::OnlineConformal(
    std::shared_ptr<const ScoringFunction> scoring, Options options)
    : scoring_(std::move(scoring)),
      options_(options),
      coverage_window_(kMonitorWindow),
      width_window_(kMonitorWindow) {
  CONFCARD_CHECK(scoring_ != nullptr);
  CONFCARD_CHECK(options_.alpha > 0.0 && options_.alpha < 1.0);
  if (options_.window > 0) {
    ring_.resize(options_.window);
    // An Observe at full occupancy inserts before it evicts, so the
    // sorted multiset transiently holds window + 1 scores.
    sorted_.reserve(options_.window + 1);
  }
}

Status OnlineConformal::Warmup(const std::vector<double>& estimates,
                               const std::vector<double>& truths) {
  if (estimates.size() != truths.size()) {
    return Status::InvalidArgument("estimates/truths size mismatch");
  }
  for (size_t i = 0; i < estimates.size(); ++i) {
    Observe(estimates[i], truths[i]);
  }
  return Status::OK();
}

void OnlineConformal::Observe(double estimate, double truth) {
  static obs::Counter& observations =
      obs::Metrics().GetCounter("conformal.online.observations");
  static obs::Counter& evictions =
      obs::Metrics().GetCounter("conformal.online.evictions");

  obs::EventLog& elog = obs::EventLog::Instance();
  const bool log_events = options_.publish_metrics && elog.enabled();
  const double t0 = log_events ? obs::TraceNowMicros() : 0.0;

  // Prequential monitoring: judge the interval the caller would have
  // been given for this query BEFORE the update absorbs its truth.
  const Interval iv = Predict(estimate);
  coverage_window_.Push(iv.Contains(truth) ? 1.0 : 0.0);
  if (std::isfinite(iv.width())) width_window_.Push(iv.width());

  observations.Increment();
  const double score = scoring_->Score(estimate, truth);
  ++observed_;

  sorted_.insert(std::lower_bound(sorted_.begin(), sorted_.end(), score),
                 score);
  if (options_.window > 0) {
    double evicted = 0.0;
    bool evict = false;
    if (ring_size_ == options_.window) {
      evicted = ring_[ring_head_];
      ring_[ring_head_] = score;
      ring_head_ = (ring_head_ + 1) % options_.window;
      evict = true;
    } else {
      ring_[(ring_head_ + ring_size_) % options_.window] = score;
      ++ring_size_;
    }
    if (evict) {
      auto it = std::lower_bound(sorted_.begin(), sorted_.end(), evicted);
      CONFCARD_DCHECK(it != sorted_.end() && *it == evicted);
      sorted_.erase(it);
      evictions.Increment();
    }
  }

  if (options_.publish_metrics) {
    static obs::Gauge& occupancy =
        obs::Metrics().GetGauge("conformal.online.window_occupancy");
    static obs::Gauge& rolling_cov =
        obs::Metrics().GetGauge("conformal.online.rolling_coverage");
    static obs::Gauge& rolling_width =
        obs::Metrics().GetGauge("conformal.online.rolling_width");
    occupancy.Set(static_cast<double>(size()));
    rolling_cov.Set(coverage_window_.Mean());
    if (width_window_.size() > 0) rolling_width.Set(width_window_.Mean());
  }

  if (log_events) {
    obs::QueryEvent e;
    e.run_seq = 0;  // the online stream has no batch finalization
    e.query_id = observed_ - 1;
    e.model = "online";
    e.method = "online-s-cp";
    e.alpha = options_.alpha;
    e.estimate = estimate;
    e.lo = iv.lo;
    e.hi = iv.hi;
    e.truth = truth;
    e.latency_us = obs::TraceNowMicros() - t0;
    elog.Append(e);
  }
}

void OnlineConformal::ResetWindowTo(size_t keep_last) {
  CONFCARD_CHECK_MSG(options_.window > 0,
                     "ResetWindowTo needs a windowed OnlineConformal");
  const size_t keep = std::min(keep_last, ring_size_);
  const size_t drop = ring_size_ - keep;
  ring_head_ = (ring_head_ + drop) % options_.window;
  ring_size_ = keep;
  sorted_.resize(keep);
  for (size_t i = 0; i < keep; ++i) sorted_[i] = RingAt(i);
  std::sort(sorted_.begin(), sorted_.end());
}

double OnlineConformal::delta() const {
  const size_t n = sorted_.size();
  if (n == 0) return std::numeric_limits<double>::infinity();
  const size_t rank = ConformalRank(n, options_.alpha);
  if (rank > n) return std::numeric_limits<double>::infinity();
  return sorted_[rank - 1];
}

Interval OnlineConformal::Predict(double estimate) const {
  const double d = delta();
  if (std::isinf(d)) return Interval::Infinite();
  return scoring_->Invert(estimate, d);
}

}  // namespace confcard
