#include "harness/evaluation.h"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "common/stats.h"
#include "obs/event_log.h"
#include "obs/metrics.h"

namespace confcard {

EventClock::EventClock() : enabled_(obs::EventLog::Instance().enabled()) {}

double EventClock::NowUs() const {
  return enabled_ ? obs::TraceNowMicros() : 0.0;
}

void FinalizeMethodResult(MethodResult* result, double num_rows) {
  if (result->rows.empty()) return;
  // Degraded rows (guard fallbacks with inflated intervals) are kept out
  // of the headline aggregates so a fault sweep cannot flatter coverage
  // with intentionally-wide intervals; they get their own slice below.
  // With no degraded rows this loop is the historical all-rows pass.
  size_t covered = 0;
  size_t healthy = 0;
  size_t degraded_covered = 0;
  std::vector<double> widths, qerrs;
  widths.reserve(result->rows.size());
  qerrs.reserve(result->rows.size());
  double winkler = 0.0;
  const double penalty = 2.0 / std::max(result->alpha, 1e-9);
  for (const PiRow& r : result->rows) {
    if (r.degraded) {
      degraded_covered += r.covered() ? 1 : 0;
      continue;
    }
    ++healthy;
    covered += r.covered() ? 1 : 0;
    widths.push_back(r.width() / num_rows);
    const double e = std::max(r.estimate, 1.0);
    const double t = std::max(r.truth, 1.0);
    qerrs.push_back(std::max(e / t, t / e));
    double score = r.width();
    if (r.truth < r.lo) score += penalty * (r.lo - r.truth);
    if (r.truth > r.hi) score += penalty * (r.truth - r.hi);
    winkler += score / num_rows;
  }
  result->num_degraded = result->rows.size() - healthy;
  result->coverage_degraded =
      result->num_degraded == 0
          ? 0.0
          : static_cast<double>(degraded_covered) /
                static_cast<double>(result->num_degraded);
  if (healthy > 0) {
    result->winkler_sel = winkler / static_cast<double>(healthy);
    result->coverage =
        static_cast<double>(covered) / static_cast<double>(healthy);
    result->mean_width_sel = Mean(widths);
    result->median_width_sel = Percentile(widths, 50.0);
    result->p90_width_sel = Percentile(widths, 90.0);
    result->mean_qerror = Percentile(qerrs, 50.0);
  }

  // Per-process method-run ordinal: benches finalize in a deterministic
  // order, so the same run reproduces the same sequence and obsdiff can
  // align per-run gauges by name across two runs.
  static std::atomic<uint64_t> g_run_seq{0};
  result->run_seq = g_run_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string suffix = std::to_string(result->run_seq) + "." +
                             result->model + "." + result->method;
  obs::Metrics().GetGauge("harness.coverage." + suffix).Set(result->coverage);
  obs::Metrics()
      .GetGauge("harness.width_sel." + suffix)
      .Set(result->mean_width_sel);
  if (result->num_degraded > 0) {
    // Registered only when degradation happened, so healthy runs keep a
    // byte-identical metric namespace (the obsdiff gate relies on it).
    obs::Metrics()
        .GetGauge("harness.degraded." + suffix)
        .Set(static_cast<double>(result->num_degraded));
    obs::Metrics()
        .GetGauge("harness.coverage_degraded." + suffix)
        .Set(result->coverage_degraded);
  }

  obs::EventLog& elog = obs::EventLog::Instance();
  if (elog.enabled()) {
    // One batch in query-index order under a single lock acquisition, so
    // a method's events are contiguous even with concurrent appenders.
    std::vector<obs::QueryEvent> events(result->rows.size());
    for (size_t i = 0; i < result->rows.size(); ++i) {
      const PiRow& r = result->rows[i];
      obs::QueryEvent& e = events[i];
      e.run_seq = result->run_seq;
      e.query_id = i;
      e.model = result->model;
      e.method = result->method;
      e.alpha = result->alpha;
      e.estimate = r.estimate;
      e.lo = r.lo;
      e.hi = r.hi;
      e.truth = r.truth;
      e.latency_us = r.latency_us;
      e.degraded = r.degraded;
    }
    elog.AppendAll(events);
  }
}

PrepTimer::PrepTimer(MethodResult* result)
    : timer_("prep", &result->prep_millis,
             &obs::Metrics().GetHistogram("harness.prep_us")) {}

InferTimer::InferTimer(MethodResult* result, size_t num_queries)
    : timer_("infer", nullptr,
             &obs::Metrics().GetHistogram("harness.infer_us"),
             static_cast<double>(std::max<size_t>(num_queries, 1))) {
  // infer_micros is the per-query average; route the span's elapsed
  // micros through the divisor and mirror it into the result afterwards.
  result_ = result;
  num_queries_ = std::max<size_t>(num_queries, 1);
}

InferTimer::~InferTimer() {
  result_->infer_micros =
      timer_.span().ElapsedMicros() / static_cast<double>(num_queries_);
}

ClipCounter::ClipCounter(const std::string& method)
    : clipped_(obs::Metrics().GetCounter("conformal.clip." + method)),
      total_(obs::Metrics().GetCounter("conformal.clip." + method +
                                       ".total")) {}

Interval ClipCounter::Clip(Interval iv, double num_rows) {
  const Interval out = ClipToCardinality(iv, num_rows);
  total_.Increment();
  if (out.lo != iv.lo || out.hi != iv.hi) clipped_.Increment();
  return out;
}

}  // namespace confcard
