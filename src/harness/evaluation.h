// Prediction-interval evaluation: per-query records and the aggregate
// metrics the paper's figures are judged by (empirical coverage, interval
// widths normalized to selectivity, timing).
#ifndef CONFCARD_HARNESS_EVALUATION_H_
#define CONFCARD_HARNESS_EVALUATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "conformal/interval.h"
#include "obs/trace.h"

namespace confcard {

/// One test query's PI outcome (cardinalities in tuples; intervals
/// already clipped to [0, N]).
struct PiRow {
  double truth = 0.0;
  double estimate = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  /// Per-query PI inference latency. Stamped only while the event log is
  /// armed (see EventClock); 0 otherwise, so the hot loop stays free of
  /// clock syscalls in normal runs.
  double latency_us = 0.0;
  /// True when the estimate came from a guard fallback (or quarantine)
  /// and the interval was conservatively inflated. Degraded rows are
  /// aggregated separately so healthy coverage stays unpolluted.
  bool degraded = false;

  bool covered() const { return truth >= lo && truth <= hi; }
  double width() const { return hi - lo; }
};

/// Aggregate outcome of one (model, PI method) pair on a test workload.
struct MethodResult {
  std::string model;
  std::string method;
  double alpha = 0.1;
  /// Per-process ordinal assigned by FinalizeMethodResult (1, 2, ...).
  /// Disambiguates repeated (model, method) pairs — ablations rerun the
  /// same method at several alphas, and some benches rename `method`
  /// after finalization — in both gauge names
  /// ("harness.coverage.<run_seq>.<model>.<method>") and the `run` field
  /// of per-query events. Deterministic across identical runs.
  uint64_t run_seq = 0;

  double coverage = 0.0;          // fraction of rows covered
  double mean_width_sel = 0.0;    // mean width / N
  double median_width_sel = 0.0;  // median width / N
  double p90_width_sel = 0.0;
  double mean_qerror = 0.0;       // model accuracy context (median q-error)
  /// Mean Winkler (interval) score normalized by N: width plus a
  /// (2/alpha) * distance penalty for misses. A proper scoring rule —
  /// lower is better — that trades coverage against width on one axis,
  /// so methods with different coverage become directly comparable.
  double winkler_sel = 0.0;

  double prep_millis = 0.0;   // extra training + calibration time
  double infer_micros = 0.0;  // per-query PI inference time

  /// Degraded-row accounting (guarded runs only; both stay 0 otherwise).
  /// When any row is degraded, the aggregates above are computed over
  /// healthy rows only; the degraded slice is summarized here.
  uint64_t num_degraded = 0;
  double coverage_degraded = 0.0;

  std::vector<PiRow> rows;
};

/// Fills the aggregate fields of `result` from `result.rows` (widths
/// normalized by `num_rows`), assigns `result->run_seq`, publishes
/// "harness.coverage.<seq>.<model>.<method>" /
/// "harness.width_sel.<seq>.<model>.<method>" gauges, and — when
/// CONFCARD_EVENTS_JSONL is set — streams one per-query event record per
/// row to the event log.
void FinalizeMethodResult(MethodResult* result, double num_rows);

/// Clock for per-query latency stamping that is free when the event log
/// is disarmed: NowUs() returns 0 without touching the clock, so
/// `row.latency_us = clock.NowUs() - t0` costs one predictable branch in
/// normal runs. Construct once per inference loop, outside it.
class EventClock {
 public:
  EventClock();
  double NowUs() const;

 private:
  bool enabled_;
};

/// RAII timer for the prep phase of one method run (model-extra training
/// plus calibration): opens a "prep" trace span and, on destruction,
/// fills result->prep_millis and the "harness.prep_us" histogram.
class PrepTimer {
 public:
  explicit PrepTimer(MethodResult* result);

 private:
  obs::ScopedTimer timer_;
};

/// RAII timer for the per-query inference loop: opens an "infer" trace
/// span; on destruction fills result->infer_micros (per query over
/// `num_queries`) and the "harness.infer_us" histogram.
class InferTimer {
 public:
  InferTimer(MethodResult* result, size_t num_queries);
  ~InferTimer();

 private:
  obs::ScopedTimer timer_;
  MethodResult* result_;
  size_t num_queries_;
};

/// Interval clipping with per-method accounting: behaves like
/// ClipToCardinality and bumps "conformal.clip.<method>" whenever
/// clipping moved a bound, plus the matching ".total" counter per
/// interval seen.
class ClipCounter {
 public:
  explicit ClipCounter(const std::string& method);

  /// ClipToCardinality(iv, num_rows), counted. Join cardinalities have
  /// no table-size cap: num_rows = +infinity clips at zero only.
  Interval Clip(Interval iv, double num_rows);

 private:
  obs::Counter& clipped_;
  obs::Counter& total_;
};

}  // namespace confcard

#endif  // CONFCARD_HARNESS_EVALUATION_H_
